"""The system catalog: relations, their indexes, and optimizer statistics.

Section 4 reduces query optimization to selectivity ordering once hash
algorithms are chosen; the statistics the planner needs (cardinality, page
count, distinct values per column, min/max) live here, collected lazily per
relation with an explicit ``analyze`` step, as a real system would.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.storage import codecs
from repro.storage.relation import Relation
from repro.errors import ConfigurationError


@dataclass
class ColumnStats:
    """Per-column statistics used for selectivity estimation."""

    distinct: int = 0
    minimum: Optional[Any] = None
    maximum: Optional[Any] = None

    def selectivity_equals(self, cardinality: int) -> float:
        """Estimated fraction of tuples matching ``col = const``."""
        if self.distinct <= 0 or cardinality <= 0:
            return 1.0
        return 1.0 / self.distinct

    def selectivity_range(self, low: Any, high: Any) -> float:
        """Estimated fraction matching ``low <= col <= high``, by uniform
        interpolation between the column's minimum and maximum."""
        if (
            self.minimum is None
            or self.maximum is None
            or not isinstance(self.minimum, (int, float))
            or self.maximum == self.minimum
        ):
            return 0.5  # Selinger's default for un-analyzable ranges
        span = self.maximum - self.minimum
        width = max(0.0, min(high, self.maximum) - max(low, self.minimum))
        return max(0.0, min(1.0, width / span))


@dataclass
class RelationStats:
    """Statistics snapshot for one relation."""

    cardinality: int = 0
    page_count: int = 0
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        return self.columns.get(name, ColumnStats())


def _packed_int_stats(column: codecs.Column) -> Optional[ColumnStats]:
    """Distinct count and extremes of a non-empty packed int64 column, in
    numpy: by counting when the values span little more than their
    number, by sorting otherwise.  ``None`` (the caller boxes the values
    into a set) for any other column, or without numpy."""
    np = codecs.np
    if np is None or type(column) is not array or column.typecode != codecs.INT_KIND:
        return None
    values = codecs.packed_view(column)
    low, high = int(values.min()), int(values.max())
    if high - low < 4 * len(values):
        distinct = np.count_nonzero(np.bincount(values - low))
    else:
        distinct = len(np.unique(values))
    return ColumnStats(distinct=int(distinct), minimum=low, maximum=high)


class Catalog:
    """A registry of named relations and their indexes."""

    def __init__(self) -> None:
        self._relations: Dict[str, Relation] = {}
        self._indexes: Dict[Tuple[str, str], Any] = {}
        self._stats: Dict[str, RelationStats] = {}
        #: Per-relation access-path epoch, bumped whenever an index is
        #: created or dropped.  Plan fingerprints embed it so cached
        #: subplans become unaddressable when the set of available access
        #: paths changes, not just when the data does.
        self._access_epochs: Dict[str, int] = {}
        #: Per-relation statistics epoch, bumped by every ``analyze``.
        #: Join fingerprints embed it so a cached join order planned
        #: against stale statistics cannot be served after a refresh.
        self._stats_epochs: Dict[str, int] = {}

    # -- relations ---------------------------------------------------------------

    def register(self, relation: Relation) -> Relation:
        """Add ``relation``; raises if the name exists."""
        if relation.name in self._relations:
            raise ConfigurationError("relation %r already exists" % relation.name)
        self._relations[relation.name] = relation
        return relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError("no relation named %r" % name) from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def drop(self, name: str) -> None:
        """Remove a relation, its indexes, and its statistics."""
        if name not in self._relations:
            raise KeyError("no relation named %r" % name)
        del self._relations[name]
        self._stats.pop(name, None)
        self._access_epochs.pop(name, None)
        self._stats_epochs.pop(name, None)
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]

    def relations(self) -> List[str]:
        return sorted(self._relations)

    # -- indexes -----------------------------------------------------------------

    def register_index(self, relation_name: str, column: str, index: Any) -> None:
        """Attach an index object to ``(relation, column)``."""
        self.relation(relation_name)  # existence check
        key = (relation_name, column)
        if key in self._indexes:
            raise ConfigurationError("index on %s.%s already exists" % key)
        self._indexes[key] = index
        self._bump_access_epoch(relation_name)

    def index(self, relation_name: str, column: str) -> Optional[Any]:
        return self._indexes.get((relation_name, column))

    def indexes_on(self, relation_name: str) -> Dict[str, Any]:
        return {
            col: idx
            for (rel, col), idx in self._indexes.items()
            if rel == relation_name
        }

    def replace_index(self, relation_name: str, column: str, index: Any) -> None:
        """Swap in a rebuilt index over the same column.  The access
        paths on the relation are what they were, so its epoch stays."""
        key = (relation_name, column)
        if key not in self._indexes:
            raise KeyError("no index on %s.%s" % key)
        self._indexes[key] = index

    def drop_index(self, relation_name: str, column: str) -> None:
        key = (relation_name, column)
        if key not in self._indexes:
            raise KeyError("no index on %s.%s" % key)
        del self._indexes[key]
        self._bump_access_epoch(relation_name)

    def _bump_access_epoch(self, relation_name: str) -> None:
        self._access_epochs[relation_name] = (
            self._access_epochs.get(relation_name, 0) + 1
        )

    def access_epoch(self, relation_name: str) -> int:
        """Monotonic counter of index create/drop events on a relation.

        Embedded in scan fingerprints so the plan-reuse cache cannot serve
        a subplan materialised under a different set of access paths.
        """
        return self._access_epochs.get(relation_name, 0)

    # -- statistics ---------------------------------------------------------------

    def measure(self, name: str) -> RelationStats:
        """Scan ``name``'s column buffers into a statistics snapshot
        without recording it (:meth:`publish_stats` does that)."""
        rel = self.relation(name)
        columns: Dict[str, ColumnStats] = {}
        for i, f in enumerate(rel.schema.fields):
            values = rel.column(i)
            packed = _packed_int_stats(values) if values else None
            if packed is not None:
                columns[f.name] = packed
                continue
            if values:
                numeric = isinstance(values[0], (int, float))
                # The extremes of a column are those of its distinct values.
                distinct = set(values)
                columns[f.name] = ColumnStats(
                    distinct=len(distinct),
                    minimum=min(distinct) if numeric else None,
                    maximum=max(distinct) if numeric else None,
                )
            else:
                columns[f.name] = ColumnStats()
        return RelationStats(
            cardinality=rel.cardinality,
            page_count=rel.page_count,
            columns=columns,
        )

    def publish_stats(self, name: str, stats: RelationStats) -> RelationStats:
        """Make ``stats`` the optimizer's view of ``name``."""
        self._stats[name] = stats
        self._stats_epochs[name] = self._stats_epochs.get(name, 0) + 1
        return stats

    def analyze(self, name: str) -> RelationStats:
        """Scan ``name`` and record fresh optimizer statistics."""
        return self.publish_stats(name, self.measure(name))

    def stats(self, name: str) -> RelationStats:
        """Statistics for ``name``, analyzing on first request."""
        if name not in self._stats:
            return self.analyze(name)
        return self._stats[name]

    def stats_epoch(self, relation_name: str) -> int:
        """Monotonic counter of ``analyze`` runs on a relation.

        Embedded in join fingerprints so the plan-reuse cache cannot keep
        serving a join subtree whose order and algorithm were chosen
        against statistics that have since been refreshed.
        """
        return self._stats_epochs.get(relation_name, 0)

    def __repr__(self) -> str:
        return "Catalog(%d relations, %d indexes)" % (
            len(self._relations),
            len(self._indexes),
        )


__all__ = ["Catalog", "ColumnStats", "RelationStats"]

"""The optimizer: Section 4's "push the most selective operations down".

Planning proceeds exactly as the paper argues a large-memory system should:

1. **Access paths.**  Per-table predicates are pushed below the joins.  An
   indexed comparison becomes an index scan when the ``W*CPU + IO``
   estimate beats the full scan (with everything memory resident the index
   usually wins for selective predicates, matching Section 2).  Projections
   are pushed down with them: each access-path node keeps only the columns
   something above it reads, so joins run on narrow pages.
2. **Operator ordering.**  Joins are ordered greedily by estimated output
   cardinality -- the most selective join is performed first.  Because the
   hash algorithms are insensitive to input order, no "interesting order"
   bookkeeping [SELI79] is needed; this is the paper's simplification.
3. **Algorithm choice.**  Each join picks the cheapest of the five
   executable algorithms under the Section 3 cost model.  With a large
   memory grant this is hybrid hash essentially always -- benchmark E11
   asserts it -- but the comparison is genuinely cost-based, so shrinking
   the grant exposes the crossovers of Figure 1 inside the planner, too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cost.parameters import CostParameters
from repro.errors import PlannerError, UnplannableQueryError
from repro.join import ALL_JOINS
from repro.operators.selection import Comparison, Predicate, Prefix, Range
from repro.planner.plan import (
    AggregateNode,
    FilterNode,
    IndexScanNode,
    JoinNode,
    PlanContext,
    PlanNode,
    ProjectNode,
    ScanNode,
    estimate_join_cost,
)
from repro.planner.query import JoinClause, Query
from repro.planner.selectivity import estimate_selectivity, join_selectivity
from repro.storage.catalog import Catalog, ColumnStats


@dataclass
class PlannerConfig:
    """Optimizer knobs (all default to the paper's large-memory setting)."""

    memory_pages: int = 1000
    params: CostParameters = field(default_factory=CostParameters)
    w: float = 1.0
    #: Restrict the join algorithms considered (None = all five).
    join_algorithms: Optional[List[str]] = None
    #: Force hash (or sort) engines for aggregation/projection.
    aggregate_method: str = "hash"

    def candidate_joins(self) -> List[str]:
        if self.join_algorithms is None:
            # Preference order breaks cost ties: when R's hash table fits
            # in memory, hybrid and simple hash cost the same and the
            # paper's recommendation (hybrid) should win.
            return [
                "hybrid-hash",
                "simple-hash",
                "grace-hash",
                "sort-merge",
                "nested-loops",
            ]
        unknown = set(self.join_algorithms) - set(ALL_JOINS)
        if unknown:
            raise PlannerError("unknown join algorithms: %r" % sorted(unknown))
        return list(self.join_algorithms)


#: A predicate, the column names it reads (``Predicate.columns()``), its selectivity.
_Reads = Tuple[Predicate, Optional[List[str]], float]


def _bound_key(pred: Predicate) -> Optional[Tuple[str, type]]:
    """``(column, str or float)`` for a one-sided comparison against a
    string or a number (not NaN) -- the bounds that fold into a
    :class:`Range` with the others of their key -- else ``None``."""
    if isinstance(pred, Comparison) and pred.op not in ("=", "!="):
        value = pred.value
        if isinstance(value, str):
            return pred.column, str
        if isinstance(value, (int, float)) and type(value) is not bool and value == value:
            return pred.column, float
    return None


def _fold_ranges(predicates: List[Predicate]) -> List[Predicate]:
    """``predicates`` with each column's lower and upper bounds folded into
    one :class:`Range` where the first of them was written: the tightest
    bound per side, an open end over a closed one at the same value.  A
    column bounded on one side only is left alone."""
    keys = [_bound_key(pred) for pred in predicates]
    groups: Dict[Optional[Tuple[str, type]], List[Predicate]] = {}
    for key, pred in zip(keys, predicates):
        groups.setdefault(key, []).append(pred)
    folded: List[Predicate] = []
    for key, pred in zip(keys, predicates):
        bounds = groups[key] if key else ()
        lows = [b for b in bounds if b.op in (">", ">=")]
        highs = [b for b in bounds if b.op in ("<", "<=")]
        if not lows or not highs:
            folded.append(pred)
        elif pred is bounds[0]:
            low = max(lows, key=lambda b: (b.value, b.op == ">"))
            high = min(highs, key=lambda b: (b.value, b.op != "<"))
            folded.append(Range(
                pred.column, low.value, high.value, low.op == ">", high.op == "<"
            ))
    return folded


class _SubPlan:
    """A planned subtree plus the bookkeeping the greedy search needs."""

    def __init__(
        self, node: PlanNode, tables: Set[str], distinct: Dict[str, ColumnStats]
    ) -> None:
        self.node = node
        self.tables = tables
        #: column name -> the column's analyzed statistics.
        self.distinct = distinct

    def distinct_of(self, column: str) -> int:
        col = self.distinct.get(column)
        d = col.distinct if col is not None else 0
        return max(1, min(d if d else 10, int(self.node.estimated_rows) or 1))


class Planner:
    """Produces executable plans for :class:`~repro.planner.query.Query`."""

    def __init__(self, catalog: Catalog, config: Optional[PlannerConfig] = None):
        self.catalog = catalog
        self.config = config or PlannerConfig()

    def context(self) -> PlanContext:
        """A fresh execution context matching the planner's configuration."""
        return PlanContext(
            catalog=self.catalog,
            memory_pages=self.config.memory_pages,
            params=self.config.params,
            w=self.config.w,
        )

    # -- public API ---------------------------------------------------------------

    def plan(self, query: Query) -> PlanNode:
        """Optimize ``query`` into an executable plan tree."""
        self._check_column_uniqueness(query)
        subplans = {t: self._access_path(query, t) for t in query.tables}

        joined = self._order_joins(query, subplans)
        node = joined.node

        if query.group_by or query.aggregates:
            node = AggregateNode(
                node,
                query.group_by,
                query.aggregates,
                method=self.config.aggregate_method,
                group_ratio=self._group_ratio(joined, query.group_by),
            )
        elif query.projection is not None:
            node = ProjectNode(
                node,
                query.projection,
                distinct=query.distinct,
                method=self.config.aggregate_method,
                distinct_ratio=self._group_ratio(joined, query.projection),
            )
        return node

    def explain(self, query: Query) -> str:
        """The plan tree with per-node cost estimates, as text."""
        return self.plan(query).explain(self.context())

    # -- step 1: access paths ---------------------------------------------------------

    @staticmethod
    def _columns_read(query: Query) -> Optional[Set[str]]:
        """Columns anything above the access paths reads -- the SELECT
        list or the GROUP BY and aggregate inputs, plus every join key --
        or ``None`` for ``SELECT *``.  Names are unique across a query's
        tables, so one set serves them all."""
        if query.group_by or query.aggregates:
            read = set(query.group_by)
            read.update(a.column for a in query.aggregates if a.column)
        elif query.projection is not None:
            read = set(query.projection)
        else:
            return None
        for clause in query.joins:
            read.update((clause.left_column, clause.right_column))
        return read

    def _access_path(self, query: Query, table: str) -> _SubPlan:
        stats = self.catalog.stats(table)
        names = self.catalog.relation(table).schema.names
        read = self._columns_read(query)
        # Never prune to zero columns: COUNT(*) reads none, rows still count.
        keep = None if read is None else (
            read.intersection(names) or {names[0]}
        )
        # Each predicate, the columns it names (None: it does not say), its selectivity.
        predicates = [
            (p, p.columns(), estimate_selectivity(p, stats))
            for p in _fold_ranges(query.predicates_on(table))
        ]

        def live(width: int, later: List[_Reads]) -> Optional[List[str]]:
            """What a node over ``width`` columns must still emit: ``keep``
            plus what the predicates yet to run above it name.  In schema
            order, so one set is one fingerprint however the statement
            spelt it; ``None`` (no pruning) when that is every column, or
            when a predicate does not say what it reads."""
            if keep is None:
                return None
            wanted = set(keep)
            for _, named, _ in later:
                if named is None:
                    return None
                wanted.update(named)
            kept = [name for name in names if name in wanted]
            return kept if len(kept) < width else None

        def filtered(node: PlanNode, chain: List[_Reads]) -> PlanNode:
            # Section 4: the most selective first; ties in written order.
            chain = sorted(chain, key=lambda reads: reads[2])
            for i, (pred, _, sel) in enumerate(chain):
                node = FilterNode(
                    node, pred, sel, live(len(node.schema), chain[i + 1 :])
                )
            return node

        # Under filters the scan stays the live relation and the first
        # filter's copy-out prunes; a bare scan repacks.
        best = filtered(
            ScanNode(
                table, self.catalog,
                None if predicates else live(len(names), []),
            ),
            predicates,
        )
        ctx = self.context()

        # Try serving one indexed comparison with an index scan, filtering
        # the rest on top; keep whichever estimate is cheaper.
        for i, (pred, _, sel) in enumerate(predicates):
            if not self._indexable(pred, table):
                continue
            rest = predicates[:i] + predicates[i + 1 :]
            candidate = filtered(
                IndexScanNode(
                    table, pred, self.catalog, sel, live(len(names), rest)
                ),
                rest,
            )
            if candidate.total_cost(ctx) < best.total_cost(ctx):
                best = candidate

        distinct = {name: stats.column(name) for name in names}
        return _SubPlan(best, {table}, distinct)

    def _indexable(self, pred: Predicate, table: str) -> bool:
        """Whether an index on ``table`` can serve ``pred``: any index an
        equality, an ordered one a range or a prefix."""
        equality = isinstance(pred, Comparison) and pred.is_equality
        ranged = isinstance(pred, (Prefix, Range)) or (
            isinstance(pred, Comparison) and pred.op in ("<", "<=", ">", ">=")
        )
        index = self.catalog.index(table, pred.column) if equality or ranged else None
        return index is not None and (equality or index.supports_range_scan)

    # -- step 2+3: join ordering and algorithm choice -----------------------------------

    def _order_joins(
        self, query: Query, subplans: Dict[str, _SubPlan]
    ) -> _SubPlan:
        remaining = dict(subplans)
        if len(remaining) == 1:
            return next(iter(remaining.values()))

        # Seed with the most selective (smallest) access path -- "pushed
        # towards the bottom of the query tree".  Ties break on the table
        # name so the chosen plan is invariant to the order tables were
        # listed in the query (dict order would otherwise leak through).
        seed = min(
            remaining, key=lambda t: (remaining[t].node.estimated_rows, t)
        )
        current = remaining.pop(seed)

        while remaining:
            best_choice: Optional[Tuple[float, str, JoinClause]] = None
            for table, sub in sorted(remaining.items()):
                clauses = query.joins_between(sorted(current.tables), table)
                if not clauses:
                    continue
                clause = clauses[0]
                rows = self._join_rows(current, sub, clause)
                if best_choice is None or (rows, table) < best_choice[:2]:
                    best_choice = (rows, table, clause)
            if best_choice is None:
                raise UnplannableQueryError(
                    "query graph is disconnected: %r cannot join %r without "
                    "a cross product" % (sorted(remaining), sorted(current.tables))
                )
            rows, table, clause = best_choice
            current = self._make_join(current, remaining.pop(table), clause, rows)
        return current

    def _join_rows(
        self, left: _SubPlan, right: _SubPlan, clause: JoinClause
    ) -> float:
        if clause.left_table in left.tables:
            left_col, right_col = clause.left_column, clause.right_column
        else:
            left_col, right_col = clause.right_column, clause.left_column
        sel = join_selectivity(
            left.distinct_of(left_col), right.distinct_of(right_col)
        )
        return left.node.estimated_rows * right.node.estimated_rows * sel

    def _make_join(
        self, left: _SubPlan, right: _SubPlan, clause: JoinClause, rows: float
    ) -> _SubPlan:
        if clause.left_table in left.tables:
            left_col, right_col = clause.left_column, clause.right_column
        else:
            left_col, right_col = clause.right_column, clause.left_column

        ctx = self.context()
        best_alg, best_cost = None, math.inf
        for algorithm in self.config.candidate_joins():
            cost = estimate_join_cost(
                algorithm,
                left.node.estimated_rows,
                right.node.estimated_rows,
                left.node.estimated_pages,
                right.node.estimated_pages,
                ctx,
            )
            # Relative tolerance so float noise cannot override the
            # preference order on genuine ties (hybrid == simple when R's
            # table fits: the same arithmetic in a different order).
            if cost < best_cost * (1.0 - 1e-9):
                best_alg, best_cost = algorithm, cost
        if best_alg is None:
            raise UnplannableQueryError(
                "no join algorithm is feasible at %d pages"
                % self.config.memory_pages
            )

        node = JoinNode(left.node, right.node, left_col, right_col, best_alg, rows)
        distinct = dict(right.distinct)
        distinct.update(left.distinct)
        return _SubPlan(node, left.tables | right.tables, distinct)

    # -- helpers ------------------------------------------------------------------------

    def _group_ratio(self, sub: _SubPlan, columns: List[str]) -> float:
        """Estimated groups / input rows for grouping-style operators."""
        rows = max(1.0, sub.node.estimated_rows)
        if not columns:
            return 1.0 / rows
        groups = 1.0
        for col in columns:
            groups *= sub.distinct_of(col)
        return min(1.0, groups / rows)

    def _check_column_uniqueness(self, query: Query) -> None:
        seen: Dict[str, str] = {}
        for table in query.tables:
            for name in self.catalog.relation(table).schema.names:
                if name in seen and len(query.tables) > 1:
                    raise PlannerError(
                        "column %r appears in both %r and %r; the planner "
                        "requires distinct column names across joined tables"
                        % (name, seen[name], table)
                    )
                seen[name] = table


__all__ = ["Planner", "PlannerConfig"]

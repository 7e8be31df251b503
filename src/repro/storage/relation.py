"""Heap relations stored as one buffer per column.

A :class:`Relation` is the memory-resident representation the paper's title
is about: a schema plus its tuples, held column-wise in one unbounded
:class:`~repro.storage.page.Page` -- one buffer per column for the whole
relation.  Pages are arithmetic: with ``c`` tuples per page, page ``p``
holds the rows at positions ``p * c .. (p + 1) * c - 1`` (the paper's
``|R| = ||R|| / (tuples per page)``).  A TID is a row's position in the
column buffers, and its page is ``tid // c``.  Appends land at the end
and deletion compacts from the tail, so every page but the last is full.

The batch operators read whole columns (:attr:`Relation.columns`);
:attr:`Relation.pages` cuts the relation into page copies on demand for
the readers that walk pages -- the tuple-at-a-time specification arm.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import Any, Callable, Iterable, Iterator, List, Sequence, Tuple

from repro.storage.codecs import Column, column_bytes, column_kinds, is_packed
from repro.storage.page import Page
from repro.storage.tuples import Schema
from repro.errors import ConfigurationError

DEFAULT_PAGE_BYTES = 4096

Row = Tuple[Any, ...]
#: A tuple identifier: the row's position in the column buffers.
Tid = int


class Relation:
    """A named collection of fixed-width tuples, one buffer per column."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ) -> None:
        if not name:
            raise ConfigurationError("relation name must be non-empty")
        self.name = name
        self.schema = schema
        self.page_bytes = page_bytes
        self._tuples_per_page = schema.tuples_per_page(page_bytes)
        #: Schema-driven column kinds the buffers pack to.
        self._kinds = column_kinds(schema)
        #: Every tuple, in physical order: one unbounded page whose
        #: ``_extend_column`` keeps packed buffers packed and demotes a
        #: column the moment a value would not round-trip.
        self._store = Page(0, 1 << 62, self._kinds)
        #: Monotonic mutation stamp; any change to the contents bumps it.
        #: The planner's reuse cache keys fingerprints on it so cached
        #: results of stale subplans can never be served.
        self._version = 0

    # -- geometry ---------------------------------------------------------------

    @property
    def tuples_per_page(self) -> int:
        """The paper's ``||R|| / |R|`` density (40 for the Table 2 workload)."""
        return self._tuples_per_page

    @property
    def page_count(self) -> int:
        """``|R|`` -- the relation's size in pages, ``ceil(||R|| / c)``."""
        return -(-len(self._store) // self._tuples_per_page)

    @property
    def cardinality(self) -> int:
        """``||R||`` -- the number of tuples."""
        return len(self._store)

    @property
    def version(self) -> int:
        """Mutation stamp for cache invalidation (bumped on every change)."""
        return self._version

    def __len__(self) -> int:
        return len(self._store)

    @property
    def columns(self) -> List[Column]:
        """The column buffers, in field order, each holding every tuple
        (do not mutate)."""
        return self._store.columns

    def column(self, index: int) -> Column:
        """The buffer of column ``index`` (do not mutate)."""
        return self._store.columns[index]

    def block(self, start: int, stop: int, page_id: int = 0) -> Page:
        """A page holding copies of the rows at positions ``start .. stop
        - 1``: one slice per column buffer."""
        return Page.wrap(
            page_id,
            max(stop - start, self._tuples_per_page),
            self._kinds,
            [col[start:stop] for col in self._store.columns],
            stop - start,
        )

    @property
    def pages(self) -> List[Page]:
        """The relation cut into its pages, in order -- copies built on
        each call, so changing one does not change the relation."""
        cap, n = self._tuples_per_page, len(self._store)
        return [
            self.block(start, min(start + cap, n), page_no)
            for page_no, start in enumerate(range(0, n, cap))
        ]

    # -- mutation ---------------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> Tid:
        """Validate and append one tuple; return its TID."""
        row = self.schema.validate(values)
        return self.insert_unchecked(row)

    def insert_unchecked(self, row: Row) -> Tid:
        """Append a pre-validated tuple (hot path for generators/joins)."""
        tid = self._store.add(row)
        self._version += 1
        return tid

    def extend(self, rows: Iterable[Sequence[Any]]) -> int:
        """Validate and insert many tuples; return how many were added.

        Validation happens in a single :meth:`Schema.validate_batch` call
        and the rows land as one append per column.
        """
        return self.extend_rows(self.schema.validate_batch(rows))

    def extend_rows(self, rows: Sequence[Row]) -> int:
        """Append many pre-validated tuples; return how many.

        The bulk analogue of :meth:`insert_unchecked`: the rows are
        transposed once and land as one append per column.  ``rows`` must
        already be plain tuples matching the schema.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        n = self._store.extend_rows(rows)
        if n:
            self._version += 1
        return n

    def extend_columns(self, columns: Sequence[Column], count: int) -> int:
        """Append ``count`` pre-validated rows given column-wise; return count.

        The batch operators' output path: one buffer-to-buffer append per
        column (see :meth:`Page.extend_columns`), no row tuple built.
        """
        if count <= 0:
            return 0
        self._store.extend_columns(columns, count)
        self._version += 1
        return count

    def truncate(self) -> None:
        """Drop every tuple (the schema survives)."""
        self._store.clear()
        self._version += 1

    def compaction(self, victims: Sequence[Tid]) -> Tuple[List[Tid], List[Tid]]:
        """The moves that close the holes deleting ``victims`` (sorted,
        distinct TIDs) leaves, as parallel ``(sources, holes)`` lists: the
        relation shrinks by ``len(victims)`` rows, victims inside that
        tail are simply cut off, and the tail's survivors fill the holes
        before it -- so deleting everything, or only tail rows, moves
        nothing.  Changes nothing; :meth:`delete_at` applies the moves."""
        count = len(self._store)
        keep = count - len(victims)
        cut = bisect_left(victims, keep)
        if not cut:
            return [], []
        doomed = set(victims[cut:])
        sources = [tid for tid in range(keep, count) if tid not in doomed]
        return sources, list(victims[:cut])

    def delete_at(
        self, victims: Sequence[Tid], sources: Sequence[Tid], holes: Sequence[Tid]
    ) -> None:
        """Delete the rows at ``victims`` in place, given their
        :meth:`compaction`: per column, one gather of the moved values and
        one :meth:`Page.set_cells` into the holes, then the tail is cut
        off -- every page but the last stays full."""
        store = self._store
        if sources:
            for column, col in enumerate(store.columns):
                store.set_cells(column, holes, list(map(col.__getitem__, sources)))
        store.truncate(len(store) - len(victims))
        self._version += 1

    # -- access -------------------------------------------------------------------

    def fetch(self, tid: Tid) -> Row:
        """Return the tuple at ``tid`` (``IndexError`` outside
        ``0 .. cardinality - 1``)."""
        return self._store.row(tid)

    def values_at(self, column: int, tids: Sequence[Tid]) -> List[Any]:
        """Column ``column`` of the rows at ``tids``, in ``tids`` order,
        gathered straight from its buffer."""
        return list(map(self._store.columns[column].__getitem__, tids))

    def update(self, tid: Tid, values: Sequence[Any]) -> Row:
        """Overwrite the tuple at ``tid``; return the old value."""
        row = self.schema.validate(values)
        old = self._store.replace(tid, row)
        self._version += 1
        return old

    def __iter__(self) -> Iterator[Row]:
        return zip(*self._store.columns)

    def scan(self) -> Iterator[Tuple[Tid, Row]]:
        """Yield ``(tid, tuple)`` pairs in physical order."""
        return enumerate(zip(*self._store.columns))

    def value(self, row: Row, field: str) -> Any:
        """Field accessor by name (thin sugar over the schema index)."""
        return row[self.schema.index_of(field)]

    def key_of(self, field: str) -> Callable[[Row], Any]:
        """A fast key extractor for ``field`` (a C-level itemgetter)."""
        return operator.itemgetter(self.schema.index_of(field))

    # -- introspection -----------------------------------------------------------

    def storage_stats(self) -> dict:
        """Packed-layout statistics for the ``db.storage_stats()`` facade.

        Counts packed (``array``) versus object-list column buffers (one
        per column, none while the relation is empty) and sums their
        resident bytes (exact for packed buffers, pointer-estimated for
        object lists -- see :func:`repro.storage.codecs.column_bytes`).
        """
        columns = self._store.columns if len(self._store) else []
        packed = sum(map(is_packed, columns))
        total = len(columns)
        buffer_bytes = sum(map(column_bytes, columns))
        count = len(self._store)
        return {
            "pages": self.page_count,
            "tuples": count,
            "tuples_per_page": self._tuples_per_page,
            "columns": len(self.schema),
            "packed_columns": packed,
            "total_columns": total,
            "packed_fraction": (packed / total) if total else 1.0,
            "buffer_bytes": buffer_bytes,
            "bytes_per_row": (buffer_bytes / count) if count else 0.0,
            "schema_bytes_per_row": self.schema.tuple_bytes,
        }

    def __repr__(self) -> str:
        return "Relation(%r, %d tuples on %d pages)" % (
            self.name,
            self.cardinality,
            self.page_count,
        )


__all__ = ["DEFAULT_PAGE_BYTES", "Relation", "Row", "Tid"]

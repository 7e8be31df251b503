"""Pages of tuples, stored column-wise.

A :class:`Page` holds up to ``capacity`` tuples as one buffer per column.
It is the unit the paper counts -- page reads in the Section 2 fault
model, page IO on the simulated disk, spill files written a page at a
time -- but not how a relation or a disk file is stored: a
:class:`~repro.storage.relation.Relation` and a
:class:`~repro.storage.disk.DiskFile` each keep their rows in one
unbounded page (one buffer per column for all of them), and their pages
are arithmetic over positions, cut out as copies only for the readers
that walk pages.

Each column lives in a packed ``array('q')``/``array('d')`` buffer (or an
object list for strings -- see :mod:`repro.storage.codecs`), so batch
operators scan contiguous buffers instead of lists of tuple objects.  The
row interface (:meth:`add`, :meth:`extend_rows`, :attr:`tuples`, indexing,
iteration) materialises a cached row view on demand, and every value
round-trips with its exact type -- a column silently demotes itself to the
object-list fallback rather than coerce (int into a double buffer,
oversized int into int64).
"""

from __future__ import annotations

from array import array
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.storage.codecs import Column, infer_kind, make_column
from repro.storage.tuples import Schema
from repro.errors import ConfigurationError


class Page:
    """A page holding up to ``capacity`` fixed-width tuples, column-wise."""

    __slots__ = ("page_id", "capacity", "dirty", "_kinds", "_columns", "_rows", "_count")

    def __init__(
        self,
        page_id: int,
        capacity: int,
        kinds: Optional[Sequence[str]] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("page capacity must be at least one tuple")
        self.page_id = page_id
        self.capacity = capacity
        self.dirty = False
        #: Declared column kinds (from the schema); None means "infer from
        #: the first row", which keeps schema-less scratch pages working.
        self._kinds = tuple(kinds) if kinds is not None else None
        self._columns: Optional[List[Column]] = (
            [make_column(k) for k in self._kinds] if self._kinds else None
        )
        #: Cached row view; built lazily by :attr:`tuples`, maintained
        #: incrementally on append, invalidated by in-place mutation.
        self._rows: Optional[List[Tuple[Any, ...]]] = None
        self._count = 0

    @classmethod
    def wrap(
        cls,
        page_id: int,
        capacity: int,
        kinds: Optional[Sequence[str]],
        columns: Optional[List[Column]],
        count: int,
    ) -> "Page":
        """A page holding ``count`` rows given as ``columns``, which it
        takes over without copying (the caller hands it fresh buffers)."""
        page = cls(page_id, capacity, kinds)
        page._columns = columns
        page._count = count
        return page

    @classmethod
    def for_schema(cls, page_id: int, schema: Schema, page_bytes: int) -> "Page":
        """A page sized so ``page_bytes // schema.tuple_bytes`` tuples fit."""
        from repro.storage.codecs import column_kinds

        return cls(page_id, schema.tuples_per_page(page_bytes), column_kinds(schema))

    # -- contents ------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.tuples)

    def __getitem__(self, slot: int) -> Tuple[Any, ...]:
        return self.tuples[slot]

    @property
    def tuples(self) -> List[Tuple[Any, ...]]:
        """The live tuples, in slot order (do not mutate).

        A cached view zipped out of the column buffers; building it costs
        one C-level ``zip`` per page and subsequent reads are free.
        """
        rows = self._rows
        if rows is None:
            cols = self._columns
            rows = list(zip(*cols)) if self._count else []
            self._rows = rows
        return rows

    @property
    def columns(self) -> List[Column]:
        """The column buffers, in field order (do not mutate).

        Empty list while the page has never seen a row and has no
        declared kinds (the arity is unknown until then).
        """
        cols = self._columns
        return cols if cols is not None else []

    def column(self, index: int) -> Column:
        """The buffer for column ``index`` -- the batch operators' scan path."""
        return self.columns[index]

    @property
    def is_full(self) -> bool:
        return self._count >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._count

    @property
    def free_slots(self) -> int:
        return self.capacity - self._count

    # -- columnar write paths ---------------------------------------------------

    def _init_columns(self, row: Sequence[Any]) -> List[Column]:
        cols: List[Column] = [make_column(infer_kind(v)) for v in row]
        self._columns = cols
        return cols

    def _append_value(self, index: int, value: Any) -> None:
        """Append one value to one column, demoting on type mismatch."""
        col = self._columns[index]  # type: ignore[index]
        if type(col) is list:
            col.append(value)
            return
        if col.typecode == "q":
            if type(value) is int:
                try:
                    col.append(value)
                    return
                except OverflowError:
                    pass
        elif type(value) is float:
            col.append(value)
            return
        demoted = list(col)
        demoted.append(value)
        self._columns[index] = demoted  # type: ignore[index]

    def _extend_column(self, index: int, values: Sequence[Any]) -> None:
        """Bulk-append ``values`` to one column, demoting on mismatch."""
        col = self._columns[index]  # type: ignore[index]
        if type(col) is list:
            col.extend(values)
            return
        if type(values) is array and values.typecode == col.typecode:
            col.extend(values)
            return
        if col.typecode == "q":
            before = len(col)
            try:
                # array('q').extend raises on non-int and on overflow --
                # but only after having appended the valid prefix, so the
                # partial write must be rolled back before demoting.
                # (Exact bools slip through as ints; schema validation
                # rejects them upstream of every packed write path.)
                col.extend(values)
                return
            except (TypeError, OverflowError):
                del col[before:]
        else:
            # A double buffer accepts ints silently but would hand back
            # floats, so the exact-type sweep must happen up front.
            if all(type(v) is float for v in values):
                col.extend(values)
                return
        demoted = list(col)
        demoted.extend(values)
        self._columns[index] = demoted  # type: ignore[index]

    def _set_value(self, index: int, slot: int, value: Any) -> None:
        """Overwrite one cell, demoting the column on type mismatch."""
        col = self._columns[index]  # type: ignore[index]
        if type(col) is list:
            col[slot] = value
            return
        if col.typecode == "q":
            if type(value) is int:
                try:
                    col[slot] = value
                    return
                except OverflowError:
                    pass
        elif type(value) is float:
            col[slot] = value
            return
        demoted = list(col)
        demoted[slot] = value
        self._columns[index] = demoted  # type: ignore[index]

    # -- mutation ------------------------------------------------------------

    def add(self, row: Tuple[Any, ...]) -> int:
        """Append a tuple; return its slot.  Raises when full."""
        if self._count >= self.capacity:
            raise OverflowError("page %d is full" % self.page_id)
        cols = self._columns
        if cols is None:
            cols = self._init_columns(row)
        for i, value in enumerate(row):
            self._append_value(i, value)
        self._count += 1
        if self._rows is not None:
            self._rows.append(row)
        self.dirty = True
        return self._count - 1

    def extend_rows(self, rows: Sequence[Tuple[Any, ...]]) -> int:
        """Append as many of ``rows`` as fit; return how many were taken.

        The bulk analogue of :meth:`add`: the rows are transposed once
        with a C-level ``zip`` and land as one buffer ``extend`` per
        *column*, so page-at-a-time producers pay near-constant
        interpreter overhead per page.
        """
        free = self.capacity - self._count
        if free <= 0:
            return 0
        taken = rows[:free] if len(rows) > free else rows
        n = len(taken)
        if n == 0:
            return 0
        if self._columns is None:
            self._init_columns(taken[0])
        for i, values in enumerate(zip(*taken)):
            self._extend_column(i, values)
        self._count += n
        if self._rows is not None:
            self._rows.extend(taken)
        self.dirty = True
        return n

    def extend_columns(self, columns: Sequence[Column], count: int) -> int:
        """Append up to ``count`` pre-validated column slices; return taken.

        The columnar analogue of :meth:`extend_rows` -- the batch
        operators' output path.  ``columns`` must all hold at least
        ``count`` values in matching row order; packed slices are copied
        buffer-to-buffer without materialising any row tuple.
        """
        free = self.capacity - self._count
        if free <= 0 or count <= 0:
            return 0
        n = count if count <= free else free
        cols = self._columns
        if cols is None:
            if not columns:
                return 0
            self._columns = [
                make_column(c.typecode if type(c) is array else infer_kind(c[0]))
                for c in columns
            ]
        for i, src in enumerate(columns):
            self._extend_column(i, src[:n] if len(src) > n else src)
        self._count += n
        self._rows = None
        self.dirty = True
        return n

    def row(self, slot: int) -> Tuple[Any, ...]:
        """The tuple at ``slot``, read from the column buffers -- one row
        costs one row, whether or not the page's row view is cached."""
        if not 0 <= slot < self._count:
            raise IndexError("page %d has no slot %d" % (self.page_id, slot))
        return tuple([col[slot] for col in self._columns])  # type: ignore[union-attr]

    def replace(self, slot: int, row: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Overwrite ``slot``; return the previous tuple."""
        old = self.row(slot)
        for i, value in enumerate(row):
            self._set_value(i, slot, value)
        self._rows = None
        self.dirty = True
        return old

    def set_cells(
        self, index: int, slots: Sequence[int], values: Sequence[Any]
    ) -> None:
        """Overwrite column ``index`` at ``slots`` with ``values``: the
        column-wise analogue of :meth:`replace` (in-place deletion fills
        its holes through it), demoting the column on type mismatch."""
        self._rows = None
        self.dirty = True
        col = self._columns[index]  # type: ignore[index]
        if type(col) is array:
            exact = int if col.typecode == "q" else float
            if set(map(type, values)) <= {exact}:
                try:
                    for slot, value in zip(slots, values):
                        col[slot] = value
                    return
                except OverflowError:
                    pass  # an int beyond int64: demote, rewrite every cell
            col = self._columns[index] = list(col)  # type: ignore[index]
        for slot, value in zip(slots, values):
            col[slot] = value

    def truncate(self, count: int) -> None:
        """Drop every slot from ``count`` on (the tail of the page)."""
        if count < self._count:
            for col in self._columns:  # type: ignore[union-attr]
                del col[count:]
            if self._rows is not None:
                del self._rows[count:]
            self._count = count
            self.dirty = True

    def clear(self) -> None:
        self._columns = (
            [make_column(k) for k in self._kinds] if self._kinds else None
        )
        self._rows = None
        self._count = 0
        self.dirty = True

    def copy(self) -> "Page":
        """Deep-enough copy (tuples are immutable) for snapshots."""
        clone = Page.wrap(
            self.page_id, self.capacity, self._kinds,
            [col[:] for col in self._columns] if self._columns is not None else None,
            self._count,
        )
        clone.dirty = self.dirty
        return clone

    def __repr__(self) -> str:
        return "Page(id=%d, %d/%d tuples%s)" % (
            self.page_id,
            self._count,
            self.capacity,
            ", dirty" if self.dirty else "",
        )


__all__ = ["Page"]

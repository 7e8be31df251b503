"""Paged heap relations.

A :class:`Relation` is the memory-resident representation the paper's title
is about: a schema plus a list of pages of tuples.  It supports appends,
scans, page-wise iteration (what the join algorithms consume), and spilling
to / loading from a :class:`~repro.storage.disk.SimulatedDisk`.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.storage.codecs import Column, column_bytes, column_kinds, is_packed
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page
from repro.storage.tuples import Schema
from repro.errors import ConfigurationError

DEFAULT_PAGE_BYTES = 4096

Row = Tuple[Any, ...]
#: A tuple identifier: ``(page number, slot)``.
Tid = Tuple[int, int]


def _page_runs(tids: Sequence[Tid]) -> List[Tuple[int, List[int]]]:
    """``tids`` as ``(page number, slots)`` runs of consecutive same-page
    entries, so column-wise work touches each page buffer once per run."""
    runs: List[Tuple[int, List[int]]] = []
    run_page = -1
    slots: List[int] = []
    for page_no, slot in tids:
        if page_no != run_page:
            run_page = page_no
            slots = []
            runs.append((page_no, slots))
        slots.append(slot)
    return runs


class Relation:
    """A named, paged collection of fixed-width tuples."""

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
        #: Schema-driven column kinds every page of this relation packs to.
        self._kinds = column_kinds(schema)
        self._pages: List[Page] = []
        #: Incrementally maintained tuple count (``||R||``).
        self._count = 0
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
        """``|R|`` -- the relation's size in pages."""
        return len(self._pages)

    @property
    def cardinality(self) -> int:
        """``||R||`` -- the number of tuples (O(1), maintained on mutation)."""
        return self._count

    @property
    def version(self) -> int:
        """Mutation stamp for cache invalidation (bumped on every change)."""
        return self._version

    def __len__(self) -> int:
        return self.cardinality

    @property
    def pages(self) -> List[Page]:
        """The underlying pages, in order (do not mutate the list)."""
        return self._pages

    # -- mutation ---------------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> Tuple[int, int]:
        """Validate and append one tuple; return its (page, slot) TID."""
        row = self.schema.validate(values)
        return self.insert_unchecked(row)

    def insert_unchecked(self, row: Row) -> Tuple[int, int]:
        """Append a pre-validated tuple (hot path for generators/joins)."""
        if not self._pages or self._pages[-1].is_full:
            self._pages.append(
                Page(len(self._pages), self._tuples_per_page, self._kinds)
            )
        slot = self._pages[-1].add(row)
        self._count += 1
        self._version += 1
        return len(self._pages) - 1, slot

    def extend(self, rows: Iterable[Sequence[Any]]) -> int:
        """Validate and insert many tuples; return how many were added.

        Validation happens in a single :meth:`Schema.validate_batch` call
        and the rows land page-at-a-time, so a bulk load costs a few
        Python-level calls per page rather than several per row.
        """
        return self.extend_rows(self.schema.validate_batch(rows))

    def extend_rows(self, rows: Sequence[Row]) -> int:
        """Append many pre-validated tuples page-at-a-time; return count.

        The bulk analogue of :meth:`insert_unchecked` -- the batch
        executor's only output path.  ``rows`` must already be plain
        tuples matching the schema.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        n = len(rows)
        if n == 0:
            return 0
        pages = self._pages
        cap = self._tuples_per_page
        pos = 0
        while pos < n:
            if not pages or pages[-1].is_full:
                pages.append(Page(len(pages), cap, self._kinds))
            # Slice at most one page worth per round: O(n) total copying.
            pos += pages[-1].extend_rows(rows[pos:pos + cap])
        self._count += n
        self._version += 1
        return n

    def extend_columns(self, columns: Sequence[Column], count: int) -> int:
        """Append ``count`` pre-validated rows given column-wise; return count.

        The batch operators' columnar output path: column slices flow from
        input pages straight into output pages without materialising a
        single row tuple (see :meth:`Page.extend_columns`).
        """
        if count <= 0:
            return 0
        pages = self._pages
        cap = self._tuples_per_page
        kinds = self._kinds
        pos = 0
        while pos < count:
            if not pages or pages[-1].is_full:
                pages.append(Page(len(pages), cap, kinds))
            page = pages[-1]
            room = min(cap - len(page), count - pos)
            page.extend_columns(
                [c[pos:pos + room] for c in columns] if pos or room < count else columns,
                room,
            )
            pos += room
        self._count += count
        self._version += 1
        return count

    def append_page(self, page: Page) -> int:
        """Adopt a whole page of pre-validated tuples; return its count.

        When the relation's last page is full (or absent) and ``page`` has
        the native capacity, the page object is adopted directly (re-ided,
        zero per-tuple work); otherwise its tuples are folded in through
        :meth:`extend_rows`.
        """
        n = len(page)
        if n == 0:
            return 0
        if page.capacity == self._tuples_per_page and (
            not self._pages or self._pages[-1].is_full
        ):
            page.page_id = len(self._pages)
            self._pages.append(page)
            self._count += n
            self._version += 1
            return n
        return self.extend_rows(page.tuples)

    def truncate(self) -> None:
        """Drop every tuple (the schema survives)."""
        self._pages.clear()
        self._count = 0
        self._version += 1

    def compaction(self, victims: Sequence[Tid]) -> Tuple[List[Tid], List[Tid]]:
        """The moves that close the holes deleting ``victims`` (sorted,
        distinct TIDs) leaves, as parallel ``(sources, holes)`` lists: the
        relation shrinks by ``len(victims)`` rows, victims inside that
        tail are simply cut off, and the tail's survivors fill the holes
        before it -- so deleting everything, or only tail rows, moves
        nothing.  Changes nothing; :meth:`delete_at` applies the moves."""
        keep = self._count - len(victims)
        cut = bisect_left(victims, divmod(keep, self._tuples_per_page))
        if not cut:
            return [], []
        doomed = set(victims[cut:])
        tail = self.tid_range(keep, self._count)
        return [tid for tid in tail if tid not in doomed], list(victims[:cut])

    def delete_at(
        self, victims: Sequence[Tid], sources: Sequence[Tid], holes: Sequence[Tid]
    ) -> None:
        """Delete the rows at ``victims`` in place, given their
        :meth:`compaction`.  Values travel column buffer to column
        buffer, one gather and one :meth:`Page.set_cells` per touched
        page and column; every page but the last stays full, and pages
        outside the holes and the tail keep their cached row views."""
        pages = self._pages
        if sources:
            source_runs = _page_runs(sources)
            hole_runs = _page_runs(holes)
            for column in range(len(self._kinds)):
                values = self._gather(column, source_runs)
                done = 0
                for page_no, slots in hole_runs:
                    pages[page_no].set_cells(
                        column, slots, values[done:done + len(slots)]
                    )
                    done += len(slots)
        self._count -= len(victims)
        full, rest = divmod(self._count, self._tuples_per_page)
        if rest:
            pages[full].truncate(rest)
            full += 1
        del pages[full:]
        self._version += 1

    # -- access -------------------------------------------------------------------

    def fetch(self, tid: Tuple[int, int]) -> Row:
        """Return the tuple at TID ``(page, slot)``."""
        page_no, slot = tid
        return self._pages[page_no][slot]

    def tid_range(self, start: int, stop: int) -> List[Tid]:
        """TIDs of the rows at physical positions ``start .. stop - 1``
        (every page but the last is full, so position is arithmetic)."""
        cap = self._tuples_per_page
        return [divmod(position, cap) for position in range(start, stop)]

    def values_at(self, column: int, tids: Sequence[Tid]) -> List[Any]:
        """Column ``column`` of the rows at ``tids``, in ``tids`` order,
        gathered straight from the page buffers."""
        return self._gather(column, _page_runs(tids))

    def _gather(self, column: int, runs: Sequence[Tuple[int, List[int]]]) -> List[Any]:
        values: List[Any] = []
        for page_no, slots in runs:
            values.extend(map(self._pages[page_no].column(column).__getitem__, slots))
        return values

    def update(self, tid: Tuple[int, int], values: Sequence[Any]) -> Row:
        """Overwrite the tuple at ``tid``; return the old value."""
        row = self.schema.validate(values)
        page_no, slot = tid
        self._version += 1
        return self._pages[page_no].replace(slot, row)

    def __iter__(self) -> Iterator[Row]:
        for page in self._pages:
            for row in page:
                yield row

    def scan(self) -> Iterator[Tuple[Tuple[int, int], Row]]:
        """Yield ``(tid, tuple)`` pairs in physical order."""
        for page_no, page in enumerate(self._pages):
            for slot, row in enumerate(page):
                yield (page_no, slot), row

    def value(self, row: Row, field: str) -> Any:
        """Field accessor by name (thin sugar over the schema index)."""
        return row[self.schema.index_of(field)]

    def key_of(self, field: str) -> Callable[[Row], Any]:
        """A fast key extractor for ``field`` (a C-level itemgetter)."""
        return operator.itemgetter(self.schema.index_of(field))

    # -- disk interchange ------------------------------------------------------------

    def spill(self, disk: SimulatedDisk, file_name: Optional[str] = None) -> str:
        """Write every page to ``disk`` sequentially; return the file name."""
        name = file_name or ("rel:" + self.name)
        if disk.exists(name):
            disk.delete(name)
        disk.create(name)
        for i, page in enumerate(self._pages):
            disk.append(name, page.copy(), sequential=None if i == 0 else True)
        return name

    @classmethod
    def load(
        cls,
        disk: SimulatedDisk,
        file_name: str,
        name: str,
        schema: Schema,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ) -> "Relation":
        """Read a spilled relation back from ``disk`` (sequential IO)."""
        rel = cls(name, schema, page_bytes)
        for page in disk.scan(file_name):
            # Copy before adopting: the disk hands back its stored page
            # objects, which must not alias the relation's live pages.
            rel.append_page(page.copy())
        return rel

    # -- introspection -----------------------------------------------------------

    def storage_stats(self) -> dict:
        """Packed-layout statistics for the ``db.storage_stats()`` facade.

        Counts packed (``array``) versus object-list column buffers across
        all pages and sums their resident bytes (exact for packed buffers,
        pointer-estimated for object lists -- see
        :func:`repro.storage.codecs.column_bytes`).
        """
        packed = 0
        total = 0
        buffer_bytes = 0
        for page in self._pages:
            for col in page.columns:
                total += 1
                if is_packed(col):
                    packed += 1
                buffer_bytes += column_bytes(col)
        return {
            "pages": self.page_count,
            "tuples": self._count,
            "tuples_per_page": self._tuples_per_page,
            "columns": len(self.schema),
            "packed_columns": packed,
            "total_columns": total,
            "packed_fraction": (packed / total) if total else 1.0,
            "buffer_bytes": buffer_bytes,
            "bytes_per_row": (buffer_bytes / self._count) if self._count else 0.0,
            "schema_bytes_per_row": self.schema.tuple_bytes,
        }

    def __repr__(self) -> str:
        return "Relation(%r, %d tuples on %d pages)" % (
            self.name,
            self.cardinality,
            self.page_count,
        )


__all__ = ["DEFAULT_PAGE_BYTES", "Relation", "Row", "Tid"]

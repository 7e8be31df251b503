"""A simulated disk charging the paper's two IO costs.

The paper models storage with exactly two constants -- ``IOseq`` (10 ms) and
``IOrand`` (25 ms) -- so the disk here does the minimum faithful thing:
keep named files of pages, tally sequential vs random transfers into an
:class:`~repro.cost.counters.OperationCounters`, and optionally advance a
:class:`~repro.sim.clock.SimulatedClock` by the corresponding Table 2 time.

A file is stored the way a relation is: one buffer per column for all
its rows, plus the row position each page ends at.  Page ``i`` is the
rows between the ends of pages ``i - 1`` and ``i``, so pages are
arithmetic, cut out as copies only for the readers that walk pages
(:meth:`SimulatedDisk.read`, :meth:`SimulatedDisk.scan`).  Writers append
whole runs of rows (:meth:`SimulatedDisk.append_rows`), and a page is
closed -- and charged -- each time the file's tail crosses a page
boundary; the rows past the last boundary are the writer's output buffer,
not yet on disk.  :meth:`SimulatedDisk.read_file` hands a whole file back
as its buffers.

Sequentiality is determined the way a real drive would see it: an access is
sequential when it touches the page immediately after the previous access
*on this device*; anything else pays the random (seek + latency) price.
Callers that know better (e.g. the hybrid-hash spill with a single output
buffer) can force the classification.  A run of ``k`` pages is charged in
one counter call and leaves the head, and the clock, where ``k`` single
transfers would have.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cost.counters import OperationCounters
from repro.cost.parameters import CostParameters
from repro.errors import StateError
from repro.sim.clock import SimulatedClock
from repro.storage.codecs import Column
from repro.storage.page import Page


class DiskFile:
    """A named file on a :class:`SimulatedDisk`: its rows as one buffer
    per column and the row position each of its pages ends at."""

    __slots__ = ("name", "rows", "ends")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Every row written, sealed pages and the open tail, in order.
        self.rows = Page(0, 1 << 62)
        #: ``ends[i]`` is one past the last row of page ``i``.
        self.ends = array("q")

    @property
    def sealed(self) -> int:
        """Rows on disk: everything before the open tail."""
        ends = self.ends
        return ends[-1] if ends else 0

    def bounds(self, index: int) -> Tuple[int, int]:
        """The row positions ``start, stop`` of page ``index``."""
        if not 0 <= index < len(self.ends):
            raise IndexError("page %d out of range for %r" % (index, self.name))
        return (self.ends[index - 1] if index else 0), self.ends[index]

    def page(self, index: int) -> Page:
        """A copy of page ``index``: one slice per column buffer."""
        start, stop = self.bounds(index)
        return Page.wrap(
            index,
            max(1, stop - start),
            None,
            [col[start:stop] for col in self.rows.columns] or None,
            stop - start,
        )

    def __len__(self) -> int:
        return len(self.ends)

    def __repr__(self) -> str:
        return "DiskFile(%r, %d pages)" % (self.name, len(self.ends))


class SimulatedDisk:
    """Page-granularity storage with sequential/random IO accounting."""

    def __init__(
        self,
        counters: Optional[OperationCounters] = None,
        params: Optional[CostParameters] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.counters = counters if counters is not None else OperationCounters()
        self.params = params
        self.clock = clock
        self._files: Dict[str, DiskFile] = {}
        #: (file name, page index) of the most recent transfer, for the
        #: sequentiality heuristic.
        self._head: Optional[Tuple[str, int]] = None

    # -- file namespace --------------------------------------------------------

    def create(self, name: str) -> DiskFile:
        """Create an empty file; raises if the name is taken."""
        if name in self._files:
            raise FileExistsError("disk file %r already exists" % name)
        f = DiskFile(name)
        self._files[name] = f
        return f

    def open(self, name: str) -> DiskFile:
        """Look up an existing file."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError("no disk file named %r" % name) from None

    def ensure(self, name: str) -> DiskFile:
        """Open the file, creating it if needed."""
        if name in self._files:
            return self._files[name]
        return self.create(name)

    def delete(self, name: str) -> None:
        """Remove a file and its pages."""
        if name not in self._files:
            raise FileNotFoundError("no disk file named %r" % name)
        del self._files[name]
        if self._head and self._head[0] == name:
            self._head = None

    def exists(self, name: str) -> bool:
        return name in self._files

    def files(self) -> List[str]:
        return sorted(self._files)

    # -- IO ---------------------------------------------------------------------

    def _charge(
        self, name: str, index: int, sequential: Optional[bool], pages: int = 1
    ) -> None:
        """Charge the transfer of pages ``index .. index + pages - 1`` of
        ``name``: each forced to ``sequential`` when given, else the first
        by the head rule and the rest as the sequential run they are."""
        if sequential is None:
            first = self._head == (name, index - 1) or (
                self._head is None and index == 0
            )
            seq = pages - 1 + first
        else:
            seq = pages if sequential else 0
        if seq:
            self.counters.io_sequential(seq)
        if seq < pages:
            self.counters.io_random(pages - seq)
        if self.clock is not None and self.params is not None:
            # Only a run's first page can be random unless all are.
            for i in range(pages):
                self.clock.advance(
                    self.params.io_rand if i < pages - seq else self.params.io_seq
                )
        self._head = (name, index + pages - 1)

    def _seal(
        self, name: str, f: DiskFile, stops: Sequence[int],
        sequential: Optional[bool],
    ) -> None:
        """Close pages ending at the row positions ``stops`` (ascending)
        and charge their writes -- the one point a page reaches disk."""
        index = len(f.ends)
        f.ends.extend(stops)
        self._charge(name, index, sequential, len(stops))

    def append(
        self, name: str, page: Page, sequential: Optional[bool] = None
    ) -> int:
        """Write ``page`` at the end of ``name``; return its index.  The
        page is copied, not kept, and closes any open tail with it."""
        f = self.ensure(name)
        index = len(f.ends)
        f.rows.extend_columns(page.columns, len(page))
        self._seal(name, f, (len(f.rows),), sequential)
        return index

    def append_rows(
        self,
        name: str,
        columns: Sequence[Column],
        count: int,
        tuples_per_page: int,
        sequential: Optional[bool] = None,
    ) -> None:
        """Append ``count`` rows, given as parallel column slices, to the
        tail of ``name``, closing a page at every ``tuples_per_page``
        boundary the tail crosses; the pages closed are charged as one
        run.  Rows short of the next boundary stay in the open tail."""
        f = self.ensure(name)
        f.rows.extend_columns(columns, count)
        stops = range(f.sealed + tuples_per_page, len(f.rows) + 1, tuples_per_page)
        if stops:
            self._seal(name, f, stops, sequential)

    def close_tail(self, name: str, sequential: Optional[bool] = None) -> None:
        """Close the open tail of ``name``, if any, as its last page."""
        f = self.open(name)
        if len(f.rows) > f.sealed:
            self._seal(name, f, (len(f.rows),), sequential)

    def write(
        self, name: str, index: int, page: Page, sequential: Optional[bool] = None
    ) -> None:
        """Overwrite page ``index`` of ``name`` in place (``page`` may hold
        a different number of rows; the later pages move with it)."""
        f = self.open(name)
        start, stop = f.bounds(index)
        old = f.rows.columns
        rows = Page(0, f.rows.capacity)
        rows.extend_columns([col[:start] for col in old], start)
        rows.extend_columns(page.columns, len(page))
        rows.extend_columns([col[stop:] for col in old], len(f.rows) - stop)
        f.rows = rows
        shift = len(page) - (stop - start)
        for i in range(index, len(f.ends)):
            f.ends[i] += shift
        self._charge(name, index, sequential)

    def read(
        self, name: str, index: int, sequential: Optional[bool] = None
    ) -> Page:
        """Read page ``index`` of ``name`` (a copy of its rows)."""
        page = self.open(name).page(index)
        self._charge(name, index, sequential)
        return page

    def scan(self, name: str) -> Iterator[Page]:
        """Yield every page of ``name`` with sequential-IO accounting."""
        f = self.open(name)
        for i in range(len(f.ends)):
            # First page goes through the head heuristic (a seek unless the
            # head happens to be parked just before it); the rest are
            # sequential by construction.
            yield self.read(name, i, sequential=None if i == 0 else True)

    def read_file(self, name: str) -> Page:
        """Read every page of ``name`` at once: the first page is charged
        by the head rule, the rest as sequential, in one call.  Returns
        the file's own buffers, not a copy (do not mutate).  A file with
        an open tail cannot be read whole."""
        f = self.open(name)
        if len(f.rows) > f.sealed:
            raise StateError("disk file %r has an unwritten tail" % name)
        if f.ends:
            self._charge(name, 0, None, len(f.ends))
        return f.rows

    def page_count(self, name: str) -> int:
        """Pages on disk; rows in the open tail are not a page yet."""
        return len(self.open(name).ends)

    def __repr__(self) -> str:
        return "SimulatedDisk(%d files, ioseq=%d, iorand=%d)" % (
            len(self._files),
            self.counters.sequential_ios,
            self.counters.random_ios,
        )


__all__ = ["DiskFile", "SimulatedDisk"]

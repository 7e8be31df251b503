"""A simulated-disk file against a list-of-pages model.

A :class:`~repro.storage.disk.DiskFile` keeps its rows as one buffer per
column plus the row position each page ends at; the rows past the last
end are a spill writer's output buffer, not yet a page.  Its IO is
charged in runs -- a bulk append closes and charges every page its tail
crosses in one call, a whole-file read charges every page in one call --
and must land exactly where one transfer per page would have.  This
Hypothesis state machine drives every path that writes or reads a file
(``append`` of full and partial pages, :class:`SpillWriter` ``write`` /
``write_columns`` / ``close`` over one to four buckets, ``read``,
``scan``, ``read_file``, ``write`` in place, ``delete``) beside a plain
``{name: [page rows]}`` model that charges one page at a time, and
checks after every step the contents with their exact types and column
kinds, the page counts, both IO tallies, the moves, the simulated clock
and the disk head.

``--stateful-examples N`` (tests/conftest.py) sets the example budget.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.cost.counters import OperationCounters
from repro.cost.parameters import TABLE2_DEFAULTS
from repro.errors import StateError
from repro.join.partition import SpillWriter, read_bucket, read_bucket_columns
from repro.sim.clock import SimulatedClock
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page

#: Rows per page, for pages appended whole and for the spill writer.
TPP = 3
#: Files written a page at a time, and the spill writer's bucket files.
PAGE_FILES = ("a", "b")
BUCKET_FILES = ("w0", "w1", "w2", "w3")

# Ints beyond int64 demote the first column, ints demote the second.
INTS = st.one_of(
    st.integers(-(2 ** 63), 2 ** 63 - 1), st.integers(-(2 ** 70), 2 ** 70)
)
FLOATS = st.one_of(st.floats(allow_nan=False), st.integers(-(2 ** 70), 2 ** 70))
ROWS = st.tuples(INTS, FLOATS, st.text(max_size=3))
SEQUENTIAL = st.sampled_from([None, True, False])


def typed(rows):
    """Each cell paired with its exact type."""
    return [tuple((type(v), v) for v in row) for row in rows]


def kinds_of(values):
    """The kinds a column holding ``values`` (in order) is stored as: the
    first value's, unless a later one does not fit it."""
    if not values:
        return None
    exact = type(values[0])
    kind = {int: "q", float: "d"}.get(exact, "o")
    if kind == "q" and not all(
        type(v) is int and -(2 ** 63) <= v < 2 ** 63 for v in values
    ):
        return "o"
    if kind == "d" and not all(type(v) is float for v in values):
        return "o"
    return kind


def file_kinds(rows):
    return [kinds_of(list(col)) for col in zip(*rows)] if rows else []


def buffer_kinds(columns):
    return [getattr(c, "typecode", "o") for c in columns]


def as_columns(rows, packed):
    """``rows`` column-wise: packed buffers where asked and possible."""
    columns = []
    for kind, values in zip("qdo", zip(*rows)):
        exact = {"q": int, "d": float}.get(kind)
        if packed and exact and all(type(v) is exact for v in values):
            try:
                columns.append(array(kind, values))
                continue
            except OverflowError:
                pass
        columns.append(list(values))
    return columns


def page_of(rows, page_id=0):
    page = Page(page_id, TPP)
    page.extend_rows(rows)
    return page


class DiskMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.counters = OperationCounters()
        self.clock = SimulatedClock()
        self.disk = SimulatedDisk(self.counters, TABLE2_DEFAULTS, self.clock)
        #: name -> closed pages, each a list of rows
        self.files = {}
        #: name -> rows of the open tail (spill-writer files only)
        self.tails = {}
        self.head = None
        self.ios = {"sequential_ios": 0, "random_ios": 0}
        self.now = 0.0
        self.moves = 0
        self.writer = None
        self.bucket_names = []

    # -- the model's one-page-at-a-time charge ---------------------------------

    def charge(self, name, index, sequential):
        if sequential is None:
            sequential = self.head == (name, index - 1) or (
                self.head is None and index == 0
            )
        if sequential:
            self.ios["sequential_ios"] += 1
            self.now += TABLE2_DEFAULTS.io_seq
        else:
            self.ios["random_ios"] += 1
            self.now += TABLE2_DEFAULTS.io_rand
        self.head = (name, index)

    def close_page(self, name, rows, sequential):
        self.files[name].append(rows)
        self.charge(name, len(self.files[name]) - 1, sequential)

    def closed(self):
        """Files no writer holds open."""
        return sorted(n for n in self.files if n not in self.tails)

    # -- pages written whole --------------------------------------------------

    @rule(
        name=st.sampled_from(PAGE_FILES),
        rows=st.lists(ROWS, max_size=TPP),
        sequential=SEQUENTIAL,
    )
    def append(self, name, rows, sequential):
        self.files.setdefault(name, [])
        index = self.disk.append(name, page_of(rows), sequential)
        assert index == len(self.files[name])
        self.close_page(name, list(rows), sequential)

    # -- the spill writer ------------------------------------------------------

    @precondition(lambda self: self.writer is None)
    @rule(buckets=st.integers(1, 4))
    def open_writer(self, buckets):
        self.bucket_names = list(BUCKET_FILES[:buckets])
        self.writer = SpillWriter(
            self.disk, self.bucket_names, TPP, self.counters
        )
        for name in self.bucket_names:
            if self.head and self.head[0] == name:
                self.head = None
            self.files[name] = []
            self.tails[name] = []

    def spill(self, bucket, rows):
        """The model of a writer taking ``rows`` for ``bucket``."""
        name = self.bucket_names[bucket]
        tail = self.tails[name]
        tail.extend(rows)
        self.moves += len(rows)
        while len(tail) >= TPP:
            self.close_page(name, tail[:TPP], len(self.bucket_names) == 1)
            del tail[:TPP]

    @precondition(lambda self: self.writer is not None)
    @rule(bucket=st.integers(0, 3), row=ROWS)
    def writer_write(self, bucket, row):
        bucket %= len(self.bucket_names)
        self.writer.write(bucket, row)
        self.spill(bucket, [row])

    @precondition(lambda self: self.writer is not None)
    @rule(
        bucket=st.integers(0, 3),
        rows=st.lists(ROWS, max_size=3 * TPP + 1),
        packed=st.booleans(),
    )
    def writer_write_columns(self, bucket, rows, packed):
        bucket %= len(self.bucket_names)
        self.writer.write_columns(bucket, as_columns(rows, packed), len(rows))
        self.spill(bucket, rows)

    @precondition(lambda self: self.writer is not None)
    @rule()
    def writer_close(self):
        assert self.writer.close() == self.bucket_names
        for name in self.bucket_names:
            tail = self.tails.pop(name)
            if tail:
                self.close_page(name, tail, len(self.bucket_names) == 1)
        self.writer = None

    # -- reads, writes in place, deletion ----------------------------------------

    @rule(data=st.data(), sequential=SEQUENTIAL)
    def read(self, data, sequential):
        names = [n for n in sorted(self.files) if self.files[n]]
        if not names:
            return
        name = data.draw(st.sampled_from(names))
        index = data.draw(st.integers(0, len(self.files[name]) - 1))
        page = self.disk.read(name, index, sequential)
        self.charge(name, index, sequential)
        assert typed(page.tuples) == typed(self.files[name][index])

    @rule(data=st.data())
    def scan(self, data):
        names = sorted(self.files)
        if not names:
            return
        name = data.draw(st.sampled_from(names))
        pages = list(self.disk.scan(name))
        for index, rows in enumerate(self.files[name]):
            self.charge(name, index, None if index == 0 else True)
        assert [typed(p.tuples) for p in pages] == [
            typed(rows) for rows in self.files[name]
        ]

    @rule(data=st.data(), columns=st.booleans())
    def read_file(self, data, columns):
        names = sorted(self.files)
        if not names:
            return
        name = data.draw(st.sampled_from(names))
        if self.tails.get(name):
            with pytest.raises(StateError):
                self.disk.read_file(name)
            return
        if columns:
            bucket = read_bucket_columns(self.disk, name)
            rows = bucket.tuples
            assert buffer_kinds(bucket.columns) == file_kinds(rows)
        else:
            rows = read_bucket(self.disk, name)
        for index in range(len(self.files[name])):
            self.charge(name, index, None if index == 0 else True)
        assert typed(rows) == typed(
            [row for page in self.files[name] for row in page]
        )

    @rule(data=st.data(), rows=st.lists(ROWS, max_size=TPP), sequential=SEQUENTIAL)
    def write(self, data, rows, sequential):
        names = [n for n in sorted(self.files) if self.files[n]]
        if not names:
            return
        name = data.draw(st.sampled_from(names))
        index = data.draw(st.integers(0, len(self.files[name]) - 1))
        self.disk.write(name, index, page_of(rows), sequential)
        self.files[name][index] = list(rows)
        self.charge(name, index, sequential)

    @rule(data=st.data())
    def delete(self, data):
        names = self.closed()
        if not names:
            return
        name = data.draw(st.sampled_from(names))
        self.disk.delete(name)
        del self.files[name]
        if self.head and self.head[0] == name:
            self.head = None

    # -- after every step -------------------------------------------------------

    @invariant()
    def agrees_with_the_model(self):
        assert self.disk.files() == sorted(self.files)
        for name, pages in self.files.items():
            f = self.disk.open(name)
            assert self.disk.page_count(name) == len(pages)
            for index, rows in enumerate(pages):
                assert typed(f.page(index).tuples) == typed(rows)
            everything = [row for page in pages for row in page]
            everything += self.tails.get(name, [])
            assert typed(f.rows.tuples) == typed(everything)
            assert buffer_kinds(f.rows.columns) == file_kinds(everything)
        counts = self.counters.as_dict()
        assert {k: counts[k] for k in self.ios} == self.ios
        assert counts["moves"] == self.moves
        assert self.clock.now == self.now
        assert self.disk._head == self.head

    def teardown(self):
        if self.writer is not None:
            self.writer.close()


def test_disk_files_agree_with_list_of_pages_model(request):
    run_state_machine_as_test(
        DiskMachine,
        settings=settings(
            max_examples=request.config.getoption("--stateful-examples"),
            stateful_step_count=30,
            deadline=None,
        ),
    )


def test_first_read_after_deleting_the_heads_file_is_sequential():
    """Phase 2 deletes the bucket pair it read; the head was parked on
    the last one, so the next bucket's first page is a sequential read."""
    disk = SimulatedDisk(OperationCounters())
    writer = SpillWriter(disk, ["r0", "r1"], TPP, disk.counters)
    writer.write_columns(0, [array("q", range(7))], 7)
    writer.write_columns(1, [array("q", range(5))], 5)
    writer.close()  # the head is parked on r1's last page
    assert disk.counters.random_ios == 5 and disk.counters.sequential_ios == 0
    assert read_bucket(disk, "r1") == [(v,) for v in range(5)]
    assert disk.counters.random_ios == 6 and disk.counters.sequential_ios == 1
    disk.delete("r1")
    assert len(read_bucket_columns(disk, "r0")) == 7
    assert disk.counters.random_ios == 6 and disk.counters.sequential_ios == 4

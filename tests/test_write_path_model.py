"""The write and statistics path against a model: generated DML and DDL.

A ``hypothesis`` state machine drives ``insert`` / ``insert_many`` /
``delete_where`` / ``create_index`` / ``drop_index`` / ``analyze`` on one
table that starts with all four Section 2 access methods on it, beside a
plain list of rows.  After every step the heap, every index and the
catalog must agree with the list (see ``WritePathMachine.agrees``).

``delete_where`` maintains its indexes entry by entry or rebuilds them,
whichever takes fewer index operations, so the victim sets are shaped to
land on both sides of that choice: one row, tail rows only (nothing moves
-- the shape the performance ledger issues), about a quarter, more than
half, and everything.

``--stateful-examples N`` (tests/conftest.py) sets the example budget; the
nightly CI job raises it.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import DataType, MainMemoryDatabase
from repro.storage.catalog import ColumnStats, RelationStats

COLUMNS = ("serial", "seven", "three", "spread", "mark")
KINDS = ("btree", "avl", "hash", "paged-binary")
#: 5 integer columns of 8 bytes: three rows to a page, so a few dozen rows
#: already span many pages and most deletes cross page boundaries.
PAGE_BYTES = 120
MARK = -1

SHARES = ("one", "tail", "quarter", "front", "most", "all")


def pick_victims(share: str, n: int, rng: random.Random) -> list:
    """Physical positions of a victim set of the named shape."""
    if share == "one":
        return [rng.randrange(n)]
    if share == "tail":
        return list(range(n - rng.randint(1, min(n, 7)), n))
    if share == "quarter":
        return rng.sample(range(n), max(1, n // 4))
    if share == "front":
        # Contiguous from the start: every victim is a hole, the most
        # moves a delete of that size can need.
        return list(range(max(1, (2 * n) // 5)))
    if share == "most":
        return rng.sample(range(n), max(1, (3 * n) // 5))
    return list(range(n))


def model_stats(rows: list, page_count: int) -> RelationStats:
    columns = {}
    for i, name in enumerate(COLUMNS):
        values = [row[i] for row in rows]
        columns[name] = (
            ColumnStats(len(set(values)), min(values), max(values))
            if values else ColumnStats()
        )
    return RelationStats(len(rows), page_count, columns)


class WritePathMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.db = MainMemoryDatabase(page_bytes=PAGE_BYTES)
        self.rel = self.db.create_table(
            "t", [(name, DataType.INTEGER) for name in COLUMNS]
        )
        self.serial = 0
        self.rows: list = []
        self.db.insert_many("t", [self.fresh_row(0) for _ in range(20)])
        for column, kind in zip(COLUMNS, KINDS):
            self.db.create_index("t", column, kind=kind)
        self.epoch = self.db.catalog.access_epoch("t")
        self.version = self.rel.version

    def fresh_row(self, spread: int) -> tuple:
        s = self.serial
        self.serial += 1
        row = (s, s % 7, s % 3, spread, 0)
        self.rows.append(row)
        return row

    def wrote(self) -> None:
        """Every mutation moves the version forward; none moves the
        access-path epoch (the DDL rules account for theirs)."""
        assert self.rel.version > self.version
        self.version = self.rel.version

    # -- DML -----------------------------------------------------------------

    @rule(spread=st.integers(-5, 5))
    def insert(self, spread):
        row = self.fresh_row(spread)
        tid = self.db.insert("t", row)
        assert self.rel.fetch(tid) == row
        self.wrote()

    @rule(spreads=st.lists(st.integers(-5, 5), max_size=12))
    def insert_many(self, spreads):
        batch = [self.fresh_row(spread) for spread in spreads]
        assert self.db.insert_many("t", batch) == len(batch)
        if batch:
            self.wrote()

    @rule(spreads=st.lists(st.integers(-5, 5), min_size=1, max_size=8),
          bad_at=st.integers(0, 7))
    def insert_many_rejects_whole_batch(self, spreads, bad_at):
        good = [(10**6 + i, 0, 0, spread, 0) for i, spread in enumerate(spreads)]
        good.insert(min(bad_at, len(good)), (1, 2, "three", 4, 5))
        with pytest.raises(TypeError):
            self.db.insert_many("t", good)
        assert self.rel.version == self.version

    @precondition(lambda self: self.rows)
    @rule(share=st.sampled_from(SHARES), seed=st.integers(0, 2**16))
    def delete_marked(self, share, seed):
        """Mark a victim set of a chosen shape in the ``mark`` column, then
        delete it by that column (a mask scan: it carries no index here)."""
        n = self.rel.cardinality
        doomed = pick_victims(share, n, random.Random(seed))
        if "mark" in self.db.catalog.indexes_on("t"):
            # The facade has no UPDATE; re-marking rows under a live index
            # on ``mark`` would leave it stale.
            self.db.drop_index("t", "mark")
            self.epoch += 1
        for tid in doomed:
            row = self.rel.fetch(tid)
            assert self.rel.update(tid, row[:4] + (MARK,)) == row
            self.rows.remove(row)
        self.wrote()
        assert self.db.delete_where("t", "mark", MARK) == len(doomed)
        self.wrote()

    @precondition(lambda self: self.rows)
    @rule(column=st.sampled_from(COLUMNS[:4]), seed=st.integers(0, 2**16))
    def delete_by_value(self, column, seed):
        """Delete by a value that occurs, on a column that may be indexed
        (index probe) or not (mask scan)."""
        col = COLUMNS.index(column)
        value = random.Random(seed).choice(self.rows)[col]
        doomed = [row for row in self.rows if row[col] == value]
        self.rows = [row for row in self.rows if row[col] != value]
        assert self.db.delete_where("t", column, value) == len(doomed)
        self.wrote()

    @rule(value=st.integers(100, 200))
    def delete_nothing(self, value):
        assert self.db.delete_where("t", "seven", value) == 0
        assert self.rel.version == self.version

    # -- DDL and statistics -----------------------------------------------------

    @precondition(lambda self: self.db.catalog.indexes_on("t"))
    @rule(seed=st.integers(0, 2**16))
    def drop_index(self, seed):
        column = random.Random(seed).choice(sorted(self.db.catalog.indexes_on("t")))
        self.db.drop_index("t", column)
        self.epoch += 1

    @precondition(lambda self: len(self.db.catalog.indexes_on("t")) < len(COLUMNS))
    @rule(seed=st.integers(0, 2**16), kind=st.sampled_from(KINDS))
    def create_index(self, seed, kind):
        free = sorted(set(COLUMNS) - set(self.db.catalog.indexes_on("t")))
        self.db.create_index("t", random.Random(seed).choice(free), kind=kind)
        self.epoch += 1

    @rule()
    def analyze(self):
        before = self.db.catalog.stats_epoch("t")
        self.db.analyze("t")
        assert self.db.catalog.stats_epoch("t") == before + 1
        assert self.db.catalog.stats("t") == model_stats(
            self.rows, self.rel.page_count
        )

    # -- what must hold after every step ------------------------------------------

    @invariant()
    def agrees(self):
        rel = self.rel
        heap = dict(rel.scan())
        assert Counter(heap.values()) == Counter(self.rows)
        assert rel.cardinality == len(self.rows)
        # Every page but the last is full, and there is no empty page.
        assert [len(page) for page in rel.pages[:-1]] == (
            [rel.tuples_per_page] * (rel.page_count - 1)
        )
        assert all(len(page) for page in rel.pages[-1:])
        assert rel.storage_stats()["packed_fraction"] == 1.0
        assert self.db.catalog.access_epoch("t") == self.epoch
        for column, index in self.db.catalog.indexes_on("t").items():
            col = COLUMNS.index(column)
            check = getattr(index, "check_invariants", None)
            if check is not None:
                check()
            entries = list(index.items())
            # Each entry's TID dereferences to a row with that key, and
            # each row is entered exactly once.
            assert all(heap[tid][col] == key for key, tid in entries), column
            assert sorted(tid for _, tid in entries) == sorted(heap), column
            assert len(index) == len(heap)
            if self.rows:
                key = self.rows[len(self.rows) // 2][col]
                assert sorted(self.db.lookup("t", column, key)) == sorted(
                    row for row in self.rows if row[col] == key
                )


def test_write_path_agrees_with_model(request):
    run_state_machine_as_test(
        WritePathMachine,
        settings=settings(
            max_examples=request.config.getoption("--stateful-examples"),
            stateful_step_count=30,
            deadline=None,
        ),
    )


@pytest.mark.parametrize("share", SHARES)
def test_victim_shapes_reach_both_index_strategies(share):
    """The shapes above are not all on one side of delete_where's choice:
    count what each does to a B+-tree on a table big enough to tell."""
    n = 240
    db = MainMemoryDatabase(page_bytes=PAGE_BYTES)
    rel = db.create_table("t", [(name, DataType.INTEGER) for name in COLUMNS])
    doomed = set(pick_victims(share, n, random.Random(5)))
    rel.extend_rows(
        [(i, i % 7, i % 3, 0, MARK if i in doomed else 0) for i in range(n)]
    )
    db.create_index("t", "serial", kind="btree")
    index = db.catalog.index("t", "serial")
    assert db.delete_where("t", "mark", MARK) == len(doomed)
    rebuilt = db.catalog.index("t", "serial") is not index
    assert rebuilt == (share in ("front", "most", "all"))
    assert sorted(db.catalog.index("t", "serial").items()) == sorted(
        (row[0], tid) for tid, row in rel.scan()
    )

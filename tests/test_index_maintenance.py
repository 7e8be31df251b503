"""Executable-index maintenance under random DML, and DDL plan invalidation.

The Section 2 access methods are live secondary indexes here: every
``db.insert`` / ``db.delete_where`` must keep them synchronised with the
heap.  These property tests drive a random DML mix against a table
carrying a B+-tree, an AVL tree, and a hash index at once, checking
after every step that

* tree invariants still hold (``check_invariants``),
* every index lookup agrees with a full scan of the heap, and
* ordered indexes return range scans identical to the sorted truth.

A second group pins the satellite-2 contract: creating or dropping an
index is a *plan-shape* change, so cached subplans for that table must
become unaddressable (access-path epochs in the plan fingerprints).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.btree import BPlusTree
from repro.core.database import MainMemoryDatabase
from repro.cost.counters import OperationCounters
from repro.errors import ConfigurationError
from repro.operators.selection import Comparison
from repro.planner.query import Query
from repro.storage.tuples import DataType
from tests.test_btree import reference_insert, tree_state


ORDERED_KINDS = ("btree", "avl")


def multi_index_db(rows=()):
    """One table, three live indexes: btree(key), avl(payload), hash(key2)."""
    db = MainMemoryDatabase()
    db.create_table(
        "t",
        [
            ("key", DataType.INTEGER),
            ("payload", DataType.INTEGER),
            ("key2", DataType.INTEGER),
        ],
    )
    for row in rows:
        db.insert("t", row)
    db.create_index("t", "key", kind="btree")
    db.create_index("t", "payload", kind="avl")
    db.create_index("t", "key2", kind="hash")
    return db


def heap_rows(db):
    return list(db.table("t"))


def assert_indexes_consistent(db):
    rows = heap_rows(db)
    for column, index in db.catalog.indexes_on("t").items():
        col = db.table("t").schema.index_of(column)
        check = getattr(index, "check_invariants", None)
        if check is not None:
            check()
        assert len(index) == len(rows)
        for value in {r[col] for r in rows}:
            found = sorted(db.lookup("t", column, value))
            truth = sorted(r for r in rows if r[col] == value)
            assert found == truth, (column, value)
        if index.supports_range_scan and rows:
            values = sorted(r[col] for r in rows)
            lo, hi = values[len(values) // 4], values[(3 * len(values)) // 4]
            got = sorted(db.range_lookup("t", column, lo, hi))
            want = sorted(r for r in rows if lo <= r[col] <= hi)
            assert got == want, (column, lo, hi)


# ---------------------------------------------------------------------------
# Random DML property tests
# ---------------------------------------------------------------------------


dml_steps = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 15)),
    min_size=1,
    max_size=30,
)


class TestRandomDML:
    @settings(max_examples=25, deadline=None)
    @given(steps=dml_steps)
    def test_indexes_track_heap_through_dml(self, steps):
        db = multi_index_db(rows=[(k, k * 3, k % 5) for k in range(12)])
        serial = 100
        for op, key in steps:
            if op == "insert":
                db.insert("t", (key, serial, key % 5))
                serial += 1
            else:
                db.delete_where("t", "key", key)
        assert_indexes_consistent(db)

    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
        doomed=st.integers(-50, 50),
    )
    def test_delete_where_drops_every_match(self, keys, doomed):
        db = multi_index_db(rows=[(k, i, abs(k) % 7) for i, k in enumerate(keys)])
        removed = db.delete_where("t", "key", doomed)
        assert removed == keys.count(doomed)
        assert db.lookup("t", "key", doomed) == []
        assert_indexes_consistent(db)

    def test_interleaved_dml_long_run(self):
        rng = random.Random(2026)
        db = multi_index_db()
        for step in range(200):
            if rng.random() < 0.7 or db.table("t").cardinality == 0:
                db.insert("t", (rng.randrange(25), step, step % 9))
            else:
                db.delete_where("t", "key", rng.randrange(25))
            if step % 40 == 39:
                assert_indexes_consistent(db)
        assert_indexes_consistent(db)

    @pytest.mark.parametrize("kind", ORDERED_KINDS)
    def test_ordered_index_scan_matches_sorted_heap(self, kind):
        rng = random.Random(7)
        db = MainMemoryDatabase()
        db.create_table("t", [("key", DataType.INTEGER)])
        keys = [rng.randrange(100) for _ in range(80)]
        for k in keys:
            db.insert("t", (k,))
        db.create_index("t", "key", kind=kind)
        got = [r[0] for r in db.range_lookup("t", "key", -1, 101)]
        assert got == sorted(keys)


# ---------------------------------------------------------------------------
# Index DDL must invalidate cached subplans (access-path epochs)
# ---------------------------------------------------------------------------


QUERY = Query(tables=["t"], predicates=[("t", Comparison("key", "<", 40))])


def seeded_db():
    db = MainMemoryDatabase()
    db.create_table(
        "t", [("key", DataType.INTEGER), ("payload", DataType.INTEGER)]
    )
    for i in range(120):
        db.insert("t", (i, i))
    db.analyze()
    return db


class TestIndexDDLInvalidation:
    def test_create_index_invalidates_cached_plans(self):
        db = seeded_db()
        first = sorted(db.execute(QUERY))
        assert sorted(db.execute(QUERY)) == first
        assert db.reuse_stats()["hits"] >= 1
        invalidations = db.reuse_stats()["invalidations"]
        db.create_index("t", "key", kind="btree")
        assert db.reuse_stats()["invalidations"] > invalidations
        # Replans (now index-eligible) and still answers correctly.
        assert sorted(db.execute(QUERY)) == first

    def test_drop_index_invalidates_cached_plans(self):
        db = seeded_db()
        db.create_index("t", "key", kind="btree")
        first = sorted(db.execute(QUERY))
        invalidations = db.reuse_stats()["invalidations"]
        db.drop_index("t", "key")
        assert db.reuse_stats()["invalidations"] > invalidations
        assert sorted(db.execute(QUERY)) == first

    def test_epoch_catches_catalog_level_ddl(self):
        # Even bypassing the facade's eager invalidation, the epoch in
        # the fingerprint must make stale entries unaddressable.
        db = seeded_db()
        before = db.catalog.access_epoch("t")
        db.create_index("t", "key", kind="avl")
        assert db.catalog.access_epoch("t") == before + 1
        db.drop_index("t", "key")
        assert db.catalog.access_epoch("t") == before + 2
        # Dropping the table retires its epoch entirely.
        db.drop_table("t")
        assert db.catalog.access_epoch("t") == 0


# ---------------------------------------------------------------------------
# Statements are atomic, and hold the catalog lock the way they say
# ---------------------------------------------------------------------------


QUERY_K = Query(tables=["t"], predicates=[("t", Comparison("k", "<", 40))])


def four_index_db(n):
    """``n`` rows under one index of each Section 2 kind."""
    db = MainMemoryDatabase(page_bytes=160)
    columns = ("k", "seven", "three", "five")
    db.create_table("t", [(c, DataType.INTEGER) for c in columns])
    db.insert_many("t", [(i, i % 7, i % 3, i % 5) for i in range(n)])
    for column, kind in zip(columns, ("btree", "avl", "hash", "paged-binary")):
        db.create_index("t", column, kind=kind)
    return db


def index_entries(db):
    return {
        column: sorted(index.items())
        for column, index in db.catalog.indexes_on("t").items()
    }


class TestWriteStatements:
    def test_insert_many_with_a_bad_row_inserts_nothing(self):
        db = four_index_db(40)
        db.analyze()
        db.execute(QUERY_K)  # something in the reuse cache to lose
        before = (
            list(db.table("t")),
            db.table("t").version,
            index_entries(db),
            db.reuse_stats()["invalidations"],
        )
        batch = [(100 + i, 0, 0, 0) for i in range(8)]
        batch[4] = (104, "zero", 0, 0)
        with pytest.raises(TypeError):
            db.insert_many("t", batch)
        assert before == (
            list(db.table("t")),
            db.table("t").version,
            index_entries(db),
            db.reuse_stats()["invalidations"],
        )
        assert db.table("t").cardinality == 40

    def test_insert_many_is_one_lock_hold_and_one_invalidation(self, monkeypatch):
        db = four_index_db(40)
        calls = {"acquire_write": 0, "invalidate": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(db._catalog_rw, "acquire_write")
        counting(db.reuse, "invalidate")
        assert db.insert_many("t", [(100 + i, 1, 1, 1) for i in range(8)]) == 8
        assert calls == {"acquire_write": 1, "invalidate": 1}
        assert_indexes_consistent(db)

    @pytest.mark.parametrize("doomed", [1, 20, 39])
    def test_dml_changes_data_not_access_paths(self, doomed):
        db = four_index_db(40)
        epoch = db.catalog.access_epoch("t")
        db.insert("t", (40, 0, 0, 0))
        db.insert_many("t", [(41, 1, 1, 1)])
        # ``k < doomed`` rows go: few (maintained in place) or most (rebuilt).
        for k in range(doomed):
            db.delete_where("t", "k", k)
        db.delete_where("t", "three", 0)
        assert db.catalog.access_epoch("t") == epoch
        assert_indexes_consistent(db)

    def test_analyze_rescans_when_a_write_slips_before_it_publishes(self, monkeypatch):
        db = four_index_db(40)
        take_write_side = db._catalog_rw.acquire_write
        slipped = []

        def a_writer_gets_there_first(*args, **kwargs):
            # analyze has scanned under the read side and now wants the
            # write side; another statement wins the race for it.
            if not slipped:
                slipped.append(True)
                db.insert("t", (40, 5, 1, 0))
            return take_write_side(*args, **kwargs)

        monkeypatch.setattr(db._catalog_rw, "acquire_write", a_writer_gets_there_first)
        db.analyze("t")
        stats = db.catalog.stats("t")
        assert slipped and stats.cardinality == 41
        assert stats.columns["k"].maximum == 40

    def test_analyze_publishes_only_states_a_serial_schedule_reaches(
        self, lock_order_recorder
    ):
        import sys
        import threading

        from repro.lint.engine import collect_modules
        from repro.lint.ipa import analyze_project
        from repro.lint.runtime import runtime_edges_missing_statically

        db = four_index_db(600)
        db.analyze()
        batches = [
            [(600 + 3 * b + i, 0, 0, 0) for i in range(3)] for b in range(150)
        ]
        published = []
        failures = []
        stop = threading.Event()

        def insert():
            try:
                for batch in batches:
                    db.insert_many("t", batch)
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
            finally:
                stop.set()

        def analyze():
            try:
                while not stop.is_set():
                    db.analyze("t")
                    published.append(db.catalog.stats("t"))
                db.analyze("t")
                published.append(db.catalog.stats("t"))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        def read():
            try:
                while not stop.is_set():
                    db.execute(QUERY_K)
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=insert)] + [
            threading.Thread(target=target)
            for target in (analyze, analyze, read)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # ``k`` is 0..n-1 with no gaps, and rows arrive three at a time: a
        # snapshot taken inside a batch, or whose columns were scanned at
        # different moments, cannot satisfy all three.
        assert len(published) > 2
        for stats in published:
            assert (stats.cardinality - 600) % 3 == 0
            assert stats.columns["k"].distinct == stats.cardinality
            assert stats.columns["k"].maximum == stats.cardinality - 1
        assert published[-1].cardinality == 600 + 3 * len(batches)
        modules, parse_failures = collect_modules([])
        assert parse_failures == []
        static = analyze_project(modules).lock_edges()
        observed = {
            (held, acquired)
            for held, taken in lock_order_recorder.edges().items()
            for acquired in taken
        }
        assert runtime_edges_missing_statically(static, observed) == []


class TestRemoveValue:
    """``remove_value`` is ``list.remove`` with a binary-search shortcut."""

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)), max_size=30),
        doomed=st.tuples(st.integers(0, 6), st.integers(0, 3)),
        ordered=st.booleans(),
    )
    def test_leaves_what_list_remove_leaves(self, values, doomed, ordered):
        from repro.access.interface import remove_value

        if ordered:
            values.sort()
        theirs = list(values)
        if doomed not in values:
            with pytest.raises(ValueError):
                remove_value(values, doomed)
            assert values == theirs
            return
        theirs.remove(doomed)
        remove_value(values, doomed)
        # Which of several equal entries goes is not observable; the rest
        # keep their order when the list was in order to begin with.
        assert sorted(values) == sorted(theirs)
        if ordered:
            assert values == theirs

    def test_values_that_do_not_order_fall_back_to_the_scan(self):
        from repro.access.interface import remove_value

        values = [{"a": 1}, 3, "x", (1, 2)]
        remove_value(values, "x")
        assert values == [{"a": 1}, 3, (1, 2)]


# ---------------------------------------------------------------------------
# Index builds: one batched loop, charged as the per-key build
# ---------------------------------------------------------------------------


def two_column_db(keys, payload):
    db = MainMemoryDatabase()
    db.create_table("t", [("key", DataType.INTEGER), ("b", DataType.INTEGER)])
    db.table("t").extend_rows([(k, payload(k)) for k in keys])
    return db


def charged(db, action):
    """The counters ``action()`` charges ``db``, and what it returns."""
    db.counters.reset()
    result = action()
    return db.counters.snapshot().as_dict(), result


INTERVALS = [(None, None), (0, 0), (-5, 5), (3_000, 4_500), (9_990, None), (10_000, 20_000)]


class TestIndexBuild:
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_create_index_charges_the_per_key_build(self, shuffled):
        keys = list(range(10_000))
        if shuffled:
            random.Random(38).shuffle(keys)
        db = two_column_db(keys, lambda k: k % 97)
        charges, index = charged(db, lambda: db.create_index("t", "key"))
        expected = BPlusTree()
        for key, tid in zip(keys, range(len(keys))):
            reference_insert(expected, key, tid)
        assert charges == expected.counters.as_dict()
        assert tree_state(index) == tree_state(expected)
        for low, high in INTERVALS:
            assert index.range_tids(low, high) == expected.range_tids(low, high)

    def test_delete_where_rebuild_is_a_fresh_create_index(self):
        keys = list(range(1_000))
        random.Random(7).shuffle(keys)
        # Three rows in five match: victims outnumber survivors, so the
        # index is rebuilt rather than maintained in place.
        doomed = lambda k: 0 if k % 5 < 3 else k % 5  # noqa: E731
        indexed = two_column_db(keys, doomed)
        old = indexed.create_index("t", "key")
        rebuilt, _ = charged(indexed, lambda: indexed.delete_where("t", "b", 0))
        fresh_db = two_column_db(keys, doomed)

        def delete_then_build():
            fresh_db.delete_where("t", "b", 0)
            return fresh_db.create_index("t", "key")

        fresh_charges, fresh = charged(fresh_db, delete_then_build)
        index = indexed.catalog.index("t", "key")
        assert index is not old
        assert rebuilt == fresh_charges
        assert tree_state(index) == tree_state(fresh)
        assert list(indexed.table("t")) == list(fresh_db.table("t"))
        for low, high in INTERVALS:
            assert index.range_tids(low, high) == fresh.range_tids(low, high)

    @pytest.mark.parametrize("kind", ["btree", "avl", "hash", "paged-binary"])
    def test_duplicate_create_index_is_refused_before_the_build(self, kind):
        db = two_column_db(range(5_000), lambda k: k % 13)
        index = db.create_index("t", "key", kind=kind)
        db.counters.reset()
        with pytest.raises(ConfigurationError, match=r"index on t\.key already exists"):
            db.create_index("t", "key", kind=kind)
        assert db.counters.snapshot().as_dict() == OperationCounters().as_dict()
        assert db.catalog.index("t", "key") is index

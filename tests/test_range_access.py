"""One range, one predicate, one access path (ISSUE 20, EXPERIMENTS.md E27).

* **The predicate.**  ``Range`` is the conjunction of its one or two
  bounds -- same rows, same charges, through ``evaluate``, ``compile``
  and the page mask -- over packed, demoted and string columns and for
  bounds numpy cannot compare exactly.
* **The probe and the gather.**  An index-served ``Range`` returns the
  rows of the filter-over-scan of the same ``Range``; the specification
  arm and the production arm return them in the same (index) order with
  equal counters, index counters and token checks, for all three ordered
  index kinds and for TIDs that are one buffer slice (a clustered index)
  or one gather (out of order, with gaps, or moved by a delete).
* **The fold.**  The planner turns a lower and an upper bound on one
  column into one ``Range`` -- the tightest bound per side, estimated as
  an interval -- serves it with one two-bounded index scan or one filter,
  and chains what is left most selective first.
* **Around it.**  ``LIKE 'ab%'`` through an index finds what the scan
  finds; ``analyze`` over packed buffers records what the boxed path
  records; ``range_lookup`` shares the probe.

The module also runs on an interpreter without numpy (CI), where the
masks are lists and ``analyze`` boxes every value.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from repro import DataType, MainMemoryDatabase
from repro.access.avl import AVLTree
from repro.access.btree import BPlusTree
from repro.access.paged_binary import PagedBinaryTree
from repro.cost.counters import OperationCounters
from repro.governor import CancellationToken
from repro.operators.selection import (
    And,
    Comparison,
    Prefix,
    Range,
    select,
    select_via_index,
)
from repro.planner.plan import FilterNode, IndexScanNode, ScanNode
from repro.planner.planner import _fold_ranges
from repro.planner.sql import parse_sql
from repro.storage import codecs
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.tuples import Field, Schema
from tests.conftest import access_paths, wisc_db
from tests.test_reuse_cache import WISC_CLASSES

ARMS = (False, True)  # the tuple-at-a-time specification, the production arm
ORDERED_INDEXES = {
    "btree": lambda counters: BPlusTree(order=4, counters=counters),
    "avl": AVLTree,
    "paged-binary": lambda counters: PagedBinaryTree(8, counters),
}


def mixed_relation() -> Relation:
    """A packed int ('q'), a packed float ('d'), a string ('o') and a
    column that demotes to objects on some pages (an int beyond int64)."""
    schema = Schema([
        Field("k", DataType.INTEGER), Field("x", DataType.FLOAT),
        Field("name", DataType.STRING), Field("big", DataType.INTEGER),
    ])
    rel = Relation("t", schema, 256)
    names = ("Jones", "Johnson", "Smith", "Jo", "Adams")
    rel.extend_rows([
        (i % 23, i * 0.5, names[i % 5], (1 << 70) if i % 17 == 0 else i)
        for i in range(150)
    ])
    return rel


#: (range, the conjunction it stands for), over every column kind above.
RANGES = [
    (Range("k", 3, 11, high_open=True),
     And(Comparison("k", ">=", 3), Comparison("k", "<", 11))),
    (Range("k", 3, 11, low_open=True),
     And(Comparison("k", ">", 3), Comparison("k", "<=", 11))),
    (Range("k", 2.5, 1 << 70),  # neither bound compares exactly in int64
     And(Comparison("k", ">=", 2.5), Comparison("k", "<=", 1 << 70))),
    (Range("x", 10, 30.25, low_open=True, high_open=True),
     And(Comparison("x", ">", 10), Comparison("x", "<", 30.25))),
    (Range("name", "Jo", "Jones"),
     And(Comparison("name", ">=", "Jo"), Comparison("name", "<=", "Jones"))),
    (Range("big", 40, 1 << 71, high_open=True),  # demoted on some pages
     And(Comparison("big", ">=", 40), Comparison("big", "<", 1 << 71))),
    (Range("k", 7, 7), And(Comparison("k", ">=", 7), Comparison("k", "<=", 7))),
    (Range("k", 11, 3), And(Comparison("k", ">=", 11), Comparison("k", "<=", 3))),
]


class TestThePredicate:
    @pytest.mark.parametrize("pair", RANGES, ids=lambda pair: repr(pair[0]))
    def test_a_range_is_the_conjunction_of_its_bounds(self, pair):
        folded, spelt = pair
        assert folded.conjunction() == spelt
        rel = mixed_relation()
        expected = [spelt.evaluate(rel.schema, row) for row in rel]
        assert [folded.evaluate(rel.schema, row) for row in rel] == expected
        assert list(map(folded.compile(rel.schema), rel)) == expected
        masker = folded.compile_mask(rel.schema)
        assert [bool(b) for page in rel.pages for b in masker(page)] == expected
        assert folded.comparisons() == spelt.comparisons()
        assert folded.columns() == [folded.column]
        for batch in ARMS:
            charged, wanted = OperationCounters(), OperationCounters()
            assert list(select(rel, folded, charged, batch=batch)) == list(
                select(rel, spelt, wanted, batch=batch)
            )
            assert charged.as_dict() == wanted.as_dict()

    def test_both_bounds_and_both_ends_are_in_the_fingerprint(self):
        prints = {
            Range("k", 3, 11, lo_open, hi_open).fingerprint()
            for lo_open in ARMS for hi_open in ARMS
        } | {Range("k", 3, 12).fingerprint(), Range("k", 4, 11).fingerprint()}
        assert len(prints) == 6


# -- the probe and the gather ---------------------------------------------------


def probe_arms(rel, column, kind, predicate, columns=None):
    """``select_via_index`` in both arms: [(rows in order, selection
    counters, index counters, token checks)]."""
    col = rel.schema.index_of(column)
    runs = []
    for batch in ARMS:
        index_counters = OperationCounters()
        index = ORDERED_INDEXES[kind](index_counters)
        for tid, row in rel.scan():
            index.insert(row[col], tid)
        index_counters.reset()
        counters, token = OperationCounters(), CancellationToken(qid=1)
        out = select_via_index(
            rel, index, predicate, counters,
            token=token, batch=batch, columns=columns,
        )
        runs.append((
            list(out), counters.as_dict(), index_counters.as_dict(), token.checks
        ))
    return runs


def physically_ordered(order: str) -> Relation:
    """``mixed_relation``'s shape with ``k`` unique, laid out so an index
    on ``k`` is clustered (its TIDs count up: a buffer slice), has each
    page's TIDs in reverse, has stretches of consecutive TIDs with jumps
    between them, or is unclustered (the last three a gather)."""
    keys = list(range(150))
    if order == "reversed-in-page":
        per_page = mixed_relation().tuples_per_page
        keys = [
            k for start in range(0, 150, per_page)
            for k in reversed(keys[start:start + per_page])
        ]
    elif order == "stretches":
        keys = keys[40:75] + keys[:40] + keys[110:] + keys[75:110]
    elif order == "shuffled":
        random.Random(5).shuffle(keys)
    rel = Relation("t", mixed_relation().schema, 256)
    rel.extend_rows([
        (k, k * 0.5, "n%03d" % k, (1 << 70) if k % 17 == 0 else k) for k in keys
    ])
    return rel


class TestTheProbeAndTheGather:
    @pytest.mark.parametrize("kind", sorted(ORDERED_INDEXES))
    @pytest.mark.parametrize(
        "order", ["clustered", "reversed-in-page", "stretches", "shuffled"]
    )
    def test_arms_agree_in_index_order_with_the_filtered_scan(self, kind, order):
        rel = physically_ordered(order)
        returned = 0
        for predicate in (
            Range("k", 10, 95, high_open=True),   # whole pages and two partial
            Range("k", 10, 95, low_open=True),
            Range("k", 40, 44),                   # inside one page
            Range("k", 60, 60),
            Range("k", 60, 60, low_open=True),    # empty
            Range("k", 95, 10),                   # empty: inverted
            Range("k", -9, 999),                  # the whole table
            Comparison("k", ">=", 140),
            Comparison("k", "<", 7),
        ):
            for columns in (None, ["name", "big"]):
                spec, production = probe_arms(rel, "k", kind, predicate, columns)
                assert spec == production, (predicate, columns)
                rows = spec[0]
                scanned = list(select(rel, predicate, columns=columns))
                assert Counter(rows) == Counter(scanned)
                # Index order: ascending k, and so ascending name.
                assert rows == sorted(scanned)
                assert spec[1]["comparisons"] == spec[1]["moves"] == len(rows)
                returned += len(rows)
        assert returned

    def test_a_run_is_a_slice_only_when_its_slots_count_up(self, monkeypatch):
        """TIDs that count up one by one are one slice of each buffer and
        no gather; any other list -- a gap, or TIDs 0, 2, 1, 3 whose ends
        and count say "run" -- is exactly one gather, in index order."""
        import repro.operators.selection as selection

        gathers, appends = [], []
        real_gather, real_extend = selection.gather_columns, Relation.extend_columns
        monkeypatch.setattr(
            selection, "gather_columns",
            lambda columns, tids: gathers.append(list(tids)) or real_gather(columns, tids),
        )
        monkeypatch.setattr(
            Relation, "extend_columns",
            lambda self, columns, count: appends.append(count)
            or real_extend(self, columns, count),
        )
        rel = mixed_relation()
        rows = list(rel)
        per_page = rel.tuples_per_page
        for tids, gathered in (
            (list(range(3, 3 * per_page + 5)), []),  # across pages: one slice
            ([7], []),
            ([0, 2, 1, 3], [[0, 2, 1, 3]]),
            ([0, 2, 1, 3] + list(range(per_page, 2 * per_page)),
             [[0, 2, 1, 3] + list(range(per_page, 2 * per_page))]),
            ([0, 1, 2, 4], [[0, 1, 2, 4]]),
            ([5, 4], [[5, 4]]),
        ):
            index = BPlusTree()
            for key, tid in enumerate(tids):
                index.insert(key, tid)
            gathers.clear()
            appends.clear()
            out = select_via_index(rel, index, Comparison("k", ">=", 0))
            assert list(out) == [rows[tid] for tid in tids]
            assert gathers == gathered
            assert appends == [len(tids)]

    def test_arms_agree_on_value_lists_a_delete_left_out_of_tid_order(self):
        """An in-place ``delete_where`` re-points the rows it moves, which
        re-enter their keys' value lists at the end, out of TID order: the
        arms still return the same rows in the same (index) order, the
        same counters and the same token checks."""
        db = MainMemoryDatabase(page_bytes=256, reuse_cache=False)
        db.create_table("t", [("k", DataType.INTEGER), ("gone", DataType.INTEGER)])
        db.insert_many("t", [(i % 9, int(i < 6)) for i in range(150)])
        db.create_index("t", "k")
        assert db.delete_where("t", "gone", 1) == 6  # moves, no rebuild
        rel, index = db.table("t"), db.catalog.index("t", "k")
        assert any(index.search(key) != sorted(index.search(key)) for key in range(9))
        for predicate in (
            Range("k", 3, 7), Range("k", 2, 5, high_open=True),
            Comparison("k", "=", 4), Comparison("k", ">=", 0),
        ):
            arms = []
            for batch in ARMS:
                counters, token = OperationCounters(), CancellationToken(qid=1)
                out = select_via_index(
                    rel, index, predicate, counters, token=token, batch=batch
                )
                arms.append((list(out), counters.as_dict(), token.checks))
            assert arms[0] == arms[1], predicate
            assert Counter(arms[0][0]) == Counter(select(rel, predicate))


class TestPrefixThroughAnIndex:
    """``LIKE 'ab%'`` was served as the closed ``[prefix, prefix + U+10FFFF]``
    and lost every value that continues past that character."""

    VALUES = ["ab", "abc", "ab\U0010ffff", "ab\U0010ffffz", "ac", "aa", "b"]

    def test_bounds_are_the_prefix_and_its_successor(self):
        top = chr(0x10FFFF)
        assert Prefix("s", "ab").range_bounds == ("ab", "ac")
        assert Prefix("s", "a" + top).range_bounds == ("a" + top, "b")
        assert Prefix("s", top + top).range_bounds == (top + top, None)

    @pytest.mark.parametrize("kind", ["btree", "avl", "paged-binary"])
    @pytest.mark.parametrize("batch", ARMS)
    def test_index_and_scan_return_the_same_rows(self, kind, batch):
        db = MainMemoryDatabase(batch=batch, reuse_cache=False)
        db.create_table("t", [("id", DataType.INTEGER), ("s", DataType.STRING)])
        db.insert_many("t", list(enumerate(self.VALUES)))
        statement = "SELECT id FROM t WHERE s LIKE 'ab%'"
        scanned = sorted(db.sql(statement))
        assert scanned == [(0,), (1,), (2,), (3,)]
        db.create_index("t", "s", kind=kind)
        db.analyze()
        assert "IndexScan(t.s = 'ab'*)" in db.sql_explain(statement)
        assert sorted(db.sql(statement)) == scanned
        top = "SELECT id FROM t WHERE s LIKE '\U0010ffff%'"  # no successor
        assert sorted(db.sql(top)) == []


# -- the fold -------------------------------------------------------------------


def lt(column, value): return Comparison(column, "<", value)
def le(column, value): return Comparison(column, "<=", value)
def gt(column, value): return Comparison(column, ">", value)
def ge(column, value): return Comparison(column, ">=", value)


class TestTheFold:
    def test_a_lower_and_an_upper_bound_become_one_range(self):
        assert _fold_ranges([ge("a", 3), lt("a", 9)]) == [
            Range("a", 3, 9, high_open=True)
        ]
        assert _fold_ranges([le("a", 9.5), gt("a", 3)]) == [
            Range("a", 3, 9.5, low_open=True)
        ]
        assert _fold_ranges([ge("s", "b"), le("s", "d")]) == [Range("s", "b", "d")]

    def test_the_tightest_bound_per_side_wins(self):
        assert _fold_ranges([ge("a", 3), lt("a", 9), gt("a", 3), le("a", 9)]) == [
            Range("a", 3, 9, low_open=True, high_open=True)
        ]
        assert _fold_ranges([ge("a", 3), lt("a", 9), ge("a", 5), lt("a", 20)]) == [
            Range("a", 5, 9, high_open=True)
        ]

    def test_the_range_stands_where_its_first_bound_was_written(self):
        other, more = Comparison("b", "=", 1), Prefix("s", "x")
        assert _fold_ranges([other, lt("a", 9), more, ge("a", 3)]) == [
            other, Range("a", 3, 9, high_open=True), more
        ]

    def test_columns_fold_apart(self):
        assert _fold_ranges([ge("a", 3), lt("b", 9), lt("a", 4), gt("b", 1)]) == [
            Range("a", 3, 4, high_open=True), Range("b", 1, 9, True, True)
        ]

    @pytest.mark.parametrize("left_alone", [
        [ge("a", 3), gt("a", 5)],                         # one side only
        [ge("a", 3), Comparison("a", "=", 5)],
        [ge("a", 3), Comparison("a", "!=", 5)],
        [ge("a", 3), lt("a", float("nan"))],              # NaN orders nothing
        [ge("a", "b"), lt("a", 9)],                       # a string and a number
        [ge("a", True), lt("a", 9)],
        [And(ge("a", 3), lt("a", 9))],                    # parenthesised: opaque
        [ge("a", 3), ~lt("a", 9)],
    ], ids=str)
    def test_what_does_not_fold(self, left_alone):
        assert _fold_ranges(left_alone) == left_alone

    def test_the_ledger_templates_are_one_access_path_each(self):
        n = 1000  # a tenth of the ledger's scale
        db = wisc_db(n, n // 10, memory_pages=2000)
        for start, share, template in WISC_CLASSES:
            lo, width = max(2, int(n * start)), max(1, int(n * share))
            plan = db.plan(parse_sql(template.format(lo=lo, hi=lo + width), db.catalog))
            (path,) = [
                p for p in access_paths(plan).values() if not isinstance(p, ScanNode)
            ]
            if share <= 0.2:  # index-served, no filter left above it
                assert isinstance(path, IndexScanNode), plan.explain()
                assert "unique2 in [%d, %d))" % (lo, lo + width) in path.label()
            else:             # half the table: exactly one filter over the scan
                assert isinstance(path, FilterNode), plan.explain()
                assert isinstance(path.child, ScanNode)
            assert path.predicate == Range(
                path.predicate.column, lo, lo + width, high_open=True
            )
            assert abs(path.estimated_rows - width) <= 0.02 * width, plan.explain()
            assert len(re.findall("Filter|IndexScan", plan.explain())) == 1

    def test_the_label_says_which_ends_are_open(self):
        db = wisc_db(400, 40)
        for where, interval in (
            ("unique2 > 3 AND unique2 <= 9", "(3, 9]"),
            ("unique2 < 9 AND unique2 >= 3", "[3, 9)"),
        ):
            plan = db.sql_explain("SELECT * FROM tenk1 WHERE " + where)
            assert plan.startswith("IndexScan(tenk1.unique2 in %s)" % interval)

    def test_a_narrow_range_never_answers_a_wider_one(self):
        db = wisc_db(400, 40)
        narrow = "SELECT * FROM tenk1 WHERE unique2 >= 50 AND unique2 < 60"
        assert len(db.sql(narrow)) == 10
        assert len(db.sql(narrow)) == 10
        assert db.reuse_stats()["hits"] == 1
        for wider in ("unique2 >= 50 AND unique2 < 61", "unique2 >= 50 AND unique2 <= 60",
                      "unique2 > 49 AND unique2 <= 60"):
            assert len(db.sql("SELECT * FROM tenk1 WHERE " + wider)) == 11
        assert db.reuse_stats()["hits"] == 1

    def test_interval_selectivity_is_not_a_product(self):
        db = wisc_db(1000, 100)
        plan = db.plan(parse_sql(
            "SELECT * FROM tenk1 WHERE unique1 >= 900 AND unique1 < 910", db.catalog
        ))
        assert 9 <= plan.estimated_rows <= 11  # the product says 90
        strings = MainMemoryDatabase()
        strings.create_table("t", [("s", DataType.STRING)])
        strings.insert_many("t", [("v%d" % i,) for i in range(90)])
        plan = strings.plan(parse_sql(
            "SELECT * FROM t WHERE s >= 'v1' AND s < 'v2'", strings.catalog
        ))
        assert plan.estimated_rows == pytest.approx(90 / 9)  # two defaults of 1/3


class TestMostSelectiveFirst:
    """Section 4: what is left of a table's filter chain runs in ascending
    estimated selectivity, ties in the order written."""

    def test_order_and_the_compares_it_saves(self):
        statement = "SELECT unique1 FROM tenk1 WHERE hundred >= 10 AND ten = 3"
        costs = []
        for batch in ARMS:
            db = wisc_db(1000, 100, batch=batch, reuse_cache=False)
            plan = db.plan(parse_sql(statement, db.catalog))
            top = access_paths(plan)["tenk1"]
            # ten = 3 keeps a tenth, hundred >= 10 nine tenths: it runs first.
            assert top.predicate == ge("hundred", 10)
            assert top.child.predicate == Comparison("ten", "=", 3)
            before = db.counters.comparisons
            assert len(db.sql(statement)) == 90
            costs.append(db.counters.comparisons - before)
        assert costs == [1000 + 100] * 2  # as written: 1000 + 900

    def test_ties_keep_the_order_written(self):
        db = wisc_db(200, 20)
        # Two hundred rows: both columns have two hundred distinct values.
        for written in (["unique1 = 3", "thousand = 4"], ["thousand = 4", "unique1 = 3"]):
            plan = db.sql_explain("SELECT unique1 FROM tenk1 WHERE " + " AND ".join(written))
            names = re.findall(r"column='(\w+)'", plan)
            assert names == [w.split()[0] for w in reversed(written)], plan


# -- around it --------------------------------------------------------------------

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def int_table(columns) -> Catalog:
    names = ["c%d" % i for i in range(len(columns))]
    rel = Relation("t", Schema([Field(n, DataType.INTEGER) for n in names]), 256)
    rel.extend_rows(list(zip(*columns)))
    catalog = Catalog()
    catalog.register(rel)
    return catalog


class TestAnalyzeOverPackedBuffers:
    def columns(self):
        rng = random.Random(11)
        n = 500
        return [
            [rng.randrange(40) for _ in range(n)],                 # dense: the bitmap
            [rng.randrange(-(10 ** 12), 10 ** 12) for _ in range(n)],  # sparse: the sort
            [INT64_MIN, INT64_MAX] + [rng.randrange(-5, 5) for _ in range(n - 2)],
            [7] * n,                                               # one distinct value
            list(range(n)),                                        # all distinct
            [(1 << 70) if i == 300 else i % 9 for i in range(n)],  # demoted on one page
        ]

    def test_the_packed_path_records_what_the_set_path_records(self, monkeypatch):
        catalog = int_table(self.columns())
        packed = catalog.measure("t")
        monkeypatch.setattr(codecs, "np", None)
        boxed = catalog.measure("t")
        assert packed == boxed
        for name, values in zip(sorted(boxed.columns), self.columns()):
            stats = boxed.columns[name]
            assert (stats.distinct, stats.minimum, stats.maximum) == (
                len(set(values)), min(values), max(values)
            )
            assert type(packed.columns[name].minimum) is int

    def test_other_kinds_keep_the_boxed_path(self):
        rel = mixed_relation()
        other = Catalog()
        other.register(rel)
        stats = other.measure("t")
        assert stats.columns["x"].maximum == 74.5
        assert stats.columns["name"].distinct == 5
        assert stats.columns["big"].maximum == 1 << 70
        empty = Catalog()
        empty.register(Relation("e", rel.schema, 256))
        assert empty.measure("e").columns["k"].distinct == 0


class TestRangeLookup:
    @pytest.mark.parametrize("kind", [None, "btree", "avl", "paged-binary", "hash"])
    def test_closed_interval_in_key_order_through_an_ordered_index(self, kind):
        db = MainMemoryDatabase(page_bytes=256)
        db.create_table("t", [("k", DataType.INTEGER), ("v", DataType.INTEGER)])
        rng = random.Random(3)
        db.insert_many("t", [(rng.randrange(30), i) for i in range(120)])
        if kind is not None:
            db.create_index("t", "k", kind=kind)
        rows = list(db.table("t"))
        ordered = kind in ("btree", "avl", "paged-binary")
        intervals = [(5, 12), (12, 5), (7, 7), (-3, 99)]
        if ordered:  # the probe's own: an end left unbounded
            intervals += [(None, 4), (25, None), (None, None)]
        for low, high in intervals:
            wanted = [
                r for r in rows
                if (low is None or r[0] >= low) and (high is None or r[0] <= high)
            ]
            got = db.range_lookup("t", "k", low, high)
            # Through an ordered index: key order, insertion order within a key.
            assert got == (sorted(wanted) if ordered else wanted)

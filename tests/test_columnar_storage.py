"""Tests for the packed columnar page layout (repro.storage.codecs/page).

Two properties anchor the PR-7 storage refactor:

* **Packing**: schema-typed columns land in contiguous ``array('q')`` /
  ``array('d')`` buffers; strings and anything that will not round-trip
  exactly falls back to the object list, *per column*.
* **Fidelity**: the row view (``page.tuples``) is byte-identical to the
  historical tuple storage -- same values, same exact Python types --
  no matter which buffer a column happens to occupy, and no matter
  whether numpy is available to accelerate the kernels.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.cost.counters import OperationCounters
from repro.operators.selection import Comparison, select
from repro.storage import codecs
from repro.storage.codecs import (
    FLOAT_KIND,
    INT_KIND,
    OBJECT_KIND,
    column_kinds,
    compress_column,
    infer_kind,
    is_packed,
    packed_view,
)
from repro.storage.page import Page
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema


MIXED_SCHEMA = Schema(
    [
        Field("id", DataType.INTEGER),
        Field("score", DataType.FLOAT),
        Field("name", DataType.STRING),
    ]
)


def mixed_relation(n=50, page_bytes=256):
    rel = Relation("t", MIXED_SCHEMA, page_bytes)
    rel.extend_rows([(i, i * 0.5, "name%d" % i) for i in range(n)])
    return rel


# ---------------------------------------------------------------------------
# Codec-level behaviour
# ---------------------------------------------------------------------------


class TestCodecs:
    def test_column_kinds_follow_schema(self):
        assert column_kinds(MIXED_SCHEMA) == (INT_KIND, FLOAT_KIND, OBJECT_KIND)

    def test_infer_kind_is_exact_typed(self):
        assert infer_kind(3) == INT_KIND
        assert infer_kind(3.0) == FLOAT_KIND
        assert infer_kind("3") == OBJECT_KIND
        # bool is an int subclass but must not pack: True would come
        # back as 1.
        assert infer_kind(True) == OBJECT_KIND

    def test_compress_column_preserves_packedness(self):
        col = array("q", range(8))
        mask = [i % 2 == 0 for i in range(8)]
        out = compress_column(col, mask)
        assert is_packed(out) and list(out) == [0, 2, 4, 6]
        obj = compress_column(list("abcdefgh"), mask)
        assert obj == ["a", "c", "e", "g"]

    @pytest.mark.skipif(codecs.np is None, reason="numpy not installed")
    def test_packed_view_is_zero_copy(self):
        col = array("q", [1, 2, 3])
        view = packed_view(col)
        assert list(view) == [1, 2, 3]
        col[1] = 99  # mutations show through: same buffer, not a copy
        assert view[1] == 99
        assert packed_view([1, 2, 3]) is None  # object lists never view

    @pytest.mark.skipif(codecs.np is None, reason="numpy not installed")
    def test_compress_column_accepts_numpy_masks(self):
        col = array("d", [0.5 * i for i in range(8)])
        mask = packed_view(array("q", range(8))) % 2 == 0
        out = compress_column(col, mask)
        assert is_packed(out) and list(out) == [0.0, 1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# Page packing and demotion
# ---------------------------------------------------------------------------


class TestPagePacking:
    def test_schema_columns_pack(self):
        rel = mixed_relation()
        for page in rel.pages:
            cols = page.columns
            assert is_packed(cols[0]) and cols[0].typecode == INT_KIND
            assert is_packed(cols[1]) and cols[1].typecode == FLOAT_KIND
            assert type(cols[2]) is list

    def test_row_view_round_trips_types(self):
        rel = mixed_relation()
        for i, row in enumerate(rel):
            assert row == (i, i * 0.5, "name%d" % i)
            assert type(row[0]) is int and type(row[1]) is float

    def test_oversized_int_demotes_column(self):
        page = Page.for_schema(0, MIXED_SCHEMA, 4096)
        page.add((1, 1.0, "a"))
        page.add((2**70, 2.0, "b"))  # does not fit in int64
        assert type(page.column(0)) is list
        assert page.tuples == [(1, 1.0, "a"), (2**70, 2.0, "b")]
        # The other columns keep their packed buffers.
        assert is_packed(page.column(1))

    def test_int_into_float_column_demotes(self):
        # FLOAT columns legally hold ints; packing 2 as 2.0 would lie.
        page = Page.for_schema(0, MIXED_SCHEMA, 4096)
        page.add((1, 1.5, "a"))
        page.add((2, 2, "b"))
        assert type(page.column(1)) is list
        row = page[1]
        assert row[1] == 2 and type(row[1]) is int

    def test_bulk_extend_demotes_and_rolls_back_partial_write(self):
        page = Page.for_schema(0, MIXED_SCHEMA, 4096)
        rows = [(0, 0.0, "x"), (1, 1.0, "y"), (2**70, 2.0, "z")]
        assert page.extend_rows(rows) == 3
        assert page.tuples == rows  # no duplicated prefix from the retry

    def test_replace_and_remove_keep_columns_consistent(self):
        page = Page.for_schema(0, MIXED_SCHEMA, 4096)
        for i in range(4):
            page.add((i, float(i), str(i)))
        assert page.replace(1, (10, 10.0, "ten")) == (1, 1.0, "1")
        assert page[1] == (10, 10.0, "ten")
        page.set_cells(0, [0, 3], [30, 0])
        page.truncate(3)
        assert page.tuples == [(30, 0.0, "0"), (10, 10.0, "ten"), (2, 2.0, "2")]
        assert len(page) == 3 and is_packed(page.column(0))

    def test_copy_is_independent(self):
        page = Page.for_schema(0, MIXED_SCHEMA, 4096)
        page.add((1, 1.0, "a"))
        dup = page.copy()
        dup.add((2, 2.0, "b"))
        assert len(page) == 1 and len(dup) == 2

    def test_extend_columns_buffer_to_buffer(self):
        rel = mixed_relation(n=30)
        out = Relation("out", MIXED_SCHEMA, 256)
        for page in rel.pages:
            out.extend_columns(page.columns, len(page))
        assert list(out) == list(rel)
        for page in out.pages:
            assert is_packed(page.column(0)) and is_packed(page.column(1))

    def test_storage_stats_report_packing(self):
        stats = mixed_relation().storage_stats()
        # Two of three column buffers pack (id, score; name is the
        # object-list fallback): one buffer per column, not per page.
        assert stats["total_columns"] == 3
        assert stats["packed_columns"] == 2
        assert stats["packed_fraction"] == pytest.approx(2 / 3)
        assert stats["buffer_bytes"] > 0


# ---------------------------------------------------------------------------
# numpy is an optional accelerator, never a semantic dependency
# ---------------------------------------------------------------------------


PREDICATES = [
    Comparison("id", "<", 20),
    Comparison("score", ">=", 5.0) & Comparison("id", "<", 35),
    ~Comparison("name", "=", "name3"),
]


class TestNumpyFallback:
    @pytest.mark.parametrize("pred_index", range(len(PREDICATES)))
    def test_select_identical_without_numpy(self, monkeypatch, pred_index):
        predicate = PREDICATES[pred_index]

        def run():
            counters = OperationCounters()
            out = select(mixed_relation(120), predicate, counters)
            return list(out), counters.as_dict()

        with_np = run()
        monkeypatch.setattr(codecs, "np", None)
        assert run() == with_np

    def test_compress_column_without_numpy(self, monkeypatch):
        monkeypatch.setattr(codecs, "np", None)
        col = array("q", range(10))
        out = compress_column(col, [v % 3 == 0 for v in col])
        assert is_packed(out) and list(out) == [0, 3, 6, 9]
        assert packed_view(col) is None

    def test_huge_ints_never_take_the_vector_path(self):
        # int64-range check: a value numpy would overflow or round must
        # fall back to exact Python comparison.
        schema = Schema([Field("k", DataType.INTEGER)])
        rel = Relation("big", schema, 256)
        rel.extend_rows([(2**64 + i,) for i in range(10)] + [(5,)])
        out = select(rel, Comparison("k", ">", 2**64 + 4), OperationCounters())
        assert sorted(out) == [(2**64 + i,) for i in range(5, 10)]

    def test_float_predicate_on_int_column_is_exact(self):
        schema = Schema([Field("k", DataType.INTEGER)])
        rel = Relation("t", schema, 256)
        rel.extend_rows([(i,) for i in range(10)])
        out = select(rel, Comparison("k", "<", 4.5), OperationCounters())
        assert sorted(out) == [(i,) for i in range(5)]


# ---------------------------------------------------------------------------
# Whole-relation fuzz: row view == reference rows under random schemas
# ---------------------------------------------------------------------------


def test_random_rows_round_trip():
    rng = random.Random(42)
    rel = Relation("fuzz", MIXED_SCHEMA, 128)
    reference = []
    for i in range(300):
        roll = rng.random()
        if roll < 0.1:
            row = (2**70 + i, float(i), "s%d" % i)  # force demotion
        elif roll < 0.2:
            row = (i, i, "s%d" % i)  # int in the FLOAT column
        else:
            row = (i, rng.random(), "s%d" % i)
        reference.append(row)
    rel.extend_rows(reference)
    assert list(rel) == reference
    for got, want in zip(rel, reference):
        assert [type(v) for v in got] == [type(v) for v in want]

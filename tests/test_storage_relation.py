"""Tests for paged heap relations."""

import pytest

from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema, make_schema


@pytest.fixture
def schema():
    return make_schema(("key", DataType.INTEGER), ("val", DataType.INTEGER))


@pytest.fixture
def rel(schema):
    return Relation("t", schema, page_bytes=64)  # 8 tuples/page


class TestGeometry:
    def test_tuples_per_page(self, rel):
        assert rel.tuples_per_page == 8

    def test_page_count_grows(self, rel):
        assert rel.page_count == 0
        for i in range(9):
            rel.insert((i, i))
        assert rel.page_count == 2
        assert rel.cardinality == 9
        assert len(rel) == 9

    def test_table2_density(self):
        """A 100-byte tuple on 4 KB pages gives the paper's 40/page."""
        schema = Schema([Field("payload", DataType.STRING, width=100)])
        rel = Relation("w", schema, page_bytes=4096)
        assert rel.tuples_per_page == 40


class TestInsertFetch:
    def test_insert_returns_tid(self, rel):
        tid = rel.insert((1, 10))
        assert tid == 0
        assert rel.fetch(tid) == (1, 10)

    def test_insert_validates(self, rel):
        with pytest.raises(TypeError):
            rel.insert(("x", 1))
        with pytest.raises(ValueError):
            rel.insert((1,))

    def test_tids_across_pages(self, rel):
        tids = [rel.insert((i, i)) for i in range(10)]
        assert tids == list(range(10))
        assert tids[8] // rel.tuples_per_page == 1  # the first row of page 1
        assert rel.fetch(9) == (9, 9)

    def test_update(self, rel):
        tid = rel.insert((1, 10))
        old = rel.update(tid, (1, 99))
        assert old == (1, 10)
        assert rel.fetch(tid) == (1, 99)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_fetch_and_update_refuse_a_tid_outside_the_rows(self, rel, bad):
        """A negative TID must not wrap to the last row, nor one past the
        end read anything: both are ``IndexError``, and nothing changes."""
        rel.extend([(i, i) for i in range(3)])  # cardinality 3
        with pytest.raises(IndexError):
            rel.fetch(bad)
        with pytest.raises(IndexError):
            rel.update(bad, (7, 7))
        assert list(rel) == [(0, 0), (1, 1), (2, 2)]

    def test_extend(self, rel):
        assert rel.extend([(i, i) for i in range(5)]) == 5
        assert rel.cardinality == 5

    def test_truncate(self, rel):
        rel.insert((1, 1))
        rel.truncate()
        assert rel.cardinality == 0
        assert rel.page_count == 0


class TestScan:
    def test_iteration_order_is_physical(self, rel):
        rows = [(i, i * 2) for i in range(20)]
        rel.extend(rows)
        assert list(rel) == rows

    def test_scan_yields_tids(self, rel):
        rel.extend([(i, i) for i in range(10)])
        pairs = list(rel.scan())
        assert pairs[0] == (0, (0, 0))
        assert pairs[9] == (9, (9, 9))

    def test_key_of(self, rel):
        rel.insert((5, 50))
        key = rel.key_of("val")
        assert key(next(iter(rel))) == 50

    def test_value_accessor(self, rel):
        rel.insert((5, 50))
        row = next(iter(rel))
        assert rel.value(row, "key") == 5


def test_empty_name_rejected(schema):
    with pytest.raises(ValueError):
        Relation("", schema)

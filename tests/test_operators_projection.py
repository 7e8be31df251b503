"""Tests for projection with and without duplicate elimination."""

import random
from collections import Counter

import pytest

from repro.cost.counters import OperationCounters
from repro.operators.projection import hash_project, sort_project
from repro.storage.disk import SimulatedDisk
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, make_schema


@pytest.fixture
def rel():
    schema = make_schema(
        ("a", DataType.INTEGER), ("b", DataType.INTEGER), ("c", DataType.INTEGER)
    )
    r = Relation("t", schema, 96)
    rng = random.Random(6)
    for _ in range(300):
        r.insert_unchecked((rng.randrange(5), rng.randrange(5), rng.randrange(100)))
    return r


class TestPlainProjection:
    def test_keeps_duplicates(self, rel):
        out = hash_project(rel, ["a", "b"], distinct=False)
        assert out.cardinality == 300
        assert out.schema.names == ["a", "b"]

    def test_column_order_respected(self, rel):
        out = hash_project(rel, ["b", "a"], distinct=False)
        first_src = next(iter(rel))
        first_out = next(iter(out))
        assert first_out == (first_src[1], first_src[0])

    def test_charges_moves(self, rel):
        counters = OperationCounters()
        hash_project(rel, ["a"], distinct=False, counters=counters)
        assert counters.moves == 300


class TestDistinctProjection:
    def test_hash_removes_duplicates(self, rel):
        out = hash_project(rel, ["a", "b"], distinct=True)
        expected = {(r[0], r[1]) for r in rel}
        assert Counter(out) == Counter(expected)

    def test_sort_removes_duplicates(self, rel):
        out = sort_project(rel, ["a", "b"], distinct=True)
        expected = {(r[0], r[1]) for r in rel}
        assert Counter(out) == Counter(expected)

    def test_hash_and_sort_agree(self, rel):
        a = sorted(hash_project(rel, ["a", "b"]))
        b = sorted(sort_project(rel, ["a", "b"]))
        assert a == b

    def test_distinct_single_column(self, rel):
        out = hash_project(rel, ["a"])
        assert sorted(out) == [(v,) for v in sorted({r[0] for r in rel})]

    def test_spill_path_still_correct(self):
        schema = make_schema(("k", DataType.INTEGER), ("v", DataType.INTEGER))
        rel = Relation("big", schema, 64)
        for i in range(2000):
            rel.insert_unchecked((i % 700, i))
        counters = OperationCounters()
        disk = SimulatedDisk(counters)
        out = hash_project(
            rel, ["k"], distinct=True, counters=counters,
            memory_pages=8, disk=disk,
        )
        assert out.cardinality == 700
        assert counters.sequential_ios + counters.random_ios > 0

    def test_projection_of_whole_row(self, rel):
        out = hash_project(rel, ["a", "b", "c"], distinct=True)
        assert Counter(out) == Counter(set(rel))


def test_hash_distinct_beats_sort_distinct_in_modelled_seconds():
    """E10's projection half: duplicate elimination by hashing is cheaper
    than by sorting at every size."""
    from repro.cost.parameters import TABLE2_DEFAULTS

    schema = make_schema(("g", DataType.INTEGER), ("v", DataType.INTEGER))
    for n in (1_000, 4_000, 16_000):
        r = Relation("t%d" % n, schema, 320)
        rng = random.Random(n)
        for _ in range(n):
            r.insert_unchecked((rng.randrange(64), rng.randrange(1000)))
        hashed, sorted_ = OperationCounters(), OperationCounters()
        h = hash_project(r, ["g"], counters=hashed)
        s = sort_project(r, ["g"], counters=sorted_)
        assert sorted(h) == sorted(s)
        assert hashed.cost(TABLE2_DEFAULTS) < sorted_.cost(TABLE2_DEFAULTS), n

"""Tests for hash and sort aggregation (Section 3.9)."""

import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.counters import OperationCounters
from repro.operators.aggregate import (
    AggregateFunction,
    AggregateSpec,
    hash_aggregate,
    sort_aggregate,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, make_schema


@pytest.fixture
def sales():
    schema = make_schema(
        ("dept", DataType.INTEGER), ("amount", DataType.INTEGER)
    )
    rel = Relation("sales", schema, 64)
    rng = random.Random(10)
    for _ in range(400):
        rel.insert_unchecked((rng.randrange(8), rng.randrange(100)))
    return rel


def reference(rel):
    groups = defaultdict(list)
    for dept, amount in rel:
        groups[dept].append(amount)
    return groups


ALL_AGGS = [
    AggregateSpec(AggregateFunction.COUNT, alias="n"),
    AggregateSpec(AggregateFunction.SUM, "amount", "total"),
    AggregateSpec(AggregateFunction.MIN, "amount", "lo"),
    AggregateSpec(AggregateFunction.MAX, "amount", "hi"),
    AggregateSpec(AggregateFunction.AVG, "amount", "mean"),
]


class TestHashAggregate:
    def test_all_functions(self, sales):
        out = hash_aggregate(sales, ["dept"], ALL_AGGS)
        ref = reference(sales)
        assert out.cardinality == len(ref)
        for dept, n, total, lo, hi, mean in out:
            values = ref[dept]
            assert n == len(values)
            assert total == pytest.approx(sum(values))
            assert lo == min(values)
            assert hi == max(values)
            assert mean == pytest.approx(sum(values) / len(values))

    def test_output_schema(self, sales):
        out = hash_aggregate(sales, ["dept"], ALL_AGGS)
        assert out.schema.names == ["dept", "n", "total", "lo", "hi", "mean"]

    def test_count_without_column(self, sales):
        out = hash_aggregate(
            sales, ["dept"], [AggregateSpec(AggregateFunction.COUNT)]
        )
        assert sum(row[1] for row in out) == 400

    def test_sum_requires_column(self):
        with pytest.raises(ValueError):
            AggregateSpec(AggregateFunction.SUM)

    def test_empty_input(self):
        rel = Relation(
            "e", make_schema(("g", DataType.INTEGER), ("v", DataType.INTEGER)), 64
        )
        out = hash_aggregate(rel, ["g"], [AggregateSpec(AggregateFunction.COUNT)])
        assert out.cardinality == 0

    def test_charges_hash_per_tuple(self, sales):
        counters = OperationCounters()
        hash_aggregate(sales, ["dept"], ALL_AGGS, counters)
        assert counters.hashes == 400

    def test_multi_column_grouping(self, sales):
        out = hash_aggregate(
            sales,
            ["dept", "amount"],
            [AggregateSpec(AggregateFunction.COUNT, alias="n")],
        )
        ref = Counter((d, a) for d, a in sales)
        assert out.cardinality == len(ref)
        for dept, amount, n in out:
            assert n == ref[(dept, amount)]


class TestOverflowSpill:
    def test_spills_and_still_correct(self):
        """More groups than the memory grant admits -> hybrid overflow."""
        schema = make_schema(("g", DataType.INTEGER), ("v", DataType.INTEGER))
        rel = Relation("big", schema, 64)  # 8 tuples/page
        rng = random.Random(3)
        for _ in range(2000):
            rel.insert_unchecked((rng.randrange(600), 1))
        counters = OperationCounters()
        disk = SimulatedDisk(counters)
        out = hash_aggregate(
            rel,
            ["g"],
            [AggregateSpec(AggregateFunction.COUNT, alias="n")],
            counters,
            memory_pages=10,  # ~66 groups fit
            disk=disk,
        )
        ref = Counter(g for g, _ in rel)
        assert out.cardinality == len(ref)
        assert {row[0]: row[1] for row in out} == dict(ref)
        # Overflow really went through the disk.
        assert counters.sequential_ios + counters.random_ios > 0
        # Scratch cleaned up.
        assert disk.files() == []

    def test_one_pass_when_memory_sufficient(self):
        schema = make_schema(("g", DataType.INTEGER), ("v", DataType.INTEGER))
        rel = Relation("small", schema, 64)
        for i in range(100):
            rel.insert_unchecked((i % 5, 1))
        counters = OperationCounters()
        hash_aggregate(
            rel,
            ["g"],
            [AggregateSpec(AggregateFunction.COUNT, alias="n")],
            counters,
            memory_pages=50,
        )
        assert counters.sequential_ios + counters.random_ios == 0


class TestSortAggregate:
    def test_agrees_with_hash(self, sales):
        hashed = hash_aggregate(sales, ["dept"], ALL_AGGS)
        sorted_ = sort_aggregate(sales, ["dept"], ALL_AGGS)
        assert sorted(hashed) == sorted(sorted_)

    def test_output_in_group_order(self, sales):
        out = sort_aggregate(
            sales, ["dept"], [AggregateSpec(AggregateFunction.COUNT, alias="n")]
        )
        depts = [row[0] for row in out]
        assert depts == sorted(depts)

    def test_charges_sort_work(self, sales):
        counters = OperationCounters()
        sort_aggregate(sales, ["dept"], ALL_AGGS, counters)
        assert counters.swaps > 0
        # Hash aggregation does the same job with no swaps at all -- the
        # Section 3.9 argument.
        hash_counters = OperationCounters()
        hash_aggregate(sales, ["dept"], ALL_AGGS, hash_counters)
        assert hash_counters.swaps == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 100)), min_size=1))
def test_property_hash_and_sort_agree(rows):
    schema = make_schema(("g", DataType.INTEGER), ("v", DataType.INTEGER))
    rel = Relation("p", schema, 64)
    for row in rows:
        rel.insert_unchecked(row)
    aggs = [
        AggregateSpec(AggregateFunction.COUNT, alias="n"),
        AggregateSpec(AggregateFunction.SUM, "v", "s"),
    ]
    a = sorted(hash_aggregate(rel, ["g"], aggs))
    b = sorted(sort_aggregate(rel, ["g"], aggs))
    assert a == b


def test_a_cancelled_aggregate_leaves_its_input_writable():
    """The column fold reads the relation's own buffers.  A cancellation
    keeps the raising frame alive in the exception's traceback, so no
    numpy view of those buffers may be live at a check: an ``array``
    that exports its buffer refuses to grow."""
    from repro.errors import ReproError
    from repro.governor import CancellationToken

    rel = Relation("t", make_schema(("g", DataType.INTEGER), ("v", DataType.INTEGER)))
    rel.extend([(i % 5, i) for i in range(100)])
    token = CancellationToken(qid=1)
    token.on_check = lambda tok: tok.cancel()
    with pytest.raises(ReproError) as caught:
        hash_aggregate(
            rel, ["g"], [AggregateSpec(AggregateFunction.SUM, "v")], token=token
        )
    rel.extend([(1, 2)] * 3)  # raised BufferError while a view was kept
    assert caught.value is not None and len(rel) == 103


def grouped(n, groups, seed):
    rel = Relation("t%d" % n, make_schema(("g", DataType.INTEGER), ("v", DataType.INTEGER)), 320)
    rng = random.Random(seed)
    for _ in range(n):
        rel.insert_unchecked((rng.randrange(groups), rng.randrange(1000)))
    return rel


COUNT_SUM = [
    AggregateSpec(AggregateFunction.COUNT, alias="n"),
    AggregateSpec(AggregateFunction.SUM, "v", "total"),
]


class TestHashBeatsSortInModelledSeconds:
    """E10: "if there is enough memory to hold the result relation, then
    the fastest algorithm will be a one pass hashing algorithm"."""

    def test_gap_widens_with_input_size(self):
        from repro.cost.parameters import TABLE2_DEFAULTS

        ratios = []
        for n in (1_000, 4_000, 16_000):
            rel = grouped(n, 64, seed=n)
            hashed, sorted_ = OperationCounters(), OperationCounters()
            h = hash_aggregate(rel, ["g"], COUNT_SUM, hashed)
            s = sort_aggregate(rel, ["g"], COUNT_SUM, sorted_)
            assert sorted(h) == sorted(s)
            ratios.append(sorted_.cost(TABLE2_DEFAULTS) / hashed.cost(TABLE2_DEFAULTS))
        assert ratios == sorted(ratios)  # n against n log n
        assert ratios[0] > 1 and ratios[-1] > 5

    def test_spilling_hash_pays_io_but_still_beats_sorting(self):
        from repro.cost.parameters import TABLE2_DEFAULTS

        rel = grouped(15_000, 4_500, seed=77)
        fit, spill, sort = OperationCounters(), OperationCounters(), OperationCounters()
        hash_aggregate(rel, ["g"], COUNT_SUM, fit, memory_pages=4000)
        hash_aggregate(
            rel, ["g"], COUNT_SUM, spill, memory_pages=30, disk=SimulatedDisk(spill)
        )
        sort_aggregate(rel, ["g"], COUNT_SUM, sort)
        one_pass, spilling, sorting = (
            c.cost(TABLE2_DEFAULTS) for c in (fit, spill, sort)
        )
        assert one_pass < spilling < sorting

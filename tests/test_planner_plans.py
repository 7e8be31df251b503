"""Unit tests for the physical plan nodes and cost estimation helpers."""

import math

import pytest

from repro.cost.parameters import TABLE2_DEFAULTS
from repro.operators.aggregate import AggregateFunction, AggregateSpec
from repro.operators.selection import Comparison
from repro.planner.plan import (
    AggregateNode,
    FilterNode,
    IndexScanNode,
    JoinNode,
    PlanContext,
    ProjectNode,
    ScanNode,
    estimate_join_cost,
)
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, make_schema


@pytest.fixture
def catalog():
    cat = Catalog()
    rel = Relation(
        "t", make_schema(("k", DataType.INTEGER), ("v", DataType.INTEGER)), 64
    )
    for i in range(200):
        rel.insert_unchecked((i, i % 10))
    cat.register(rel)
    other = Relation(
        "u", make_schema(("uk", DataType.INTEGER), ("w", DataType.INTEGER)), 64
    )
    for i in range(50):
        other.insert_unchecked((i, i))
    cat.register(other)
    cat.analyze("t")
    cat.analyze("u")
    return cat


@pytest.fixture
def ctx(catalog):
    return PlanContext(catalog=catalog, memory_pages=100)


class TestScanNode:
    def test_estimates_from_stats(self, catalog):
        node = ScanNode("t", catalog)
        assert node.estimated_rows == 200
        assert node.estimated_pages > 0

    def test_execute_returns_base_relation(self, catalog, ctx):
        node = ScanNode("t", catalog)
        assert node.execute(ctx) is catalog.relation("t")

    def test_label_and_explain(self, catalog, ctx):
        node = ScanNode("t", catalog)
        assert node.label() == "Scan(t)"
        text = node.explain(ctx)
        assert "rows~200" in text and "cost=" in text
        # A node that prunes says which columns it carries, at every level.
        scan = ScanNode("t", catalog, columns=["v"])
        assert scan.label() == "Scan(t)[v]"
        assert scan.schema.names == ["v"]
        chain = FilterNode(
            IndexScanNode(
                "u", Comparison("uk", "<", 9), catalog, 0.2, columns=["uk"]
            ),
            Comparison("uk", "!=", 3), 0.9,
        )
        assert chain.schema.names == ["uk"]
        assert chain.explain().splitlines() == [
            "Filter(Comparison(column='uk', op='!=', value=3))  rows~9",
            "  IndexScan(u.uk < 9)[uk]  rows~10",
        ]

    def test_pruned_scan_is_an_uncharged_uncached_repack(self, catalog):
        from repro.planner.reuse import PlanReuseCache

        for batch in (False, True):
            ctx = PlanContext(
                catalog=catalog, memory_pages=100, batch=batch,
                reuse_cache=PlanReuseCache(),
            )
            out = ScanNode("t", catalog, columns=["v"]).execute(ctx)
            assert list(out) == [(i % 10,) for i in range(200)]
            assert out.tuples_per_page == 2 * catalog.relation("t").tuples_per_page
            assert ctx.counters.as_dict() == PlanContext(catalog).counters.as_dict()
            assert len(ctx.reuse_cache) == 0

    def test_explain_without_context_omits_cost(self, catalog):
        assert "cost=" not in ScanNode("t", catalog).explain()


class TestFilterNode:
    def test_cardinality_scales_by_selectivity(self, catalog):
        scan = ScanNode("t", catalog)
        node = FilterNode(scan, Comparison("v", "=", 3), selectivity=0.1)
        assert node.estimated_rows == pytest.approx(20)

    def test_total_cost_includes_child(self, catalog, ctx):
        scan = ScanNode("t", catalog)
        node = FilterNode(scan, Comparison("v", "=", 3), 0.1)
        assert node.total_cost(ctx) > node.estimated_cost(ctx)

    def test_execute_filters(self, catalog, ctx):
        scan = ScanNode("t", catalog)
        node = FilterNode(scan, Comparison("v", "=", 3), 0.1)
        out = node.execute(ctx)
        assert all(row[1] == 3 for row in out)
        assert out.cardinality == 20


class TestJoinNode:
    def test_unknown_algorithm_rejected(self, catalog):
        scan_t, scan_u = ScanNode("t", catalog), ScanNode("u", catalog)
        with pytest.raises(ValueError):
            JoinNode(scan_t, scan_u, "k", "uk", "merge-sort", 100)

    def test_execute_produces_join(self, catalog, ctx):
        scan_t, scan_u = ScanNode("t", catalog), ScanNode("u", catalog)
        node = JoinNode(scan_t, scan_u, "k", "uk", "hybrid-hash", 50)
        out = node.execute(ctx)
        assert out.cardinality == 50  # keys 0..49 match

    def test_children_and_costs(self, catalog, ctx):
        scan_t, scan_u = ScanNode("t", catalog), ScanNode("u", catalog)
        node = JoinNode(scan_t, scan_u, "k", "uk", "hybrid-hash", 50)
        assert node.children() == [scan_t, scan_u]
        assert node.total_cost(ctx) >= node.estimated_cost(ctx)


class TestProjectAndAggregateNodes:
    def test_project_schema(self, catalog, ctx):
        node = ProjectNode(ScanNode("t", catalog), ["v"], distinct=True,
                           distinct_ratio=0.05)
        assert node.schema.names == ["v"]
        out = node.execute(ctx)
        assert out.cardinality == 10

    def test_project_sort_method(self, catalog, ctx):
        node = ProjectNode(ScanNode("t", catalog), ["v"], distinct=True,
                           method="sort")
        out = node.execute(ctx)
        assert [r[0] for r in out] == sorted(r[0] for r in out)

    def test_aggregate_schema_and_result(self, catalog, ctx):
        node = AggregateNode(
            ScanNode("t", catalog),
            ["v"],
            [AggregateSpec(AggregateFunction.COUNT, alias="n")],
        )
        assert node.schema.names == ["v", "n"]
        out = node.execute(ctx)
        assert sum(row[1] for row in out) == 200

    def test_sort_method_costs_more(self, catalog, ctx):
        base = ScanNode("t", catalog)
        aggs = [AggregateSpec(AggregateFunction.COUNT, alias="n")]
        hash_node = AggregateNode(base, ["v"], aggs, method="hash")
        sort_node = AggregateNode(base, ["v"], aggs, method="sort")
        assert sort_node.estimated_cost(ctx) > hash_node.estimated_cost(ctx)


class TestEstimateJoinCost:
    def test_infeasible_two_pass_is_infinite(self, ctx):
        # Memory far below sqrt(|S|F).
        tiny = PlanContext(catalog=ctx.catalog, memory_pages=2)
        cost = estimate_join_cost(
            "grace-hash", 1e6, 1e6, 25_000, 25_000, tiny
        )
        assert math.isinf(cost)

    def test_nested_loops_quadratic_cpu(self, ctx):
        small = estimate_join_cost("nested-loops", 100, 100, 1, 1, ctx)
        large = estimate_join_cost("nested-loops", 1000, 1000, 10, 10, ctx)
        assert large > 50 * small

    def test_w_weights_cpu(self, catalog):
        light = PlanContext(catalog=catalog, memory_pages=100, w=1.0)
        heavy = PlanContext(catalog=catalog, memory_pages=100, w=10.0)
        a = estimate_join_cost("hybrid-hash", 1000, 1000, 10, 10, light)
        b = estimate_join_cost("hybrid-hash", 1000, 1000, 10, 10, heavy)
        assert b == pytest.approx(10 * a)

    def test_swaps_sides_so_r_is_smaller(self, ctx):
        a = estimate_join_cost("hybrid-hash", 100, 10_000, 5, 400, ctx)
        b = estimate_join_cost("hybrid-hash", 10_000, 100, 400, 5, ctx)
        assert a == pytest.approx(b)

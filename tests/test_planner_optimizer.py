"""Tests for the Section 4 planner: pushdown, ordering, algorithm choice."""

import random

import pytest

from repro.access.btree import BPlusTree
from repro.cost.parameters import CostParameters
from repro.operators.aggregate import AggregateFunction, AggregateSpec
from repro.operators.selection import Comparison
from repro.planner.plan import (
    AggregateNode,
    FilterNode,
    IndexScanNode,
    JoinNode,
    ProjectNode,
    ScanNode,
)
from repro.planner.planner import Planner, PlannerConfig
from repro.planner.query import JoinClause, Query
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, make_schema


@pytest.fixture
def catalog():
    """A three-table star: orders -> customers, orders -> items."""
    cat = Catalog()
    rng = random.Random(12)

    customers = Relation(
        "customers",
        make_schema(("cust_id", DataType.INTEGER), ("region", DataType.INTEGER)),
        64,
    )
    for i in range(50):
        customers.insert_unchecked((i, i % 5))
    cat.register(customers)

    items = Relation(
        "items",
        make_schema(("item_id", DataType.INTEGER), ("price", DataType.INTEGER)),
        64,
    )
    for i in range(20):
        items.insert_unchecked((i, 10 + i))
    cat.register(items)

    orders = Relation(
        "orders",
        make_schema(
            ("order_id", DataType.INTEGER),
            ("cust", DataType.INTEGER),
            ("item", DataType.INTEGER),
            ("qty", DataType.INTEGER),
        ),
        64,
    )
    for i in range(500):
        orders.insert_unchecked(
            (i, rng.randrange(50), rng.randrange(20), rng.randrange(1, 9))
        )
    cat.register(orders)

    for name in cat.relations():
        cat.analyze(name)
    return cat


@pytest.fixture
def planner(catalog):
    return Planner(catalog, PlannerConfig(memory_pages=500))


def reference_query_result(catalog, region):
    out = []
    customers = {row[0]: row for row in catalog.relation("customers")}
    items = {row[0]: row for row in catalog.relation("items")}
    for order in catalog.relation("orders"):
        cust = customers[order[1]]
        if cust[1] != region:
            continue
        item = items[order[2]]
        out.append(order + cust + item)
    return out


class TestSingleTablePlans:
    def test_scan_plus_filter(self, planner):
        q = Query(
            tables=["orders"],
            predicates=[("orders", Comparison("qty", ">", 4))],
        )
        plan = planner.plan(q)
        assert isinstance(plan, FilterNode)
        assert isinstance(plan.child, ScanNode)
        result = plan.execute(planner.context())
        assert all(row[3] > 4 for row in result)

    def test_no_predicates_is_bare_scan(self, planner):
        plan = planner.plan(Query(tables=["orders"]))
        assert isinstance(plan, ScanNode)

    def test_index_scan_chosen_for_selective_equality(self, catalog):
        index = BPlusTree()
        rel = catalog.relation("orders")
        for tid, row in rel.scan():
            index.insert(row[0], tid)
        catalog.register_index("orders", "order_id", index)
        planner = Planner(catalog)
        q = Query(
            tables=["orders"],
            predicates=[("orders", Comparison("order_id", "=", 7))],
        )
        plan = planner.plan(q)
        assert isinstance(plan, IndexScanNode)
        rows = list(plan.execute(planner.context()))
        assert len(rows) == 1 and rows[0][0] == 7

    def test_unselective_predicate_keeps_scan(self, catalog):
        index = BPlusTree()
        rel = catalog.relation("orders")
        for tid, row in rel.scan():
            index.insert(row[3], tid)
        catalog.register_index("orders", "qty", index)
        planner = Planner(catalog)
        q = Query(
            tables=["orders"],
            predicates=[("orders", Comparison("qty", ">=", 1))],  # keeps all
        )
        plan = planner.plan(q)
        assert isinstance(plan, FilterNode)


class TestJoinPlans:
    def test_two_way_join_correct(self, planner, catalog):
        q = Query(
            tables=["orders", "customers"],
            joins=[JoinClause("orders", "cust", "customers", "cust_id")],
        )
        plan = planner.plan(q)
        assert isinstance(plan, JoinNode)
        result = plan.execute(planner.context())
        assert result.cardinality == 500  # FK join preserves orders

    def test_three_way_join_matches_reference(self, planner, catalog):
        q = Query(
            tables=["orders", "customers", "items"],
            predicates=[("customers", Comparison("region", "=", 2))],
            joins=[
                JoinClause("orders", "cust", "customers", "cust_id"),
                JoinClause("orders", "item", "items", "item_id"),
            ],
        )
        plan = planner.plan(q)
        result = plan.execute(planner.context())
        expected = reference_query_result(catalog, region=2)
        got = sorted(tuple(sorted(map(repr, row))) for row in result)
        want = sorted(tuple(sorted(map(repr, row))) for row in expected)
        assert got == want

    def test_hash_algorithm_chosen_with_large_memory(self, planner):
        """Section 4's claim: with ample memory the cost-based choice is
        always a hash algorithm."""
        q = Query(
            tables=["orders", "customers"],
            joins=[JoinClause("orders", "cust", "customers", "cust_id")],
        )
        plan = planner.plan(q)
        assert plan.algorithm in ("hybrid-hash", "simple-hash")

    def test_restricting_algorithms(self, catalog):
        planner = Planner(
            catalog,
            PlannerConfig(join_algorithms=["sort-merge"]),
        )
        q = Query(
            tables=["orders", "customers"],
            joins=[JoinClause("orders", "cust", "customers", "cust_id")],
        )
        assert planner.plan(q).algorithm == "sort-merge"

    def test_selective_table_seeds_the_ordering(self, planner):
        """The most selective input sits deepest in the tree."""
        q = Query(
            tables=["orders", "customers", "items"],
            predicates=[("customers", Comparison("region", "=", 2))],
            joins=[
                JoinClause("orders", "cust", "customers", "cust_id"),
                JoinClause("orders", "item", "items", "item_id"),
            ],
        )
        plan = planner.plan(q)
        # Walk to the deepest join: its inputs should include the filtered
        # customers (estimated ~10 rows) or tiny items, not raw orders.
        deepest = plan
        while isinstance(deepest.left, JoinNode):
            deepest = deepest.left
        left_rows = deepest.left.estimated_rows
        assert left_rows <= 50

    def test_disconnected_query_rejected(self, planner):
        q = Query(tables=["orders", "customers"])  # no join clause
        with pytest.raises(ValueError):
            planner.plan(q)

    def test_column_clash_rejected(self, catalog):
        clash = Relation(
            "clash", make_schema(("cust_id", DataType.INTEGER)), 64
        )
        catalog.register(clash)
        planner = Planner(catalog)
        q = Query(
            tables=["customers", "clash"],
            joins=[JoinClause("customers", "cust_id", "clash", "cust_id")],
        )
        with pytest.raises(ValueError):
            planner.plan(q)


class TestAggregateAndProjection:
    def test_group_by_plan(self, planner, catalog):
        q = Query(
            tables=["orders"],
            group_by=["item"],
            aggregates=[AggregateSpec(AggregateFunction.SUM, "qty", "total")],
        )
        plan = planner.plan(q)
        assert isinstance(plan, AggregateNode)
        result = plan.execute(planner.context())
        totals = {row[0]: row[1] for row in result}
        expected = {}
        for row in catalog.relation("orders"):
            expected[row[2]] = expected.get(row[2], 0) + row[3]
        assert totals == pytest.approx(expected)

    def test_distinct_projection_plan(self, planner, catalog):
        q = Query(tables=["orders"], projection=["item"], distinct=True)
        plan = planner.plan(q)
        assert isinstance(plan, ProjectNode)
        result = plan.execute(planner.context())
        assert sorted(result) == [
            (v,) for v in sorted({row[2] for row in catalog.relation("orders")})
        ]

    def test_aggregate_defaults_to_hash_method(self, planner):
        q = Query(
            tables=["orders"],
            group_by=["item"],
            aggregates=[AggregateSpec(AggregateFunction.COUNT, alias="n")],
        )
        plan = planner.plan(q)
        assert plan.method == "hash"


class TestExplain:
    def test_explain_is_readable(self, planner):
        q = Query(
            tables=["orders", "customers"],
            predicates=[("customers", Comparison("region", "=", 1))],
            joins=[JoinClause("orders", "cust", "customers", "cust_id")],
        )
        text = planner.explain(q)
        assert "Join" in text
        assert "Scan(orders)" in text
        assert "cost=" in text

    def test_costs_accumulate_up_the_tree(self, planner):
        q = Query(
            tables=["orders", "customers"],
            joins=[JoinClause("orders", "cust", "customers", "cust_id")],
        )
        plan = planner.plan(q)
        ctx = planner.context()
        assert plan.total_cost(ctx) >= plan.left.total_cost(ctx)
        assert plan.total_cost(ctx) >= plan.estimated_cost(ctx)


class TestQueryValidation:
    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError):
            Query(tables=[])

    def test_duplicate_tables_rejected(self):
        with pytest.raises(ValueError):
            Query(tables=["a", "a"])

    def test_predicate_on_unknown_table(self):
        with pytest.raises(ValueError):
            Query(tables=["a"], predicates=[("b", Comparison("x", "=", 1))])

    def test_join_on_unknown_table(self):
        with pytest.raises(ValueError):
            Query(tables=["a"], joins=[JoinClause("a", "x", "b", "y")])

    def test_projection_and_aggregates_exclusive(self):
        with pytest.raises(ValueError):
            Query(
                tables=["a"],
                projection=["x"],
                aggregates=[AggregateSpec(AggregateFunction.COUNT)],
            )


class TestLargeMemoryPlanning:
    """E11: with hash joins, Section 4's optimisation reduces to pushing
    selective operators down; hashing is chosen at every grant above the
    floor, and input order does not matter."""

    @pytest.fixture(scope="class")
    def shop(self):
        cat = Catalog()
        rng = random.Random(9)
        customers = Relation(
            "customers",
            make_schema(("cust_id", DataType.INTEGER), ("region", DataType.INTEGER)),
            256,
        )
        for i in range(1000):
            customers.insert_unchecked((i, i % 50))
        orders = Relation(
            "orders",
            make_schema(
                ("order_id", DataType.INTEGER),
                ("cust", DataType.INTEGER),
                ("total", DataType.INTEGER),
            ),
            256,
        )
        for i in range(5000):
            orders.insert_unchecked((i, rng.randrange(1000), rng.randrange(1000)))
        for relation in (customers, orders):
            cat.register(relation)
            cat.analyze(relation.name)
        return cat

    JOIN = JoinClause("orders", "cust", "customers", "cust_id")

    def join_spec(self, shop, s):
        from repro.cost.parameters import TABLE2_DEFAULTS
        from repro.join import JoinSpec

        return JoinSpec(
            r=shop.relation("customers"), s=s, r_field="cust_id", s_field="cust",
            memory_pages=1024, params=TABLE2_DEFAULTS,
        )

    def test_hash_join_chosen_at_every_grant(self, shop):
        query = Query(
            tables=["orders", "customers"],
            predicates=[("customers", Comparison("region", "=", 7))],
            joins=[self.JOIN],
        )
        choices = {}
        for memory in (64, 256, 1024, 4096):
            node = Planner(shop, PlannerConfig(memory_pages=memory)).plan(query)
            while not isinstance(node, JoinNode):
                node = node.children()[0]
            choices[memory] = node.algorithm
        assert all("hash" in a for a in choices.values()), choices
        assert choices[4096] == "hybrid-hash"

    def test_pushdown_beats_filtering_last(self, shop):
        from repro.cost.counters import OperationCounters
        from repro.cost.parameters import TABLE2_DEFAULTS
        from repro.join import ALL_JOINS
        from repro.operators.selection import select
        from repro.planner.plan import PlanContext

        cheap = Comparison("total", "<", 10)  # ~1% of orders, probe side
        query = Query(
            tables=["orders", "customers"],
            predicates=[("orders", cheap)],
            joins=[self.JOIN],
        )
        ctx = PlanContext(
            catalog=shop, memory_pages=1024, params=TABLE2_DEFAULTS,
            counters=OperationCounters(),
        )
        optimized = Planner(shop, PlannerConfig(memory_pages=1024)).plan(query).execute(ctx)
        naive_counters = OperationCounters()
        joined = ALL_JOINS["hybrid-hash"](counters=naive_counters).join(
            self.join_spec(shop, shop.relation("orders"))
        )
        naive = select(joined.relation, cheap, naive_counters)
        assert optimized.cardinality == naive.cardinality > 0
        assert ctx.counters.cost(TABLE2_DEFAULTS) < 0.5 * naive_counters.cost(
            TABLE2_DEFAULTS
        )

    def test_hash_join_cost_ignores_input_order(self, shop):
        from repro.cost.counters import OperationCounters
        from repro.cost.parameters import TABLE2_DEFAULTS
        from repro.join import ALL_JOINS

        orders = shop.relation("orders")
        costs = []
        for seed in (1, 2):
            rows = list(orders)
            random.Random(seed).shuffle(rows)
            shuffled = Relation("orders%d" % seed, orders.schema, 256)
            for row in rows:
                shuffled.insert_unchecked(row)
            counters = OperationCounters()
            ALL_JOINS["hybrid-hash"](counters=counters).join(self.join_spec(shop, shuffled))
            costs.append(counters.cost(TABLE2_DEFAULTS))
        assert costs[0] == pytest.approx(costs[1], rel=0.01)

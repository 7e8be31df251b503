"""Column pruning on the paper's clock (PR 17, EXPERIMENTS.md E25).

The planner tells every access path which columns anything above it
reads, and the copy-outs read only those buffers.  Three claims:

* **Free in memory.**  Pruning decides which buffers an already-priced
  copy-out reads, so a pruned plan charges exactly what the same plan
  carrying every column charges, in both arms; against the ``SELECT *``
  form of a statement the only difference is the top ``Project``'s one
  move per row out.
* **Cheaper once it spills.**  Narrow rows are fewer pages: at the
  ledger's ``join_spill_skew`` geometry no count of the pruned
  ``join2_uniform`` exceeds that of the same plan carrying every column,
  the I/O counts are strictly lower, and modelled seconds rise with the
  columns carried.
* **Specification arm == production arm** on rows, counters and token
  checks for every node kind that prunes, over packed ``'q'`` / ``'d'``
  buffers, ``'o'`` object lists and demoted columns.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import DataType, MainMemoryDatabase
from repro.cost.counters import OperationCounters
from repro.governor import CancellationToken, QueryGuard
from repro.operators.selection import And, Comparison, Predicate, Prefix
from repro.planner.plan import (
    AggregateNode,
    FilterNode,
    IndexScanNode,
    JoinNode,
    PlanContext,
    ProjectNode,
    ScanNode,
)
from repro.planner.query import JoinClause, Query
from repro.planner.sql import parse_sql
from tests.conftest import access_paths, wisc_db

ARMS = (False, True)  # the tuple-at-a-time specification, the production arm

def toy_wisc_db():
    return wisc_db(600, 60, reuse_cache=False)


def widen(node, catalog):
    """``node``'s plan with every access path carrying all its columns:
    what the planner built before it pruned."""
    if isinstance(node, ScanNode):
        return ScanNode(node.table, catalog)
    if isinstance(node, IndexScanNode):
        return IndexScanNode(node.table, node.predicate, catalog, 1.0)
    if isinstance(node, FilterNode):
        return FilterNode(widen(node.child, catalog), node.predicate, 1.0)
    if isinstance(node, JoinNode):
        return JoinNode(
            widen(node.left, catalog), widen(node.right, catalog),
            node.left_column, node.right_column, node.algorithm,
            node.estimated_rows,
        )
    if isinstance(node, ProjectNode):
        return ProjectNode(
            widen(node.child, catalog), node.columns, node.distinct, node.method
        )
    assert isinstance(node, AggregateNode), node
    return AggregateNode(
        widen(node.child, catalog), node.group_by, node.aggregates, node.method
    )


def run(db, plan, batch):
    """(multiset of rows, counters, token checks) of one execution."""
    token = CancellationToken(qid=1)
    ctx = PlanContext(
        catalog=db.catalog,
        memory_pages=db.memory_pages,
        params=db.params,
        counters=OperationCounters(),
        batch=batch,
        guard=QueryGuard(token=token),
    )
    out = plan.execute(ctx)
    return Counter(out), ctx.counters.as_dict(), token.checks


#: The ledger's statement shapes at toy size, and the two degenerate ones
#: (nothing but a bare scan to prune; no column read at all).
WHERE1 = "WHERE unique2 >= 30 AND unique2 < 330"
WHERE2 = "WHERE t2_unique2 >= 40 AND t2_unique2 < 100"
SHAPES = {
    "proj_distinct": "SELECT DISTINCT hundred FROM tenk1 " + WHERE1,
    "agg_min_grp": (
        "SELECT t2_hundred, MIN(t2_unique1) AS lo FROM tenk2 "
        "WHERE t2_unique2 >= 30 AND t2_unique2 < 330 GROUP BY t2_hundred"
    ),
    "join_bprime": (
        "SELECT unique1, bp_unique2 FROM tenk1 "
        "JOIN bprime ON tenk1.unique1 = bprime.bp_unique1 " + WHERE1
    ),
    "join_sel": (
        "SELECT unique2, t2_unique1 FROM tenk1 "
        "JOIN tenk2 ON tenk1.unique1 = tenk2.t2_unique1 " + WHERE2
    ),
    "join_agg": (
        "SELECT bp_ten, COUNT(*) AS n FROM tenk2 "
        "JOIN bprime ON tenk2.t2_unique1 = bprime.bp_unique1 "
        "WHERE t2_unique2 >= 30 AND t2_unique2 < 330 GROUP BY bp_ten"
    ),
    "bare_project": "SELECT two, unique1 FROM tenk1",
    "count_star": "SELECT COUNT(*) AS n FROM tenk1 WHERE two = 1",
}


class TestFreeInMemory:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("batch", ARMS)
    def test_pruned_plan_charges_what_the_wide_plan_charges(self, shape, batch):
        db = toy_wisc_db()
        plan = db.plan(parse_sql(SHAPES[shape], db.catalog))
        paths = access_paths(plan).values()
        assert all(path.columns is not None for path in paths), plan.explain()
        rows, charged, _ = run(db, plan, batch)
        wide_rows, wide_charged, _ = run(db, widen(plan, db.catalog), batch)
        assert rows == wide_rows and sum(rows.values()) > 0
        assert charged == wide_charged

    @pytest.mark.parametrize("shape", ["join_bprime", "join_sel", "bare_project"])
    @pytest.mark.parametrize("batch", ARMS)
    def test_select_star_differs_by_the_top_project_alone(self, shape, batch):
        db = toy_wisc_db()
        sql = SHAPES[shape]
        star = "SELECT *" + sql[sql.index(" FROM"):]
        rows, charged, _ = run(db, db.plan(parse_sql(sql, db.catalog)), batch)
        _, star_charged, _ = run(db, db.plan(parse_sql(star, db.catalog)), batch)
        rows_out = sum(rows.values())
        assert rows_out > 0
        star_charged["moves"] += rows_out
        assert charged == star_charged

    def test_select_star_keeps_the_unpruned_nodes(self):
        db = toy_wisc_db()
        plan = db.plan(parse_sql("SELECT * FROM tenk1 " + WHERE1, db.catalog))
        node = plan
        while True:
            assert node.columns is None and "[" not in node.label()
            if not node.children():
                break
            (node,) = node.children()

    def test_a_fully_read_table_keeps_the_unpruned_nodes(self):
        db = MainMemoryDatabase()
        db.create_table("t", [("a", DataType.INTEGER), ("b", DataType.INTEGER)])
        db.insert_many("t", [(i, i % 3) for i in range(20)])
        plan = db.plan(parse_sql("SELECT b, a FROM t WHERE a < 9", db.catalog))
        path = access_paths(plan)["t"]
        assert path.columns is None
        ctx = db._planner.context()
        assert path.fingerprint(ctx) == widen(path, db.catalog).fingerprint(ctx)

    def test_an_opaque_predicate_keeps_every_column_below_it(self):
        class Odd(Predicate):  # says nothing about what it reads
            def evaluate(self, schema, row):
                return row[schema.index_of("unique1")] % 2 == 1

            def comparisons(self):
                return 1

        db = toy_wisc_db()
        for opaque, four_below in (
            (Odd(), 4), (And(Odd(), Comparison("four", "<", 3)), 3)
        ):
            # Written most selective first (1/3, then two estimates of
            # 1/2), which is the order the planner chains them in: the
            # opaque predicate has a filter below it and one above.
            query = Query(
                tables=["tenk1"],
                predicates=[
                    ("tenk1", Comparison("ten", "<", 3)),
                    ("tenk1", opaque),
                    ("tenk1", Comparison("two", "=", 1)),
                ],
                projection=["hundred"],
            )
            plan = db.plan(query)
            top = plan.child
            assert top.columns == ["hundred"]            # above it: pruned
            assert top.child.columns == ["two", "hundred"]
            assert top.child.child.columns is None       # below it: all
            for batch in ARMS:
                rows, _, _ = run(db, plan, batch)
                assert rows == Counter(
                    (r[6],) for r in db.table("tenk1")
                    if r[4] < 3 and r[0] % 2 == 1 and r[3] < four_below
                    and r[2] == 1
                )


class TestCheaperOnceItSpills:
    """The ledger's ``join2_uniform`` at its own geometry: 512-byte pages,
    a 19-page grant, a 2,048-row build side and a 3,072-row probe side."""

    COLUMNS = {
        2: "f_id, d_a",
        3: "f_id, f_val, d_a, d_b",
        4: "*",
    }

    @pytest.fixture(scope="class")
    def db(self):
        db = MainMemoryDatabase(
            memory_pages=19, page_bytes=512, reuse_cache=False
        )
        rng = random.Random(29)
        dim = db.create_table(
            "dim", [(c, DataType.INTEGER) for c in ("d_id", "d_grp", "d_a", "d_b")]
        )
        ids = list(range(2048))
        rng.shuffle(ids)
        dim.extend_rows([(i, i % 50, rng.randrange(1000), 0) for i in ids])
        fact = db.create_table(
            "fact", [(c, DataType.INTEGER) for c in ("f_id", "f_uni", "f_zipf", "f_val")]
        )
        fact.extend_rows([
            (i, rng.randrange(2048), i % 384, rng.randrange(100))
            for i in range(3072)
        ])
        db.analyze()
        return db

    def charged(self, db, columns, batch, carry_all=False):
        sql = "SELECT %s FROM fact JOIN dim ON fact.f_uni = dim.d_id" % columns
        plan = db.plan(parse_sql(sql, db.catalog))
        if carry_all:
            plan = widen(plan, db.catalog)
        rows, charged, _ = run(db, plan, batch)
        assert sum(rows.values()) == 3072
        return charged

    @pytest.mark.parametrize("batch", ARMS)
    def test_no_count_above_the_wide_plans_and_fewer_ios(self, db, batch):
        pruned = self.charged(db, self.COLUMNS[2], batch)
        wide = self.charged(db, self.COLUMNS[2], batch, carry_all=True)
        assert all(pruned[name] <= wide[name] for name in wide), (pruned, wide)
        assert 0 < pruned["sequential_ios"] < wide["sequential_ios"]
        assert 0 < pruned["random_ios"] < wide["random_ios"]
        # SELECT * is that wide plan less the top Project's move per row.
        wide["moves"] -= 3072
        assert wide == self.charged(db, "*", batch)

    def test_modelled_seconds_rise_with_the_columns_carried(self, db):
        """E25: equal in memory (TestFreeInMemory), falling with width
        once the join spills."""
        seconds = []
        for per_table in sorted(self.COLUMNS):
            counters = OperationCounters()
            for name, count in self.charged(
                db, self.COLUMNS[per_table], True
            ).items():
                setattr(counters, name, count)
            seconds.append(counters.cost(db.params))
        assert seconds == sorted(seconds) and seconds[0] < seconds[-1] / 2


def mixed_db(batch):
    """One table with a packed int ('q'), a packed float ('d'), a string
    ('o') and two columns that demote on some pages (an int beyond int64;
    an int stored in a float column), and a second one to join."""
    db = MainMemoryDatabase(page_bytes=256, reuse_cache=False, batch=batch)
    db.create_table("t", [
        ("k", DataType.INTEGER), ("x", DataType.FLOAT),
        ("name", DataType.STRING), ("big", DataType.INTEGER),
        ("mixed", DataType.FLOAT), ("pad", DataType.INTEGER),
    ])
    names = ("Jones", "Johnson", "Smith", "Jo", "Adams")
    db.insert_many("t", [
        (
            i % 23, i * 0.5, names[i % 5],
            (1 << 70) if i % 17 == 0 else i,
            i if i % 29 == 0 else i * 0.25, -i,
        )
        for i in range(150)
    ])
    db.create_table("u", [("uk", DataType.INTEGER), ("uv", DataType.STRING)])
    db.insert_many("u", [(i, "u%d" % i) for i in range(0, 23, 2)])
    db.create_index("t", "k", kind="btree")
    db.create_index("t", "name", kind="btree")
    db.analyze()
    return db


#: (query, the node kinds its access paths must contain) -- one per
#: pruning node kind and predicate form.
T_ALL = ["k", "x", "name", "big", "mixed", "pad"]
NODE_QUERIES = {
    "index =": (
        Query(tables=["t"], predicates=[("t", Comparison("k", "=", 7))],
              projection=["big", "name"]),
        "IndexScan(t.k = 7)[name, big]",
    ),
    "index range": (
        Query(tables=["t"], predicates=[("t", Comparison("k", "<", 4))],
              projection=["mixed", "x"]),
        "IndexScan(t.k < 4)[x, mixed]",
    ),
    "index prefix": (
        Query(tables=["t"], predicates=[("t", Prefix("name", "Jo"))],
              projection=["x"], distinct=True),
        "IndexScan(t.name = 'Jo'*)[x]",
    ),
    "filter chain": (
        Query(tables=["t"],
              predicates=[("t", Comparison("x", ">=", 10.0)),
                          ("t", Comparison("pad", "!=", -40)),
                          ("t", Comparison("mixed", "<", 30))],
              projection=["name", "big"]),
        # The most selective of the three runs first, whatever was written.
        "Filter(Comparison(column='mixed', op='<', value=30))"
        "[x, name, big, pad]",
    ),
    "bare scan": (
        Query(tables=["t", "u"], joins=[JoinClause("t", "k", "u", "uk")],
              projection=["uv", "mixed", "big"]),
        "Scan(t)[k, big, mixed]",
    ),
}


class TestSpecificationArmEqualsProductionArm:
    @pytest.mark.parametrize("kind", sorted(NODE_QUERIES))
    def test_rows_counters_and_token_checks(self, kind):
        query, label = NODE_QUERIES[kind]
        results = []
        for batch in ARMS:
            db = mixed_db(batch)
            plan = db.plan(query)
            assert label in plan.explain()
            results.append(run(db, plan, batch))
            # The pruned answer and charges are the wide plan's (its
            # token checks are not: wider rows are more pages to check at).
            wide = run(db, widen(plan, db.catalog), batch)
            assert results[-1][:2] == wide[:2]
        assert results[0] == results[1]
        rows, _, checks = results[0]
        assert sum(rows.values()) > 0 and checks > 1

    def test_values_keep_their_exact_types(self):
        db = mixed_db(True)
        query, _ = NODE_QUERIES["bare scan"]
        out = db.execute(query)
        assert out.schema.names == ["uv", "mixed", "big"]
        rows = list(out)
        assert any(type(r[1]) is int for r in rows)        # demoted 'd'
        assert any(type(r[1]) is float for r in rows)
        assert any(r[2] == 1 << 70 for r in rows)          # demoted 'q'

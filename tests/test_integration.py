"""End-to-end integration scenarios spanning multiple subsystems."""

import random

import pytest

from repro import DataType, MainMemoryDatabase, TABLE2_DEFAULTS
from repro.operators import (
    AggregateFunction,
    AggregateSpec,
    Comparison,
    Prefix,
)
from repro.planner import JoinClause, Query
from repro.recovery import (
    Checkpointer,
    CommitPolicy,
    DatabaseState,
    DiskSnapshot,
    LogManager,
    TransactionEngine,
    VersionManager,
    crash,
    recover,
)
from repro.recovery.restart import replay_committed
from repro.sim import EventQueue, SimulatedClock
from repro.workload import BankingWorkload, employees_relation, join_inputs


class TestQueryStack:
    """The relational side, end to end: generator -> catalog -> planner ->
    executable operators -> instrumented cost."""

    @pytest.fixture
    def db(self):
        db = MainMemoryDatabase(memory_pages=500)
        db.register_table(employees_relation(600, seed=11))
        db.create_table(
            "dept", [("dept_id", DataType.INTEGER), ("budget", DataType.INTEGER)]
        )
        rng = random.Random(12)
        for i in range(20):
            db.insert("dept", (i, rng.randrange(10_000, 90_000)))
        db.create_index("emp", "name", kind="btree")
        db.create_index("emp", "emp_id", kind="hash")
        db.analyze()
        return db

    def test_full_query_pipeline(self, db):
        q = Query(
            tables=["emp", "dept"],
            predicates=[
                ("emp", Comparison("salary", ">=", 40_000)),
                ("dept", Comparison("budget", ">", 20_000)),
            ],
            joins=[JoinClause("emp", "dept", "dept", "dept_id")],
            group_by=["dept"],
            aggregates=[
                AggregateSpec(AggregateFunction.COUNT, alias="n"),
                AggregateSpec(AggregateFunction.MAX, "salary", "top"),
            ],
        )
        result = db.execute(q)

        # Reference computation straight off the base tables.
        budgets = {row[0]: row[1] for row in db.table("dept")}
        expected = {}
        for row in db.table("emp"):
            if row[2] >= 40_000 and budgets.get(row[3], 0) > 20_000:
                n, top = expected.get(row[3], (0, 0))
                expected[row[3]] = (n + 1, max(top, row[2]))
        got = {row[0]: (row[1], row[2]) for row in result}
        assert got == expected
        assert db.cost_report().total_seconds > 0

    def test_prefix_query_through_facade(self, db):
        q = Query(tables=["emp"], predicates=[("emp", Prefix("name", "J"))])
        result = db.execute(q)
        expected = [r for r in db.table("emp") if r[1].startswith("J")]
        assert sorted(result) == sorted(expected)

    def test_projection_distinct_through_planner(self, db):
        q = Query(tables=["emp"], projection=["dept"], distinct=True)
        result = db.execute(q)
        assert sorted(result) == [
            (d,) for d in sorted({r[3] for r in db.table("emp")})
        ]

    def test_index_maintenance_under_churn(self, db):
        rng = random.Random(13)
        for i in range(100):
            db.insert("emp", (10_000 + i, "Zed%03d" % i, 30_000, i % 20))
        assert len(db.lookup("emp", "emp_id", 10_050)) == 1
        removed = db.delete_where("emp", "dept", 3)
        assert removed > 0
        assert db.lookup("emp", "dept", 3) == []
        # The name B+-tree still serves prefix scans after the rebuild.
        zeds = db.range_lookup("emp", "name", "Zed", "Zee")
        assert all(r[1].startswith("Zed") for r in zeds)


class TestRecoveryStack:
    """The transactional side, end to end: workload -> engine -> group
    commit -> checkpoints -> crash -> recovery -> snapshot reads."""

    def test_lifecycle_with_versioned_reads(self):
        queue = EventQueue(SimulatedClock())
        state = DatabaseState(300, records_per_page=32, initial_value=50)
        lm = LogManager(queue, policy=CommitPolicy.GROUP, max_commit_delay=0.02)
        engine = TransactionEngine(state, queue, lm)
        versions = VersionManager(engine)
        snap_disk = DiskSnapshot()
        ck = Checkpointer(engine, snap_disk, interval=0.2)
        ck.start()

        bank = BankingWorkload(300, initial_balance=50,
                               transfer_fraction=1.0, deposit_fraction=0.0,
                               seed=21)
        t = 0.0
        while t < 1.5:
            script, _ = bank.next_script()
            engine.submit_at(t, script)
            t += 0.002

        # Periodic consistent audits while the workload runs.
        audit_totals = []

        def audit():
            with versions.snapshot() as view:
                audit_totals.append(view.total())

        at = 0.1
        while at < 1.5:
            queue.schedule_at(at, audit, label="audit")
            at += 0.1

        queue.run_until(1.5)
        assert audit_totals and all(x == 300 * 50 for x in audit_totals)
        assert engine.committed_count > 500

        # Crash and recover; the books still balance.
        cs = crash(engine, ck)
        out = recover(cs, initial_value=50)
        assert out.state.values == replay_committed(cs, initial_value=50).values
        assert out.state.total_balance() == 300 * 50

        # Log truncation below the redo bound is safe: recovery from the
        # truncated log gives the same state.
        bound = min(cs.dirty_first_lsn.values()) if cs.dirty_first_lsn else 0
        lm.truncate_before(bound)
        cs2 = crash(engine, ck)
        out2 = recover(cs2, initial_value=50)
        assert out2.state.values == out.state.values

    def test_mixed_policies_agree_on_state(self):
        """The same deterministic workload reaches the same final state
        under every commit policy once everything is flushed."""
        finals = []
        for policy in (CommitPolicy.CONVENTIONAL, CommitPolicy.GROUP,
                       CommitPolicy.STABLE):
            queue = EventQueue(SimulatedClock())
            state = DatabaseState(50, records_per_page=8, initial_value=0)
            lm = LogManager(queue, policy=policy)
            engine = TransactionEngine(state, queue, lm)
            rng = random.Random(99)
            for _ in range(200):
                a, b = sorted(rng.sample(range(50), 2))
                amt = rng.randrange(1, 5)
                engine.submit(
                    [
                        ("write", a, lambda v, amt=amt: v - amt),
                        ("write", b, lambda v, amt=amt: v + amt),
                    ]
                )
            lm.flush()
            queue.run_to_completion()
            assert engine.committed_count == 200
            finals.append(list(state.values))
        assert finals[0] == finals[1] == finals[2]


class TestJoinsOnGeneratedWorkloads:
    def test_wisconsin_style_join_through_planner(self):
        from repro.planner.planner import Planner, PlannerConfig
        from repro.storage.catalog import Catalog

        r, s = join_inputs(1500, 4500, key_domain=2000, seed=31)
        catalog = Catalog()
        catalog.register(r)
        catalog.register(s)
        planner = Planner(catalog, PlannerConfig(memory_pages=200))
        q = Query(
            tables=["R", "S"],
            joins=[JoinClause("R", "rkey", "S", "skey")],
        )
        plan = planner.plan(q)
        result = plan.execute(planner.context())

        r_keys = {}
        for row in r:
            r_keys.setdefault(row[0], 0)
            r_keys[row[0]] += 1
        expected = sum(r_keys.get(row[0], 0) for row in s)
        assert result.cardinality == expected


TENK, ONEK = 10_000, 1_000

WISCONSIN_QUERIES = [
    ("SELECT * FROM tenk1 WHERE hundred = 42", TENK // 100),
    ("SELECT * FROM tenk1 WHERE unique2 < %d" % (TENK // 10), TENK // 10),
    ("SELECT * FROM tenk1 WHERE unique2 < %d" % (TENK // 100), TENK // 100),
    ("SELECT * FROM tenk1 WHERE unique1 = 4711", 1),
    ("SELECT unique1, b_unique2 FROM tenk1 "
     "JOIN bprime ON tenk1.unique1 = bprime.b_unique1", ONEK),
    ("SELECT hundred, MIN(unique1) AS lo FROM tenk1 GROUP BY hundred", 100),
    ("SELECT b_ten, COUNT(*) AS n FROM tenk1 "
     "JOIN bprime ON tenk1.unique1 = bprime.b_unique1 GROUP BY b_ten", 10),
    ("SELECT DISTINCT ten FROM tenk1", 10),
]


class TestWisconsinSuite:
    """E17: the Wisconsin benchmark's classic queries through SQL and the
    planner return their exact cardinalities, and the 1% indexed
    selection is planned as an index scan far cheaper than the scan."""

    @pytest.fixture(scope="class")
    def db(self):
        from repro.storage.relation import Relation
        from repro.storage.tuples import Field, Schema
        from repro.workload.generator import wisconsin_relation

        db = MainMemoryDatabase(memory_pages=2000)
        db.register_table(wisconsin_relation("tenk1", TENK, seed=41))
        # The 1k-row join partner, renamed apart from tenk1's columns.
        bprime = Relation(
            "bprime",
            Schema([
                Field(name, DataType.INTEGER)
                for name in ("b_unique1", "b_unique2", "b_ten", "b_hundred", "b_filler")
            ]),
            512,
        )
        for row in wisconsin_relation("bprime", ONEK, seed=42):
            bprime.insert_unchecked(row)
        db.register_table(bprime)
        db.create_index("tenk1", "unique1", kind="btree")
        db.create_index("tenk1", "unique2", kind="btree")
        db.analyze()
        return db

    @pytest.mark.parametrize("sql, expected", WISCONSIN_QUERIES)
    def test_exact_cardinalities(self, db, sql, expected):
        db.reset_counters()
        assert db.sql(sql).cardinality == expected
        assert db.cost_report().total_seconds > 0

    def test_index_beats_scan_at_one_percent(self, db):
        sql = "SELECT * FROM tenk1 WHERE unique2 < %d" % (TENK // 100)
        assert "IndexScan" in db.sql_explain(sql)
        db.reset_counters()
        indexed = db.sql(sql)
        indexed_cost = db.cost_report().total_seconds
        db.drop_index("tenk1", "unique2")
        try:
            db.reset_counters()
            scanned = db.sql(sql)
            scan_cost = db.cost_report().total_seconds
        finally:
            db.create_index("tenk1", "unique2", kind="btree")
        assert sorted(indexed) == sorted(scanned)
        assert indexed_cost < scan_cost / 3

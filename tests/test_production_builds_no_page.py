"""The production arm reads whole columns and builds no page.

A relation is its column buffers; :attr:`Relation.pages` cuts page copies
on demand for the readers that still walk pages -- the tuple-at-a-time
specification arm (``batch=False``), :meth:`Relation.spill` and the
row-wise operators.  The statements the performance ledger times -- the
seven Wisconsin classes, the three spilling joins (512-byte pages, a
grant the build sides are several times larger than) and
``delete_where`` / ``analyze`` -- must never take that path on the
production arm (``batch=True``).

Spill files are covered too: a simulated-disk file is its column
buffers, the spilling joins write runs of rows to a file's tail and read
a bucket back whole, and on the production arm they must never call the
disk's per-page ``append``, ``read`` or ``scan``.  On the same inputs
both arms still agree on rows, every operation counter (both IO tallies
included) and every cancellation check, and no spill file outlives its
statement.
"""

from __future__ import annotations

import random

import pytest

from repro import DataType, MainMemoryDatabase
from repro.cost.counters import OperationCounters
from repro.governor import CancellationToken, QueryGuard
from repro.planner.plan import PlanContext
from repro.planner.sql import parse_sql
from repro.storage.disk import SimulatedDisk
from repro.storage.relation import Relation

WISC_ROWS = 2_000
WISC_COLUMNS = (
    "unique1", "unique2", "two", "four", "ten", "twenty", "hundred",
    "thousand", "filler",
)
WISC_SQL = [
    "SELECT * FROM tenk1 WHERE unique2 >= 199 AND unique2 < 219",
    "SELECT * FROM tenk2 WHERE t2_unique2 >= 99 AND t2_unique2 < 299",
    "SELECT DISTINCT hundred FROM tenk1 WHERE unique2 >= 39 AND unique2 < 439",
    "SELECT t2_hundred, MIN(t2_unique1) AS lo FROM tenk2 "
    "WHERE t2_unique2 >= 99 AND t2_unique2 < 1099 GROUP BY t2_hundred",
    "SELECT unique1, bp_unique2 FROM tenk1 "
    "JOIN bprime ON tenk1.unique1 = bprime.bp_unique1 "
    "WHERE unique2 >= 99 AND unique2 < 1099",
    "SELECT unique2, t2_unique1 FROM tenk1 "
    "JOIN tenk2 ON tenk1.unique1 = tenk2.t2_unique1 "
    "WHERE t2_unique2 >= 179 AND t2_unique2 < 379",
    "SELECT bp_ten, COUNT(*) AS n FROM tenk2 "
    "JOIN bprime ON tenk2.t2_unique1 = bprime.bp_unique1 "
    "WHERE t2_unique2 >= 139 AND t2_unique2 < 1139 GROUP BY bp_ten",
]
JOIN_SQL = [
    "SELECT f_id, d_a FROM fact JOIN dim ON fact.f_uni = dim.d_id",
    "SELECT f_id, e_a FROM fact JOIN dim2 ON fact.f_zipf = dim2.e_id",
    "SELECT d_grp, COUNT(*) AS n, SUM(f_val) AS s FROM fact "
    "JOIN dim ON fact.f_uni = dim.d_id "
    "JOIN dim2 ON fact.f_zipf = dim2.e_id GROUP BY d_grp",
]


def wisc_rows(n, rng):
    unique1 = list(range(n))
    rng.shuffle(unique1)
    return [
        (u, i, u % 2, u % 4, u % 10, u % 20, u % 100, u % 1000, 0)
        for i, u in enumerate(unique1)
    ]


def wisc_db(batch: bool) -> MainMemoryDatabase:
    rng = random.Random(7)
    db = MainMemoryDatabase(memory_pages=2000, batch=batch, reuse_cache=False)
    for table, prefix, rows, index in (
        ("tenk1", "", WISC_ROWS, "unique2"),
        ("tenk2", "t2_", WISC_ROWS, "t2_unique2"),
        ("bprime", "bp_", WISC_ROWS // 10, None),
    ):
        db.create_table(
            table, [(prefix + c, DataType.INTEGER) for c in WISC_COLUMNS]
        )
        db.insert_many(table, wisc_rows(rows, rng))
        if index:
            db.create_index(table, index, "btree")
    db.analyze()
    return db


def join_db(batch: bool) -> MainMemoryDatabase:
    """The spilling-join tables: 512-byte pages, 19 pages of grant, a
    uniform and a Zipf-skewed foreign key."""
    rng = random.Random(11)
    db = MainMemoryDatabase(
        memory_pages=19, page_bytes=512, batch=batch, reuse_cache=False
    )
    n_dim, n_fact, n_dim2 = 2048, 3072, 4096
    zipf = [min(int(rng.paretovariate(0.9)), n_dim2) - 1 for _ in range(n_fact)]
    for table, columns, rows in (
        ("dim", ("d_id", "d_grp", "d_a", "d_b"),
         [(i, i % 50, rng.randrange(1000), 0) for i in range(n_dim)]),
        ("dim2", ("e_id", "e_grp", "e_a", "e_b"),
         [(i, i % 20, rng.randrange(1000), 0) for i in range(n_dim2)]),
        ("fact", ("f_id", "f_uni", "f_zipf", "f_val"),
         [(i, rng.randrange(n_dim), zipf[i], rng.randrange(100))
          for i in range(n_fact)]),
    ):
        db.create_table(table, [(c, DataType.INTEGER) for c in columns])
        db.insert_many(table, rows)
    db.analyze()
    return db


@pytest.fixture
def page_views(monkeypatch):
    """Count every page copy :attr:`Relation.pages` cuts."""
    built = []
    real = Relation.pages.fget

    def counted(rel):
        pages = real(rel)
        built.extend(pages)
        return pages

    monkeypatch.setattr(Relation, "pages", property(counted))
    return built


@pytest.fixture
def disk_pages(monkeypatch):
    """Count every call to the disk's per-page ``append`` / ``read`` /
    ``scan``."""
    calls = []
    for method in ("append", "read", "scan"):
        real = getattr(SimulatedDisk, method)

        def counted(disk, *args, _real=real, _method=method, **kwargs):
            calls.append(_method)
            return _real(disk, *args, **kwargs)

        monkeypatch.setattr(SimulatedDisk, method, counted)
    return calls


def run(db, statement, batch):
    """Rows, charges, cancellation checks and leftover scratch files of
    one execution of ``statement`` on one arm."""
    plan = db.plan(parse_sql(statement, db.catalog))
    token = CancellationToken(qid=1)
    ctx = PlanContext(
        catalog=db.catalog, memory_pages=db.memory_pages, params=db.params,
        counters=OperationCounters(), batch=batch,
        guard=QueryGuard(token=token),
    )
    out = plan.execute(ctx)
    return list(out), ctx.counters.as_dict(), token.checks, ctx.disk.files()


@pytest.mark.parametrize(
    "build, statement",
    [(wisc_db, sql) for sql in WISC_SQL] + [(join_db, sql) for sql in JOIN_SQL],
    ids=["wisc%d" % i for i in range(len(WISC_SQL))]
    + ["join%d" % i for i in range(len(JOIN_SQL))],
)
def test_ledger_statements_build_no_page(
    page_views, disk_pages, build, statement
):
    db = build(batch=True)
    rows, charged, checks, files = run(db, statement, batch=True)
    assert not page_views, statement
    assert not disk_pages, statement
    assert rows and checks and not files
    assert (rows, charged, checks, files) == run(db, statement, batch=False)
    if build is join_db:
        assert charged["sequential_ios"] > 0 and charged["random_ios"] > 0


def test_write_statements_build_no_page(page_views):
    """``delete_where`` (heap compaction plus index upkeep) and
    ``analyze`` read the column buffers; both arms end in the same table
    and the same charges."""
    outcomes = []
    for batch in (True, False):
        db = wisc_db(batch)
        db.counters.reset()
        page_views.clear()
        new = [(WISC_ROWS + i, 300, 0, 0, 0, 0, 0, 0, 5) for i in range(8)]
        db.insert("tenk1", new[0])
        db.insert_many("tenk1", new[1:])
        assert db.delete_where("tenk1", "filler", 5) == 8
        assert db.delete_where("tenk1", "unique2", 300) == 1
        db.analyze("tenk1")
        if batch:
            assert not page_views
        rel = db.catalog.relation("tenk1")
        outcomes.append((list(rel), db.counters.as_dict()))
    assert outcomes[0] == outcomes[1]

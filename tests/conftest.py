"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest


def pytest_addoption(parser):
    group = parser.getgroup("chaos", "fault-injection sweeps (tests/chaos)")
    group.addoption(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="replay exactly one chaos fault schedule (deterministic: the "
        "seed fully determines the crash point, write delays, torn pages, "
        "and dropped checkpoint installs)",
    )
    group.addoption(
        "--chaos-seeds",
        type=int,
        default=100,
        metavar="N",
        help="number of seeded random fault schedules the chaos sweep "
        "verifies (default 100; nightly CI runs more)",
    )
    parser.addoption(
        "--stateful-examples",
        type=int,
        default=30,
        metavar="N",
        help="example budget of each generated test: the write-path state "
        "machine (tests/test_write_path_model.py), the relation storage "
        "machine (tests/test_relation_model.py), the SQL differential "
        "against sqlite3 (tests/test_generated_sql.py), the cached plan "
        "against a fresh one (tests/test_plan_reuse.py), about 67 SQL "
        "mutations an example (tests/test_sql_fuzz.py) and, five to ten "
        "times over, the column frame properties "
        "(tests/server/test_column_frame.py); default 30, nightly CI runs "
        "more",
    )


@pytest.fixture
def chaos_seeds(request) -> list:
    """The fault-schedule seeds this run should verify.

    ``--chaos-seed N`` narrows to one schedule for replaying a failure;
    otherwise ``--chaos-seeds`` many consecutive seeds starting at 0.
    """
    replay = request.config.getoption("--chaos-seed")
    if replay is not None:
        return [replay]
    return list(range(request.config.getoption("--chaos-seeds")))

from repro.core.locks import install_recorder, uninstall_recorder
from repro.cost.counters import OperationCounters
from repro.cost.parameters import CostParameters
from repro.lint.runtime import (
    LockOrderRecorder,
    record_session_edges,
    session_edges,
)
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema


@pytest.fixture(autouse=True)
def lock_order_recorder():
    """Record every tracked-lock acquisition and fail on ABBA cycles.

    Installed process-wide before each test, so any engine object built
    inside the test gets TrackedLock instances; teardown asserts the
    observed acquisition graph is acyclic, making every threaded test
    double as a lock-order check.  Each test's edges are also folded
    into the session-wide union so the static-vs-runtime lock-graph
    diff (tests/lint/test_lock_graph_diff.py) sees the whole run.
    """
    recorder = install_recorder(LockOrderRecorder())
    try:
        yield recorder
        recorder.assert_acyclic()
    finally:
        record_session_edges(recorder)
        uninstall_recorder()


def pytest_sessionfinish(session, exitstatus):
    """Optionally export the runtime-observed lock graph as an artifact.

    ``REPRO_LOCK_GRAPH_OUT=<path>`` makes the full-suite run drop its
    accumulated edge set as JSON; CI merges it with the static graph via
    ``python -m repro.lint --lock-graph --runtime-graph <path>``.
    """
    import json
    import os

    out = os.environ.get("REPRO_LOCK_GRAPH_OUT")
    if not out:
        return
    edges = sorted(session_edges())
    payload = {
        "schema_version": 2,
        "kind": "runtime-lock-graph",
        "edges": [[a, b] for a, b in edges],
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.fixture
def counters() -> OperationCounters:
    return OperationCounters()


@pytest.fixture
def small_params() -> CostParameters:
    """Table 2 constants on a small (executable-scale) join instance."""
    return CostParameters(
        r_pages=50,
        s_pages=150,
        r_tuples_per_page=8,
        s_tuples_per_page=8,
    )


@pytest.fixture
def kv_schema() -> Schema:
    return Schema(
        [Field("key", DataType.INTEGER), Field("payload", DataType.INTEGER)]
    )


def build_relation(
    name: str,
    keys,
    schema: Schema = None,
    page_bytes: int = 64,
) -> Relation:
    """A (key, ordinal) relation over ``keys``, 8 tuples per 64-byte page."""
    if schema is None:
        schema = Schema(
            [Field("key", DataType.INTEGER), Field("payload", DataType.INTEGER)]
        )
    rel = Relation(name, schema, page_bytes)
    for i, k in enumerate(keys):
        rel.insert_unchecked((k, i))
    return rel


@pytest.fixture
def r_relation() -> Relation:
    rng = random.Random(42)
    return build_relation("r", [rng.randrange(100) for _ in range(300)])


@pytest.fixture
def s_relation() -> Relation:
    rng = random.Random(43)
    schema = Schema(
        [Field("skey", DataType.INTEGER), Field("sval", DataType.INTEGER)]
    )
    return build_relation(
        "s", [rng.randrange(100) for _ in range(900)], schema=schema
    )


WISC_COLUMNS = (
    "unique1", "unique2", "two", "four", "ten", "twenty", "hundred",
    "thousand", "filler",
)


def wisc_db(n: int, nb: int, **kwargs):
    """The performance ledger's three Wisconsin tables (``tenk1`` and
    ``tenk2`` of ``n`` rows, ``bprime`` of ``nb``), ``unique2`` indexed,
    analyzed; ``kwargs`` go to ``MainMemoryDatabase``."""
    from repro import DataType, MainMemoryDatabase

    db = MainMemoryDatabase(**kwargs)
    rng = random.Random(17)
    for name, prefix, rows in (
        ("tenk1", "", n), ("tenk2", "t2_", n), ("bprime", "bp_", nb)
    ):
        rel = db.create_table(
            name, [(prefix + c, DataType.INTEGER) for c in WISC_COLUMNS]
        )
        unique1 = list(range(rows))
        rng.shuffle(unique1)
        rel.extend_rows([
            (u, i, u % 2, u % 4, u % 10, u % 20, u % 100, u % 1000, 0)
            for i, u in enumerate(unique1)
        ])
        if name != "bprime":
            db.create_index(name, prefix + "unique2", kind="btree")
    db.analyze()
    return db


def access_paths(node) -> dict:
    """Table name -> the top node of its access path in the plan ``node``."""
    from repro.planner.plan import FilterNode, IndexScanNode, ScanNode

    if isinstance(node, (ScanNode, IndexScanNode, FilterNode)):
        return {node.tables()[0]: node}
    return {t: p for child in node.children() for t, p in access_paths(child).items()}

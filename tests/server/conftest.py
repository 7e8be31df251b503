"""Shared fixtures: the test_sql.py corpus database and a live server.

The differential test's whole point is running *the same statements*
against the wire path and the in-process path, so the corpus fixture
must be reproducible: :func:`build_corpus_db` builds a byte-identical
database every call (same rows, same insertion order, same analyze).
"""

from __future__ import annotations

import time

import pytest

from repro import DataType, MainMemoryDatabase
from repro.server import DatabaseServer, ServerClient, TxnState

EMP_ROWS = [
    (1, "Jones", 52_000, 1),
    (2, "Smith", 61_000, 1),
    (3, "Johnson", 48_000, 2),
    (4, "Jackson", 75_000, 2),
    (5, "Miller", 55_000, 3),
    (6, "Joyce", 44_000, 3),
]
DEPT_ROWS = [(1, "toys"), (2, "tools"), (3, "books")]


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def assert_seal_invariants(bank) -> None:
    """What quiescent sealing rests on: the active count is the number of
    ACTIVE descriptors (the store keeps no finished ones), and a commit
    group is only ever open while somebody is still running."""
    with bank._mu:
        states = [txn.state for txn in bank._txns.values()]
        assert bank._active == states.count(TxnState.ACTIVE), states
        assert len(states) == bank._active + len(bank._group), states
        assert bank._active or not bank._group


def build_corpus_db() -> MainMemoryDatabase:
    """The exact emp/dept fixture tests/test_sql.py uses."""
    db = MainMemoryDatabase()
    db.create_table(
        "emp",
        [
            ("emp_id", DataType.INTEGER),
            ("name", DataType.STRING),
            ("salary", DataType.INTEGER),
            ("dept", DataType.INTEGER),
        ],
    )
    for row in EMP_ROWS:
        db.insert("emp", row)
    db.create_table(
        "dept", [("dept_id", DataType.INTEGER), ("dname", DataType.STRING)]
    )
    for row in DEPT_ROWS:
        db.insert("dept", row)
    db.analyze()
    return db


@pytest.fixture
def server():
    """A live server over the corpus database plus a 16-account bank."""
    srv = DatabaseServer(
        db=build_corpus_db(),
        n_accounts=16,
        initial_balance=100,
        group_size=4,
        group_delay=0.002,
        lock_wait_timeout=2.0,
        statement_timeout=10.0,
    )
    srv.start_in_thread()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    with ServerClient(*server.address) as c:
        yield c

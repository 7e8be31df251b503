"""Differential test: the wire path vs. in-process execution.

Every statement of the ``tests/test_sql.py`` corpus runs twice -- once
over the server protocol against the server's engine, once in-process
against an independently built but identical database -- and must return
**identical rows and identical OperationCounters deltas**.  Both engines
execute the corpus in the same order, so reuse-cache hits and misses line
up statement for statement.  Rows are compared cell by cell *with their
types*: ``1 == 1.0 == True`` in Python, so ``==`` alone would pass an int
that came back as a float.  A second corpus reaches every way a result
column crosses the wire (packed int64 and float64, strings, a column
demoted on one page, ints in a FLOAT column, empty and one-row results).

The malformed corpus must fail identically too: same error class, same
message, same statement position.
"""

from __future__ import annotations

import threading

import pytest

from repro import DataType, MainMemoryDatabase
from repro.planner.sql import SqlError
from repro.server import DatabaseServer, ServerClient

from tests.server.conftest import build_corpus_db

#: Every well-formed SELECT of the tests/test_sql.py corpus, in a fixed
#: order (order matters: the reuse cache makes later statements cheaper).
CORPUS = [
    "SELECT * FROM emp",
    "SELECT name, salary FROM emp",
    "SELECT DISTINCT dept FROM emp",
    "SELECT name FROM emp WHERE salary > 54000",
    "SELECT emp_id FROM emp WHERE name = 'Jones'",
    "SELECT name FROM emp WHERE name LIKE 'J%'",
    "SELECT name FROM emp WHERE salary >= 48000 AND dept = 2",
    "SELECT name FROM emp WHERE (dept = 1 OR dept = 3) AND salary < 56000",
    "SELECT name FROM emp WHERE NOT dept = 2",
    "SELECT name FROM emp WHERE dept != 2",
    "SELECT name FROM emp WHERE dept <> 2",
    "SELECT emp_id FROM emp WHERE name = 'O''Hara'",
    "SELECT name, dname FROM emp JOIN dept ON emp.dept = dept.dept_id",
    "SELECT name, dname FROM emp, dept WHERE dept = dept_id",
    "SELECT name, dname FROM emp JOIN dept ON emp.dept = dept.dept_id "
    "WHERE salary > 54000 AND dname = 'toys'",
    "SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.dept_id "
    "WHERE dept.dname = 'books'",
    "SELECT dept, COUNT(*) AS n, AVG(salary) AS mean FROM emp GROUP BY dept",
    "SELECT dept, MAX(salary) FROM emp GROUP BY dept",
    "SELECT dept, COUNT(salary) FROM emp GROUP BY dept",
    "SELECT dname, SUM(salary) AS payroll FROM emp "
    "JOIN dept ON emp.dept = dept.dept_id GROUP BY dname",
    # Repeats: must hit the reuse cache identically on both paths.
    "SELECT * FROM emp",
    "SELECT name FROM emp WHERE salary > 54000",
    "SELECT name, dname FROM emp JOIN dept ON emp.dept = dept.dept_id",
]

#: Statements over :func:`build_kinds_db`, one or more per column path.
KINDS_CORPUS = [
    "SELECT * FROM kinds",
    "SELECT f FROM kinds",  # float64, packed on every page
    "SELECT k, s FROM kinds WHERE k < 5",  # int64 and strings
    "SELECT big FROM kinds",  # int64 demoted on one page of three
    "SELECT k, big FROM kinds WHERE k > 240",  # the demoted page alone
    "SELECT fi FROM kinds",  # ints and floats in a FLOAT column
    "SELECT s FROM kinds WHERE k = 7",  # one column, one row
    "SELECT COUNT(*) AS n, AVG(f) AS mean FROM kinds",
    "SELECT k, f, s FROM kinds WHERE k > 100000",  # empty, names kept
    "SELECT DISTINCT fi FROM kinds WHERE k < 8",
]

MALFORMED = [
    "SELECT",
    "SELECT * FROM nope",
    "SELECT wat FROM emp",
    "SELECT * FROM emp WHERE name LIKE '%J'",
    "SELECT * FROM emp WHERE name LIKE 'a%b%'",
    "SELECT name, SUM(salary) FROM emp GROUP BY dept",
    "SELECT name FROM emp GROUP BY name",
    "SELECT * FROM emp, emp",
    "SELECT * FROM emp WHERE salary >",
    "SELECT *, COUNT(*) FROM emp",
    "SELECT * FROM emp JOIN dept ON dept = salary",
    "SELECT dept, SUM(*) FROM emp GROUP BY dept",
]


def build_kinds_db() -> MainMemoryDatabase:
    """300 rows on three pages: ``big`` holds one int beyond int64 on the
    last page, ``fi`` is a FLOAT column holding ints and floats."""
    db = MainMemoryDatabase()
    db.create_table(
        "kinds",
        [
            ("k", DataType.INTEGER),
            ("f", DataType.FLOAT),
            ("s", DataType.STRING),
            ("big", DataType.INTEGER),
            ("fi", DataType.FLOAT),
        ],
    )
    db.insert_many(
        "kinds",
        [
            (k, k / 4, "s%d" % k, 2 ** 70 if k == 250 else -k,
             k % 3 if k % 2 else k + 0.5)
            for k in range(300)
        ],
    )
    db.analyze()
    return db


def typed(rows):
    """Each cell paired with its exact type."""
    return [[(type(v), v) for v in row] for row in rows]


def run_in_process(db, stmt):
    """Execute ``stmt`` in-process: (column names, rows, counter deltas)."""
    before = db.counters.snapshot()
    rel = db.sql(stmt)
    delta = (db.counters.snapshot() - before).as_dict()
    return list(rel.schema.names), [list(row) for _, row in rel.scan()], delta


def assert_same_over_the_wire(address, reference, corpus):
    with ServerClient(*address) as client:
        for stmt in corpus:
            reply = client.execute(stmt)
            names, ref_rows, ref_counters = run_in_process(reference, stmt)
            assert reply["columns"] == names, stmt
            assert typed(reply["rows"]) == typed(ref_rows), stmt
            assert reply["counters"] == ref_counters, stmt


class TestDifferential:
    def test_corpus_rows_and_counters_identical(self, server):
        assert_same_over_the_wire(server.address, build_corpus_db(), CORPUS)

    def test_every_column_path_crosses_with_exact_types(self):
        server = DatabaseServer(db=build_kinds_db(), n_accounts=4)
        server.start_in_thread()
        try:
            rel = server.manager.db.catalog.relation("kinds")
            assert rel.page_count == 3
            # One buffer per column: the int beyond int64 on the last page
            # demotes the whole column, not that page's slice of it.
            assert [type(p.column(3)) for p in rel.pages] == [list, list, list]
            assert all(type(p.column(4)) is list for p in rel.pages)
            assert_same_over_the_wire(
                server.address, build_kinds_db(), KINDS_CORPUS
            )
        finally:
            server.stop()

    def test_malformed_corpus_fails_identically(self, server):
        reference = build_corpus_db()
        with ServerClient(*server.address) as client:
            for stmt in MALFORMED:
                with pytest.raises(SqlError) as wire_info:
                    client.execute(stmt)
                with pytest.raises(SqlError) as ref_info:
                    reference.sql(stmt)
                assert str(wire_info.value) == str(ref_info.value), stmt
                assert (
                    wire_info.value.position == ref_info.value.position
                ), stmt
                assert wire_info.value.position is not None, stmt

    def test_counters_do_not_drift_under_concurrent_sessions(self, server):
        """N clients hammer the corpus concurrently; the sum of all
        per-statement deltas must equal the engine's total counters
        exactly (serialized SQL => no lost updates, no double counts)."""
        base = server.manager.db.counters.snapshot()
        totals_lock = threading.Lock()
        totals = {}
        errors = []

        def worker():
            try:
                with ServerClient(*server.address) as client:
                    for stmt in CORPUS:
                        _, counters = client.counters(stmt)
                        with totals_lock:
                            for key, value in counters.items():
                                totals[key] = totals.get(key, 0) + value
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        drift = (server.manager.db.counters.snapshot() - base).as_dict()
        assert totals == drift

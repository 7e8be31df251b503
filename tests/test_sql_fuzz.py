"""Mutation fuzz of the SQL front door: rows or a positioned ``SqlError``.

Five valid statements -- a range selection, a prefix ``LIKE`` through an
index, a join, a grouped aggregate over a parenthesised ``OR`` / ``NOT``,
and a ``DISTINCT`` point query -- are cut short, have characters flipped,
and have tokens inserted, deleted and replaced.  Whatever comes out,
``db.sql`` must answer it with rows or with an
:class:`~repro.planner.sql.SqlError` that points into the statement: no
other exception, and nothing that takes long.

The mutations are drawn from a seeded generator, about 2,000 at the
default ``--stateful-examples 30`` (tests/conftest.py), scaling with it;
the nightly CI job runs 30,000.
"""

from __future__ import annotations

import random
import re
import time

import pytest

from repro import DataType, MainMemoryDatabase
from repro.planner.sql import SqlError

STATEMENTS = [
    "SELECT a, b FROM t WHERE a >= 3 AND b < 40",
    "SELECT a FROM t WHERE s LIKE 'x1%'",
    "SELECT t.a, u.v FROM t JOIN u ON t.a = u.k WHERE u.v > 1.5",
    "SELECT b, COUNT(*) AS n FROM t WHERE (a < 5 OR NOT a > 20) GROUP BY b",
    "SELECT DISTINCT s FROM t WHERE a = 7",
]
#: What a mutation may splice in: every token kind, including the ones
#: that used to escape as untyped errors (an INTEGER column under LIKE, a
#: string against a number, a statement cut after its WHERE column).
TOKENS = [
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "AND", "OR", "NOT",
    "JOIN", "ON", "AS", "LIKE", "COUNT", "SUM", "MIN", "AVG",
    "a", "b", "s", "t", "u", "k", "v", "t.a", "u.k", "u.v", "zz", "t.zz",
    "0", "-1", "7", "1.5", "99999999999999999999", "'x'", "'x1%'", "'%'",
    "''", "'it''s'", "=", "<", "<=", ">", ">=", "!=", "<>", "(", ")", ",",
    "*", "((((", "))))", "NOT NOT NOT",
]
_TOKEN = re.compile(r"'(?:[^']|'')*'|\S+")
_CHARS = "ab(),*'=<>%. 0123456789-_xyzTUSEL\t\n;\"\\"


def make_db() -> MainMemoryDatabase:
    db = MainMemoryDatabase()
    db.create_table(
        "t", [("a", DataType.INTEGER), ("b", DataType.INTEGER), ("s", DataType.STRING)]
    )
    db.create_table("u", [("k", DataType.INTEGER), ("v", DataType.FLOAT)])
    db.insert_many("t", [(i, (i * 7) % 50, "x%d" % i) for i in range(120)])
    db.insert_many("u", [(i % 40, i / 3) for i in range(90)])
    db.create_index("t", "a", "btree")
    db.create_index("t", "s", "btree")
    db.create_index("u", "k", "hash")
    db.analyze()
    return db


def mutate(statement: str, rng: random.Random) -> str:
    """One mutation of ``statement``."""
    how = rng.randrange(6)
    if how == 0:  # truncation
        return statement[: rng.randrange(len(statement) + 1)]
    if how == 1:  # character flips
        chars = list(statement)
        for _ in range(rng.randint(1, 3)):
            chars[rng.randrange(len(chars))] = rng.choice(_CHARS)
        return "".join(chars)
    tokens = _TOKEN.findall(statement)
    at = rng.randrange(len(tokens) + (how == 2))
    if how == 2:  # token insert
        tokens.insert(at, rng.choice(TOKENS))
    elif how == 3:  # token delete
        del tokens[at]
    elif how == 4:  # token replace
        tokens[at] = rng.choice(TOKENS)
    else:  # a cut after a token: the shape that read past the token list
        tokens = tokens[: at + 1]
    return " ".join(tokens)


def test_every_mutation_yields_rows_or_a_positioned_error(request):
    db = make_db()
    budget = 2000 * request.config.getoption("--stateful-examples") // 30
    rng = random.Random(1984)
    outcomes = {"rows": 0, "error": 0}
    for n in range(budget):
        text = mutate(STATEMENTS[n % len(STATEMENTS)], rng)
        started = time.perf_counter()
        try:
            db.sql(text)
            outcomes["rows"] += 1
        except SqlError as exc:
            assert exc.position is not None, (text, str(exc))
            assert 0 <= exc.position <= len(text), (text, exc.position)
            outcomes["error"] += 1
        assert time.perf_counter() - started < 2.0, text
    assert outcomes["rows"] and outcomes["error"]


@pytest.mark.parametrize(
    "text, position",
    [
        ("SELECT b FROM t WHERE a ", 24),
        ("SELECT b FROM t WHERE a", 23),
        ("SELECT b FROM t WHERE t.a", 25),
        ("SELECT a FROM t WHERE a LIKE 'x1%'", 24),
        ("SELECT a FROM t WHERE b LIKE 'x1%'", 24),
        ("SELECT a FROM t WHERE a < 'x'", 26),
        ("SELECT a FROM t WHERE s >= 5", 27),
        ("SELECT a FROM t WHERE " + "(" * 3000 + "a = 1" + ")" * 3000, 122),
        ("SELECT a FROM t WHERE " + "NOT " * 3000 + "a = 1", 422),
    ],
)
def test_the_findings_are_positioned_errors(text, position):
    """The statements that escaped as ``IndexError``, ``TypeError`` (on
    the indexed column and on the scanned one alike) and
    ``RecursionError``."""
    with pytest.raises(SqlError) as caught:
        make_db().sql(text)
    assert caught.value.position == position


def test_index_and_scan_agree_on_a_prefix():
    """``LIKE`` through the string column's B+-tree and through a scan of
    the same rows return the same rows."""
    indexed, scanned = make_db(), MainMemoryDatabase()
    scanned.create_table("t", [("a", DataType.INTEGER), ("s", DataType.STRING)])
    scanned.insert_many("t", [(i, "x%d" % i) for i in range(120)])
    statement = "SELECT a FROM t WHERE s LIKE 'x1%'"
    assert sorted(indexed.sql(statement)) == sorted(scanned.sql(statement))
    assert len(indexed.sql(statement)) == 31

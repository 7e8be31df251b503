"""Plan entries of the reuse cache: a SQL text answered with its plan.

``MainMemoryDatabase.sql`` skips ``parse_sql`` and ``Planner.plan`` when
:meth:`PlanReuseCache.plan_for` still holds a plan for the exact text:
every table the statement reads must be the same :class:`Relation`
object at the same access-path epoch, with published statistics that are
the same object or equal.  These tests hold a hit to being exactly the
plan a fresh parse and plan builds, across every kind of write, analyze
and DDL, with statements drawn by ``tests/test_generated_sql.py``'s
generator.
"""

from __future__ import annotations

import ast
import gc
import inspect
import sys
import threading
import weakref
from collections import Counter
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.planner.plan as plan_module
import repro.planner.sql as sql_module
from repro import DataType, MainMemoryDatabase
from repro.errors import ReproError
from repro.planner.plan import PlanContext
from repro.planner.reuse import PlanReuseCache
from repro.planner.sql import SqlError, parse_sql
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.tuples import Field, Schema
from tests.test_generated_sql import FILLER, Table, statements, tables

#: What a re-created table's columns become: another type under each name.
OTHER_TYPE = {
    DataType.INTEGER: DataType.FLOAT,
    DataType.FLOAT: DataType.STRING,
    DataType.STRING: DataType.INTEGER,
}


def outcome(run):
    """``run()``'s rows as (column names, multiset), or its error type."""
    try:
        out = run()
    except ReproError as exc:
        return type(exc)
    return out.schema.names, Counter(out)


def fresh_plan(db: MainMemoryDatabase, text: str):
    return db.plan(parse_sql(text, db.catalog))


def check(db: MainMemoryDatabase, texts: List[str], must_hit: List[str]) -> None:
    """Every cached plan is the fresh one; each statement then runs
    through ``sql`` exactly as its fresh plan runs; ``must_hit`` texts
    found their plan."""
    ctx = PlanContext(catalog=db.catalog, memory_pages=db.memory_pages)
    for text in texts:
        cached = db.reuse.plan_for(text, db.catalog)
        try:
            fresh = fresh_plan(db, text)
        except ReproError as exc:
            assert cached is None, text
            with pytest.raises(type(exc)):
                db.sql(text)
            continue
        if text in must_hit:
            assert cached is not None, text
        if cached is not None:
            assert cached.explain() == fresh.explain(), text
            assert cached.fingerprint(ctx) == fresh.fingerprint(ctx), text
        expected = outcome(
            lambda: fresh.execute(PlanContext(
                catalog=db.catalog, memory_pages=db.memory_pages,
                params=db.params,
            ))
        )
        assert outcome(lambda: db.sql(text)) == expected, text


def reads(text: str, table: str) -> bool:
    return (" %s " % table) in (text + " ")


def recreate_with_other_types(db: MainMemoryDatabase, table: Table) -> None:
    """Drop ``table`` and create it again: same column names, each of
    another type, a few rows, no indexes, never analyzed."""
    db.drop_table(table.name)
    columns = [(name, OTHER_TYPE[dtype]) for name, dtype in table.columns]
    db.create_table(table.name, columns)
    db.insert_many(
        table.name, [tuple(FILLER[d](i) for _, d in columns) for i in range(5)]
    )


@st.composite
def cases(draw):
    db = draw(tables())
    return db, draw(st.lists(statements(db), min_size=1, max_size=5))


def run_case(case) -> None:
    schema, drawn = case
    db = MainMemoryDatabase(page_bytes=256)
    for table in schema:
        db.create_table(table.name, table.columns)
        db.insert_many(table.name, table.rows)
        for column, kind in table.indexes:
            db.create_index(table.name, column, kind=kind)
    db.analyze()
    texts = list(dict.fromkeys(statement.sql() for statement in drawn))
    first, second = schema[0], schema[1]
    row = tuple(FILLER[d](3) for _, d in first.columns)
    indexed = {column for column, _ in first.indexes}
    spare = next((c for c in first.names if c not in indexed), None)

    check(db, texts, [])  # caches every plan
    db.analyze()  # measures what it measured before
    check(db, texts, texts)
    db.insert(first.name, row)
    check(db, texts, texts)
    db.insert_many(second.name, [tuple(FILLER[d](4) for _, d in second.columns)] * 3)
    check(db, texts, texts)
    db.delete_where(first.name, first.names[0], row[0])
    check(db, texts, texts)
    db.insert_many(first.name, [row] * 7)
    db.analyze()  # statistics moved
    check(db, texts, [])
    if spare is not None:
        db.create_index(first.name, spare, kind="btree")
        check(db, texts, [t for t in texts if not reads(t, first.name)])
        db.drop_index(first.name, spare)
        check(db, texts, [t for t in texts if not reads(t, first.name)])
    recreate_with_other_types(db, first)
    check(db, texts, [])


class TestDifferential:
    def test_a_hit_is_the_plan_a_fresh_parse_builds(self, request):
        @settings(
            max_examples=request.config.getoption("--stateful-examples"),
            deadline=None,
            suppress_health_check=list(HealthCheck),
        )
        @given(cases())
        def run(case):
            run_case(case)

        run()

    def test_dml_keeps_the_plan_and_skips_the_front_end(self, monkeypatch):
        db = make_db()
        calls = Counter()
        parse = sql_module.parse_sql
        monkeypatch.setattr(
            sql_module, "parse_sql",
            lambda text, catalog: calls.update(["parse"]) or parse(text, catalog),
        )
        text = "SELECT a, COUNT(*) AS n FROM t WHERE b > 3 GROUP BY a"
        first = sorted(db.sql(text))
        db.insert("t", (0, 99))
        db.insert_many("t", [(1, 98), (2, 97)])
        db.delete_where("t", "a", 0)
        after = sorted(db.sql(text))
        assert calls["parse"] == 1
        assert db.reuse_stats()["plan_hits"] == 1
        assert after != first and after == sorted(fresh_plan(db, text).execute(
            PlanContext(catalog=db.catalog, memory_pages=db.memory_pages)
        ))

    def test_a_recreated_table_is_never_served_the_old_plan(self):
        """Same name, same column names, the same (empty) statistics and
        the same access-path epoch: only the relation object tells the
        old table from the new one, whose column is now a string."""
        db = MainMemoryDatabase()
        db.create_table("t", [("a", DataType.INTEGER), ("b", DataType.INTEGER)])
        db.analyze()
        text = "SELECT a FROM t WHERE b = 1"
        assert list(db.sql(text)) == []
        db.drop_table("t")
        db.create_table("t", [("a", DataType.INTEGER), ("b", DataType.STRING)])
        db.analyze()
        assert db.catalog.published_stats("t") == db.catalog.measure("t")
        with pytest.raises(SqlError):
            db.sql(text)
        assert db.reuse_stats()["plan_hits"] == 0


def make_db(**kwargs) -> MainMemoryDatabase:
    db = MainMemoryDatabase(**kwargs)
    db.create_table("t", [("a", DataType.INTEGER), ("b", DataType.INTEGER)])
    db.insert_many("t", [(i % 4, i) for i in range(40)])
    db.analyze()
    return db


class TestValidity:
    def test_unpublished_statistics_are_a_miss_and_are_not_measured(self):
        catalog = Catalog()
        catalog.register(Relation("t", Schema([Field("a", DataType.INTEGER)]), 64))
        cache = PlanReuseCache()
        plan = object()
        cache.put_plan("SELECT a FROM t", plan, catalog, ["t"])
        assert cache.plan_for("SELECT a FROM t", catalog) is None
        assert catalog.published_stats("t") is None
        assert catalog.stats_epoch("t") == 0
        catalog.analyze("t")
        assert cache.plan_for("SELECT a FROM t", catalog) is None  # stamped None
        cache.put_plan("SELECT a FROM t", plan, catalog, ["t"])
        assert cache.plan_for("SELECT a FROM t", catalog) is plan
        assert cache.stats()["plan_hits"] == 1
        assert cache.stats()["plan_misses"] == 2

    def test_a_dropped_table_is_not_kept_alive_by_its_plan(self):
        db = make_db()
        text = "SELECT a FROM t WHERE b > 10"
        db.sql(text)
        relation = weakref.ref(db.table("t"))
        db.drop_table("t")
        gc.collect()
        assert relation() is None
        assert text in db.reuse._plans

    def test_plans_have_their_own_bound(self):
        db = make_db()
        db.reuse = cache = PlanReuseCache(max_entries=2)
        for low in range(5):
            db.sql("SELECT a FROM t WHERE b > %d" % low)
        assert len(cache._plans) == len(cache) == 2
        assert cache.shrink_to(1) == 2  # a result and a plan
        assert len(cache._plans) == len(cache) == 1
        cache.clear()
        assert not cache._plans

    def test_no_cache_no_plans(self, monkeypatch):
        db = make_db(reuse_cache=False)
        calls = Counter()
        parse = sql_module.parse_sql
        monkeypatch.setattr(
            sql_module, "parse_sql",
            lambda text, catalog: calls.update(["parse"]) or parse(text, catalog),
        )
        for _ in range(3):
            db.sql("SELECT a FROM t WHERE b > 10")
        assert db.reuse is None
        assert calls["parse"] == 3
        assert db.reuse_stats()["plan_hits"] == db.reuse_stats()["plan_misses"] == 0


class TestSharing:
    def test_threads_share_plans_without_losing_a_tally(self):
        """More threads than cores run the same statements through one
        cache with a short switch interval: every lookup is counted once,
        globally and on its own thread, and every reply is the fresh
        plan's."""
        db = make_db()
        texts = [
            "SELECT a, COUNT(*) AS n FROM t WHERE b > %d GROUP BY a" % low
            for low in (3, 17, 29)
        ]
        expected = {text: sorted(fresh_plan(db, text).execute(
            PlanContext(catalog=db.catalog, memory_pages=db.memory_pages)
        )) for text in texts}
        rounds, workers = 40, 6
        tallies, wrong = [], []

        def run():
            for i in range(rounds):
                text = texts[i % len(texts)]
                if sorted(db.sql(text)) != expected[text]:
                    wrong.append(text)
            tallies.append(db.reuse.thread_stats())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and len(tallies) == workers
        stats = db.reuse_stats()
        assert stats["plan_hits"] + stats["plan_misses"] == rounds * workers
        assert stats["plan_misses"] <= len(texts) * workers
        for key in ("plan_hits", "plan_misses", "hits", "misses"):
            assert sum(tally[key] for tally in tallies) == stats[key]

    def test_plan_nodes_set_attributes_only_in_their_constructors(self):
        """What lets two sessions run one cached plan at once."""
        tree = ast.parse(inspect.getsource(plan_module))
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for method in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
                if method.name == "__init__":
                    continue
                for node in ast.walk(method):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        assert cls.name == "PlanContext", (cls.name, method.name)

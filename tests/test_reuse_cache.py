"""Tests for the materialised-subplan reuse cache (repro.planner.reuse)."""

from __future__ import annotations

import pytest

from repro.core.database import MainMemoryDatabase
from repro.operators.selection import Comparison
from repro.planner.query import JoinClause, Query
from repro.planner.reuse import PlanReuseCache
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema
from tests.conftest import wisc_db


def make_db(**kwargs):
    db = MainMemoryDatabase(**kwargs)
    db.create_table(
        "emp",
        [("emp_id", DataType.INTEGER), ("dept", DataType.INTEGER),
         ("salary", DataType.INTEGER)],
    )
    db.create_table(
        "dept", [("dept_id", DataType.INTEGER), ("name", DataType.STRING)]
    )
    for i in range(120):
        db.insert("emp", (i, i % 10, 1000 + i))
    for d in range(10):
        db.insert("dept", (d, "d%d" % d))
    db.analyze()
    return db


FILTER_QUERY = Query(
    tables=["emp"], predicates=[("emp", Comparison("salary", ">", 1050))]
)
JOIN_QUERY = Query(
    tables=["emp", "dept"],
    predicates=[("emp", Comparison("salary", ">", 1020))],
    joins=[JoinClause("emp", "dept", "dept", "dept_id")],
)


class TestCacheUnit:
    def test_hit_miss_accounting(self):
        cache = PlanReuseCache()
        rel = Relation("x", Schema([Field("a", DataType.INTEGER)]), 64)
        assert cache.get("k") is None
        cache.put("k", rel, ["t"])
        assert cache.get("k") is rel
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "invalidations": 0,
            "evictions": 0, "plan_hits": 0, "plan_misses": 0,
        }

    def test_invalidate_drops_only_dependents(self):
        cache = PlanReuseCache()
        rel = Relation("x", Schema([Field("a", DataType.INTEGER)]), 64)
        cache.put("a", rel, ["t1"])
        cache.put("b", rel, ["t1", "t2"])
        cache.put("c", rel, ["t3"])
        assert cache.invalidate("t1") == 2
        assert cache.get("a") is None and cache.get("b") is None
        assert cache.get("c") is rel

    def test_lru_eviction(self):
        cache = PlanReuseCache(max_entries=2)
        rel = Relation("x", Schema([Field("a", DataType.INTEGER)]), 64)
        cache.put("a", rel, ["t"])
        cache.put("b", rel, ["t"])
        cache.put("c", rel, ["t"])
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("c") is rel
        assert cache.stats()["evictions"] == 1

    def test_lru_hit_refreshes_recency(self):
        cache = PlanReuseCache(max_entries=2)
        rel = Relation("x", Schema([Field("a", DataType.INTEGER)]), 64)
        cache.put("a", rel, ["t"])
        cache.put("b", rel, ["t"])
        assert cache.get("a") is rel  # refresh "a"
        cache.put("c", rel, ["t"])    # evicts "b", not "a"
        assert cache.get("a") is rel
        assert cache.get("b") is None

    def test_shrink_to_evicts_cold_entries_first(self):
        cache = PlanReuseCache(max_entries=8)
        rel = Relation("x", Schema([Field("a", DataType.INTEGER)]), 64)
        for key in "abcd":
            cache.put(key, rel, ["t"])
        assert cache.get("a") is rel  # "a" becomes most recent
        assert cache.shrink_to(2) == 2
        assert len(cache) == 2
        assert cache.get("a") is rel
        assert cache.get("d") is rel
        assert cache.get("b") is None and cache.get("c") is None
        assert cache.stats()["evictions"] == 2
        assert cache.shrink_to(10) == 0

    def test_rejects_zero_capacity(self):
        from repro.errors import ConfigurationError, ReproError
        with pytest.raises(ConfigurationError):
            PlanReuseCache(max_entries=0)
        with pytest.raises(ValueError):  # backward compatible
            PlanReuseCache(max_entries=-1)
        assert issubclass(ConfigurationError, ReproError)


class TestDatabaseIntegration:
    def test_repeat_query_hits_and_skips_work(self):
        db = make_db()
        first = sorted(db.execute(FILTER_QUERY))
        snapshot = db.counters.snapshot()
        again = db.execute(FILTER_QUERY)
        assert sorted(again) == first
        assert db.reuse_stats()["hits"] >= 1
        # Served from cache: the repeat charges no operator work at all.
        assert db.counters.snapshot() == snapshot

    def test_insert_invalidates(self):
        db = make_db()
        rows_before = sorted(db.execute(FILTER_QUERY))
        db.insert("emp", (999, 3, 99999))
        rows_after = sorted(db.execute(FILTER_QUERY))
        assert len(rows_after) == len(rows_before) + 1
        assert db.reuse_stats()["invalidations"] >= 1

    def test_delete_invalidates(self):
        db = make_db()
        sorted(db.execute(FILTER_QUERY))
        removed = db.delete_where("emp", "emp_id", 119)
        assert removed == 1
        rows = db.execute(FILTER_QUERY)
        assert all(r[0] != 119 for r in rows)

    def test_join_query_reuses_and_invalidates_per_table(self):
        db = make_db()
        first = sorted(db.execute(JOIN_QUERY))
        assert sorted(db.execute(JOIN_QUERY)) == first
        assert db.reuse_stats()["hits"] >= 1
        # Mutating one side must drop the join result too.
        db.insert("dept", (42, "d42"))
        db.insert("emp", (998, 42, 99999))
        after = sorted(db.execute(JOIN_QUERY), key=repr)
        assert any(998 in r and 42 in r for r in after)

    def test_version_stamps_catch_direct_mutation(self):
        # Mutation bypassing the facade (no eager invalidation): the
        # version stamp embedded in the fingerprint must miss the cache.
        db = make_db()
        before = sorted(db.execute(FILTER_QUERY))
        db.table("emp").extend([(997, 1, 88888)])
        after = sorted(db.execute(FILTER_QUERY))
        assert len(after) == len(before) + 1

    def test_disabled_cache(self):
        db = make_db(reuse_cache=False)
        rows = sorted(db.execute(FILTER_QUERY))
        assert sorted(db.execute(FILTER_QUERY)) == rows
        assert db.reuse_stats() == {
            "entries": 0, "hits": 0, "misses": 0, "invalidations": 0,
            "evictions": 0, "plan_hits": 0, "plan_misses": 0,
        }

    def test_memory_grant_partitions_the_cache(self):
        db = make_db()
        ctx_rows = sorted(db.execute(FILTER_QUERY))
        db.memory_pages = db.memory_pages + 1  # different grant -> new key
        assert sorted(db.execute(FILTER_QUERY)) == ctx_rows
        stats = db.reuse_stats()
        assert stats["misses"] >= 2


# -- column pruning (PR 17): fingerprints carry the kept columns -------------

#: The performance ledger's seven ``wisc_*`` statement classes: where the
#: range starts, how wide it is (shares of the table), the statement.
WISC_CLASSES = (
    (0.10, 0.01, "SELECT * FROM tenk1 WHERE unique2 >= {lo} AND unique2 < {hi}"),
    (0.05, 0.10,
     "SELECT * FROM tenk2 WHERE t2_unique2 >= {lo} AND t2_unique2 < {hi}"),
    (0.02, 0.20,
     "SELECT DISTINCT hundred FROM tenk1 "
     "WHERE unique2 >= {lo} AND unique2 < {hi}"),
    (0.05, 0.50,
     "SELECT t2_hundred, MIN(t2_unique1) AS lo FROM tenk2 "
     "WHERE t2_unique2 >= {lo} AND t2_unique2 < {hi} GROUP BY t2_hundred"),
    (0.05, 0.50,
     "SELECT unique1, bp_unique2 FROM tenk1 "
     "JOIN bprime ON tenk1.unique1 = bprime.bp_unique1 "
     "WHERE unique2 >= {lo} AND unique2 < {hi}"),
    (0.09, 0.10,
     "SELECT unique2, t2_unique1 FROM tenk1 "
     "JOIN tenk2 ON tenk1.unique1 = tenk2.t2_unique1 "
     "WHERE t2_unique2 >= {lo} AND t2_unique2 < {hi}"),
    (0.07, 0.50,
     "SELECT bp_ten, COUNT(*) AS n FROM tenk2 "
     "JOIN bprime ON tenk2.t2_unique1 = bprime.bp_unique1 "
     "WHERE t2_unique2 >= {lo} AND t2_unique2 < {hi} GROUP BY bp_ten"),
)


class TestPrunedSubplans:
    def test_a_narrow_entry_never_answers_a_wider_request(self):
        db = make_db()
        narrow = db.sql("SELECT emp_id FROM emp WHERE salary > 1050")
        assert narrow.schema.names == ["emp_id"]
        before = db.reuse_stats()
        wider = db.sql("SELECT emp_id, dept FROM emp WHERE salary > 1050")
        after = db.reuse_stats()
        assert after["hits"] == before["hits"]  # every node missed
        assert after["misses"] > before["misses"]
        assert sorted(wider) == [(i, i % 10) for i in range(51, 120)]

    def test_select_list_order_shares_the_access_path_entry(self):
        db = make_db()
        ab = db.sql("SELECT emp_id, dept FROM emp WHERE salary > 1050")
        before = db.reuse_stats()
        ba = db.sql("SELECT dept, emp_id FROM emp WHERE salary > 1050")
        after = db.reuse_stats()
        # The Project on top is a different subplan; the filter under it
        # keeps one column set in schema order and is the same one.
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"] + 1
        assert sorted(ba) == sorted((d, e) for e, d in ab)

    def test_ledger_cycles_store_and_evict_what_they_did_before_pruning(self):
        """The ledger's hot/cold arithmetic (a cycle of its seven classes
        stores subplans against a 64-entry LRU; the hot half of a cycle
        must still find its roots a cycle later) needs a statement to
        store no more entries pruned than it did whole.  Re-recorded when
        the planner began folding ``lo <= c < hi`` into one ``Range``: a
        statement that stored ``IndexScan`` + ``Filter`` (or two chained
        filters) now stores one subplan, so a cold cycle adds 15 entries
        where it added 22 (the previous record, from 796eced: 44 entries
        after the first cycle, 2 evictions in the second, 24 in the
        third, 46 in the fourth).  Fewer stored subplans push fewer out:
        the hot roots are hit exactly as often (7 a cycle), and evictions
        start two cycles later and stay below what they were -- the
        arithmetic gains headroom and can never lose it.  Statement plans
        sit in an LRU of their own: every hot statement finds its plan
        (7 a cycle) and the result entries, hits and evictions are the
        ones recorded before plans were cached."""
        n = 1000  # a tenth of the ledger's scale
        db = wisc_db(n, n // 10, memory_pages=2000)
        recorded = (
            {"entries": 30, "hits": 0, "misses": 30, "evictions": 0},
            {"entries": 45, "hits": 7, "misses": 45, "evictions": 0},
            {"entries": 60, "hits": 14, "misses": 60, "evictions": 0},
            {"entries": 64, "hits": 21, "misses": 75, "evictions": 11},
        )
        for cycle, expected in enumerate(recorded):
            for start, share, template in WISC_CLASSES:
                first, width = max(2, int(n * start)), max(1, int(n * share))
                for lo in (first - 1, first + cycle):  # hot, then cold
                    db.sql(template.format(lo=lo, hi=lo + width))
            assert db.reuse_stats() == dict(
                expected, invalidations=0,
                plan_hits=7 * cycle, plan_misses=14 + 7 * cycle,
            )

    def test_dml_invalidates_pruned_entries(self):
        db = make_db()
        statement = "SELECT name FROM emp JOIN dept ON emp.dept = dept.dept_id " \
            "WHERE salary > 1100"
        plan = db.sql_explain(statement)
        assert "[dept]" in plan and "Scan(dept)" in plan
        first = sorted(db.sql(statement))
        held = db.reuse_stats()["entries"]
        assert held >= 3  # filter, join, project -- never the bare scan
        db.insert("dept", (42, "d42"))
        assert db.reuse_stats()["invalidations"] == 2  # join and project
        db.insert("emp", (998, 42, 99999))
        assert db.reuse_stats()["entries"] == 0
        assert sorted(db.sql(statement)) == sorted(first + [("d42",)])

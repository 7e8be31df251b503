"""Tests for the PR-9 vectorized join pipeline.

Four seams are covered:

* **N-way equivalence** -- 3..5-table chained joins through every join
  algorithm are byte-identical (rows *and* ``OperationCounters``) between
  the tuple-at-a-time specification and the production batch arm.
* **Section 3.3 recursion under skew** -- the hybrid join's one overflow
  remedy handles Zipf-skewed keys identically in both arms (rows and
  counters, pinned), with no leaked scratch files.
* **Plan order-invariance** -- the greedy optimizer picks the same plan
  no matter how the query lists its tables.
* **Measured statistics** -- ``join_selectivity`` consumes analyzed
  :class:`ColumnStats`, and re-analyzing a table changes join
  fingerprints so the reuse cache drops stale subtrees.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.cost.counters import OperationCounters
from repro.cost.parameters import CostParameters
from repro.join import ALL_JOINS, HybridHashJoin, JoinSpec
from repro.planner.planner import Planner, PlannerConfig
from repro.planner.query import JoinClause, Query
from repro.planner.selectivity import join_selectivity
from repro.storage.catalog import Catalog, ColumnStats
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema
from repro.workload.distributions import zipf_keys

PAGE_BYTES = 64

MODES = (dict(batch=False), dict(batch=True))


def make_relation(name, rows, columns):
    schema = Schema([Field(c, DataType.INTEGER) for c in columns])
    rel = Relation(name, schema, PAGE_BYTES)
    rel.extend_rows(rows)
    return rel


def chain_spec(r, s, r_field, s_field, memory_pages):
    params = CostParameters(
        r_pages=max(1, min(r.page_count, s.page_count)),
        s_pages=max(1, max(r.page_count, s.page_count)),
        r_tuples_per_page=r.tuples_per_page,
        s_tuples_per_page=s.tuples_per_page,
    )
    return JoinSpec(
        r=r,
        s=s,
        r_field=r_field,
        s_field=s_field,
        memory_pages=memory_pages,
        params=params,
    )


# ---------------------------------------------------------------------------
# N-way chained joins: every algorithm x every execution mode
# ---------------------------------------------------------------------------


def nway_tables(n_tables):
    """``n_tables`` relations sharing key values but not column names."""
    rng = random.Random(90 + n_tables)
    tables = []
    for i in range(n_tables):
        rows = [
            (rng.randrange(24), rng.randrange(100))
            for _ in range(70 + 30 * i)
        ]
        tables.append((("k%d" % i, "p%d" % i), rows))
    return tables


class TestNWayEquivalence:
    """3..5-way join chains are mode-invariant, rows and counters alike."""

    @pytest.mark.parametrize("memory_pages", [6, 200])
    @pytest.mark.parametrize("n_tables", [3, 4, 5])
    @pytest.mark.parametrize("name", sorted(ALL_JOINS))
    def test_chain_is_mode_invariant(self, name, n_tables, memory_pages):
        tables = nway_tables(n_tables)

        def run(kwargs):
            counters = OperationCounters()
            cols, rows = tables[0]
            current = make_relation("t0", rows, cols)
            for i in range(1, n_tables):
                cols, rows = tables[i]
                nxt = make_relation("t%d" % i, rows, cols)
                algo = ALL_JOINS[name](counters=counters, **kwargs)
                spec = chain_spec(
                    current, nxt, "k%d" % (i - 1), "k%d" % i, memory_pages
                )
                current = algo.join(spec).relation
            return sorted(current), counters.as_dict()

        try:
            runs = [run(dict(kwargs)) for kwargs in MODES]
        except ValueError:
            pytest.skip("algorithm assumptions do not hold at this grant")
        base_rows, base_counters = runs[0]
        assert base_rows, "degenerate chain: no rows survived"
        for rows, counters in runs[1:]:
            assert rows == base_rows
            assert counters == base_counters


# ---------------------------------------------------------------------------
# Section 3.3 recursion under skew
# ---------------------------------------------------------------------------


#: Wide pages and a key domain much larger than the bucket fan-out: hot
#: buckets hold many moderately hot keys, so a depth-salted recursion can
#: actually separate them (a single mega-key bucket is indivisible and is
#: joined directly, over budget).
SKEW_PAGE_BYTES = 512


def skewed_inputs(theta):
    r_keys = zipf_keys(1000, 62, theta=theta, seed=31)
    s_keys = zipf_keys(4000, 62, theta=theta, seed=32)
    r_rows = [(k, i) for i, k in enumerate(r_keys)]
    s_rows = [(k, i) for i, k in enumerate(s_keys)]
    return r_rows, s_rows


def skew_relation(name, rows, columns):
    schema = Schema([Field(c, DataType.INTEGER) for c in columns])
    rel = Relation(name, schema, SKEW_PAGE_BYTES)
    rel.extend_rows(rows)
    return rel


def run_hybrid(r_rows, s_rows, **kwargs):
    algo = HybridHashJoin(**kwargs)
    r = skew_relation("r", r_rows, ("key", "pay"))
    s = skew_relation("s", s_rows, ("skey", "spay"))
    memory_pages = max(3, int(r.page_count * 1.2 / 7.0) + 1)
    result = algo.join(chain_spec(r, s, "key", "skey", memory_pages))
    return algo, sorted(result.relation), result.counters.as_dict()


#: theta -> (counters, result rows) of E24's static rung at |M| ~ |R|/7,
#: as committed before the forecast-gated re-split was removed (PR 19).
SKEW_PINS = {
    0.0: ((4938, 11222, 7222, 115, 101), 64084),
    0.8: ((4938, 16088, 12088, 217, 159), 173775),
    1.2: ((4938, 24179, 20179, 290, 348), 469748),
}


class TestRecursionUnderSkew:
    @pytest.mark.parametrize("theta", sorted(SKEW_PINS))
    def test_arms_agree_and_counters_are_pinned(self, theta):
        r_rows, s_rows = skewed_inputs(theta)
        (comparisons, hashes, moves, seq, rand), cardinality = SKEW_PINS[theta]
        pinned = {
            "comparisons": comparisons,
            "hashes": hashes,
            "moves": moves,
            "swaps": 0,
            "sequential_ios": seq,
            "random_ios": rand,
        }
        base_rows = None
        for kwargs in MODES:
            algo, rows, counters = run_hybrid(r_rows, s_rows, **kwargs)
            assert counters == pinned, kwargs
            assert len(rows) == cardinality
            if base_rows is None:
                base_rows = rows
            assert rows == base_rows
            # Every scratch partition file was consumed and deleted.
            assert not algo.disk._files, sorted(algo.disk._files)


# ---------------------------------------------------------------------------
# Planner: order-invariance and measured statistics
# ---------------------------------------------------------------------------


def star_catalog():
    cat = Catalog()
    rng = random.Random(7)
    sizes = {"fact": 400, "dim_a": 30, "dim_b": 60, "dim_c": 90}
    fact = Relation(
        "fact",
        Schema(
            [
                Field("fa", DataType.INTEGER),
                Field("fb", DataType.INTEGER),
                Field("fc", DataType.INTEGER),
            ]
        ),
        PAGE_BYTES,
    )
    fact.extend_rows(
        [
            (rng.randrange(30), rng.randrange(60), rng.randrange(90))
            for _ in range(sizes["fact"])
        ]
    )
    cat.register(fact)
    for name, col, domain in (
        ("dim_a", "a_id", 30),
        ("dim_b", "b_id", 60),
        ("dim_c", "c_id", 90),
    ):
        rel = Relation(
            name,
            Schema(
                [Field(col, DataType.INTEGER), Field(col + "_v", DataType.INTEGER)]
            ),
            PAGE_BYTES,
        )
        rel.extend_rows([(i, i * 2) for i in range(sizes[name])])
        cat.register(rel)
    for name in cat.relations():
        cat.analyze(name)
    return cat


STAR_JOINS = [
    JoinClause("fact", "fa", "dim_a", "a_id"),
    JoinClause("fact", "fb", "dim_b", "b_id"),
    JoinClause("fact", "fc", "dim_c", "c_id"),
]


class TestPlanOrderInvariance:
    def test_table_listing_order_is_immaterial(self):
        cat = star_catalog()
        planner = Planner(cat, PlannerConfig(memory_pages=200))
        tables = ["fact", "dim_a", "dim_b", "dim_c"]
        baseline = None
        for perm in itertools.permutations(tables):
            query = Query(tables=list(perm), joins=list(STAR_JOINS))
            explained = planner.explain(query)
            if baseline is None:
                baseline = explained
            else:
                assert explained == baseline, "order %r changed the plan" % (
                    perm,
                )

    def test_join_clause_order_is_immaterial(self):
        cat = star_catalog()
        planner = Planner(cat, PlannerConfig(memory_pages=200))
        tables = ["fact", "dim_a", "dim_b", "dim_c"]
        baseline = planner.explain(Query(tables=tables, joins=list(STAR_JOINS)))
        for perm in itertools.permutations(STAR_JOINS):
            explained = planner.explain(Query(tables=tables, joins=list(perm)))
            assert explained == baseline


    def test_select_list_order_changes_only_the_top_project(self):
        """Access paths keep their columns in schema order, so every
        spelling of one SELECT list is one plan under the Project."""
        cat = star_catalog()
        planner = Planner(cat, PlannerConfig(memory_pages=200))
        tables = ["fact", "dim_a", "dim_b", "dim_c"]
        names = ["c_id_v", "fa", "a_id_v", "b_id"]
        baseline = None
        for perm in itertools.permutations(names):
            for listing in (tables, tables[::-1]):
                query = Query(
                    tables=list(listing), joins=list(STAR_JOINS),
                    projection=list(perm),
                )
                top, below = planner.explain(query).split("\n", 1)
                assert top.startswith("Project[hash](%s)" % ", ".join(perm))
                baseline = baseline or below
                assert below == baseline, "order %r changed the plan" % (perm,)
        assert "Scan(dim_c)" in baseline and "Scan(dim_b)[b_id]" in baseline
        assert "Scan(fact)" in baseline and "Scan(fact)[" not in baseline


class TestMeasuredSelectivity:
    def test_ints_keep_historical_convention(self):
        assert join_selectivity(4, 10) == pytest.approx(0.1)
        assert join_selectivity(0, 0) == 1.0

    def test_column_stats_use_measured_distinct(self):
        cat = star_catalog()
        col = cat.stats("dim_b").column("b_id")
        assert isinstance(col, ColumnStats)
        assert col.distinct == 60
        assert join_selectivity(col, 5) == pytest.approx(1.0 / 60)
        assert join_selectivity(3, col) == join_selectivity(col, col)

    def test_planner_uses_the_measured_distinct_count(self):
        # An access path reports its column's analyzed distinct count
        # for join cardinality while its estimated rows do not cap it.
        cat = star_catalog()
        planner = Planner(cat, PlannerConfig(memory_pages=200))
        sub = planner._access_path(
            Query(tables=["dim_c"]), "dim_c"
        )
        assert sub.distinct_of("c_id") == 90


class TestStatsEpochFingerprints:
    def test_analyze_changes_join_fingerprint(self):
        cat = star_catalog()
        planner = Planner(cat, PlannerConfig(memory_pages=200))
        query = Query(
            tables=["fact", "dim_a"], joins=[STAR_JOINS[0]]
        )
        plan = planner.plan(query)
        ctx = planner.context()
        before = plan.fingerprint(ctx)
        assert plan.fingerprint(ctx) == before  # stable while stats hold
        cat.analyze("dim_a")
        after = plan.fingerprint(ctx)
        assert after != before
        # Scans of untouched tables keep their identity: only the join
        # node (whose ordering consumed the statistics) re-keys.
        assert before[:2] == after[:2] == ("join", plan.algorithm)

    def test_epoch_counts_analyze_runs(self):
        cat = star_catalog()
        assert cat.stats_epoch("fact") == 1
        cat.analyze("fact")
        assert cat.stats_epoch("fact") == 2
        assert cat.stats_epoch("dim_a") == 1

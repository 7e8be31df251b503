"""Hybrid hash overflow recursion under tiny (and shrinking) grants.

Satellite coverage for ``HybridHashJoin._recurse_on_bucket``: the Section
3.3 recursion must stay correct when the memory grant is minimal from the
start, when it is revoked mid-query (sub-levels plan against the shrunken
budget), and when a bucket is dominated by one unsplittable hot key.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.cost.parameters import CostParameters
from repro.governor import CancellationToken, MemoryGrant, QueryGuard
from repro.join.base import JoinSpec
from repro.join.hybrid_hash import HybridHashJoin
from repro.storage.tuples import DataType, make_schema

from tests.conftest import build_relation


class RecordingHybrid(HybridHashJoin):
    """Counts recursion entries and the depths/budgets they plan with."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.recursions = []

    def _recurse_on_bucket(self, spec, output, r_rows, s_rows, depth):
        self.recursions.append(
            (depth + 1, self.effective_memory_pages(spec.memory_pages))
        )
        super()._recurse_on_bucket(spec, output, r_rows, s_rows, depth)


def reference_join(r, s, r_field, s_field):
    r_idx = r.schema.index_of(r_field)
    s_idx = s.schema.index_of(s_field)
    by_key = {}
    for row in r:
        by_key.setdefault(row[r_idx], []).append(row)
    return Counter(
        r_row + s_row
        for s_row in s
        for r_row in by_key.get(s_row[s_idx], ())
    )


def skewed_instance(seed=23, n=500, domain=60):
    rng = random.Random(seed)
    r = build_relation("r", [rng.randrange(domain) for _ in range(n)])
    s_schema = make_schema(("skey", DataType.INTEGER),
                           ("sval", DataType.INTEGER))
    s = build_relation(
        "s", [rng.randrange(domain) for _ in range(2 * n)], schema=s_schema
    )
    params = CostParameters(
        r_pages=r.page_count, s_pages=s.page_count,
        r_tuples_per_page=r.tuples_per_page,
        s_tuples_per_page=s.tuples_per_page,
    )

    def spec(memory_pages):
        return JoinSpec(r=r, s=s, r_field="key", s_field="skey",
                        memory_pages=memory_pages, params=params)

    return r, s, spec


def tiny_guard(pages=2):
    """A guard whose grant is already at the revocation floor."""
    grant = MemoryGrant(pages) if pages >= 2 else MemoryGrant(2)
    return QueryGuard(token=CancellationToken(qid=1), grant=grant), grant


class TestTinyGrants:
    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "tuple"])
    def test_floor_grant_recursion_matches_reference(self, batch):
        r, s, spec = skewed_instance()
        expected = reference_join(r, s, "key", "skey")
        guard, _ = tiny_guard(2)
        algo = RecordingHybrid(batch=batch).set_guard(guard)
        result = algo.join(spec(6))
        assert Counter(result.relation) == expected
        # A 2-page capacity cannot hold the spilled buckets: at least one
        # must have recursed, and every sub-level planned at the floor.
        assert algo.recursions
        assert all(pages == 2 for _, pages in algo.recursions)

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "tuple"])
    def test_depth_never_exceeds_backstop(self, batch):
        r, s, spec = skewed_instance(seed=31, n=800, domain=50)
        guard, _ = tiny_guard(2)
        algo = RecordingHybrid(batch=batch).set_guard(guard)
        result = algo.join(spec(4))
        assert Counter(result.relation) == reference_join(r, s, "key", "skey")
        assert max(d for d, _ in algo.recursions) <= algo.MAX_RECURSION

    def test_mid_query_revocation_shrinks_sub_levels(self):
        r, s, spec = skewed_instance()
        expected = reference_join(r, s, "key", "skey")
        grant = MemoryGrant(8)
        token = CancellationToken(qid=4)
        token.on_check = (
            lambda tok: grant.revoke(2) if tok.checks == 6 else None
        )
        guard = QueryGuard(token=token, grant=grant)
        algo = RecordingHybrid(batch=True).set_guard(guard)
        result = algo.join(spec(8))
        assert grant.revocations == 1
        assert Counter(result.relation) == expected
        # Sub-levels planned against the revoked budget, not the original.
        assert algo.recursions
        assert all(pages == 2 for _, pages in algo.recursions)


class TestHotKeyBuckets:
    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "tuple"])
    def test_unsplittable_hot_key_joins_directly(self, batch):
        # Every R tuple shares one key: repartitioning can never split the
        # bucket, so the join must process it directly instead of
        # recursing MAX_RECURSION levels of useless rewrites.
        r = build_relation("r", [7] * 150)
        s_schema = make_schema(("skey", DataType.INTEGER),
                               ("sval", DataType.INTEGER))
        s = build_relation("s", [7] * 200 + [11] * 100, schema=s_schema)
        params = CostParameters(
            r_pages=r.page_count, s_pages=s.page_count,
            r_tuples_per_page=r.tuples_per_page,
            s_tuples_per_page=s.tuples_per_page,
        )
        guard, _ = tiny_guard(2)
        algo = RecordingHybrid(batch=batch).set_guard(guard)
        result = algo.join(
            JoinSpec(r=r, s=s, r_field="key", s_field="skey",
                     memory_pages=4, params=params)
        )
        assert Counter(result.relation) == reference_join(
            r, s, "key", "skey"
        )
        assert not algo.recursions

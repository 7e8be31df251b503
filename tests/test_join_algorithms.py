"""Tests for the executable join algorithms (Section 3).

The central property: all five algorithms produce the same multiset of
joined tuples at any memory grant where their assumptions hold.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.parameters import CostParameters
from repro.join import (
    ALL_JOINS,
    GraceHashJoin,
    HybridHashJoin,
    JoinSpec,
    NestedLoopsJoin,
    SimpleHashJoin,
    SortMergeJoin,
)
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, make_schema

from tests.conftest import build_relation


def make_spec(r, s, memory_pages, r_field="key", s_field="skey"):
    params = CostParameters(
        r_pages=max(1, min(r.page_count, s.page_count)),
        s_pages=max(1, max(r.page_count, s.page_count)),
        r_tuples_per_page=r.tuples_per_page,
        s_tuples_per_page=s.tuples_per_page,
    )
    return JoinSpec(
        r=r, s=s, r_field=r_field, s_field=s_field,
        memory_pages=memory_pages, params=params,
    )


def reference_join(r, s, r_field, s_field):
    ri = r.schema.index_of(r_field)
    si = s.schema.index_of(s_field)
    out = Counter()
    for r_row in r:
        for s_row in s:
            if r_row[ri] == s_row[si]:
                out[r_row + s_row] += 1
    return out


class TestCorrectness:
    @pytest.mark.parametrize("name", sorted(ALL_JOINS))
    @pytest.mark.parametrize("memory", [16, 40, 400])
    def test_matches_reference(self, name, memory, r_relation, s_relation):
        expected = reference_join(r_relation, s_relation, "key", "skey")
        spec = make_spec(r_relation, s_relation, memory)
        try:
            result = ALL_JOINS[name]().join(spec)
        except ValueError:
            pytest.skip("two-pass floor at this memory grant")
        assert Counter(result.relation) == expected

    @pytest.mark.parametrize("name", sorted(ALL_JOINS))
    def test_empty_inputs(self, name, kv_schema):
        r = Relation("r", kv_schema, 64)
        s_schema = make_schema(("skey", DataType.INTEGER), ("sv", DataType.INTEGER))
        s = Relation("s", s_schema, 64)
        spec = make_spec(r, s, 16)
        result = ALL_JOINS[name]().join(spec)
        assert result.cardinality == 0

    @pytest.mark.parametrize("name", sorted(ALL_JOINS))
    def test_no_matches(self, name):
        r = build_relation("r", range(0, 50))
        s_schema = make_schema(("skey", DataType.INTEGER), ("sv", DataType.INTEGER))
        s = build_relation("s", range(100, 150), schema=s_schema)
        result = ALL_JOINS[name]().join(make_spec(r, s, 32))
        assert result.cardinality == 0

    @pytest.mark.parametrize("name", sorted(ALL_JOINS))
    def test_heavy_duplicates(self, name):
        """Every R tuple matches every S tuple (single hot key)."""
        r = build_relation("r", [7] * 20)
        s_schema = make_schema(("skey", DataType.INTEGER), ("sv", DataType.INTEGER))
        s = build_relation("s", [7] * 30, schema=s_schema)
        result = ALL_JOINS[name]().join(make_spec(r, s, 32))
        assert result.cardinality == 600


class TestSpecNormalisation:
    def test_swaps_to_keep_r_smaller(self, r_relation, s_relation):
        spec = make_spec(s_relation, r_relation, 40, r_field="skey", s_field="key")
        assert spec.r.name == "r"
        assert spec.r_field == "key"

    def test_minimum_memory(self, r_relation, s_relation):
        with pytest.raises(ValueError):
            make_spec(r_relation, s_relation, 1)

    def test_unknown_fields_rejected(self, r_relation, s_relation):
        with pytest.raises(KeyError):
            JoinSpec(
                r=r_relation, s=s_relation, r_field="nope", s_field="skey",
                memory_pages=16,
            )

    def test_result_schema_prefixes_clashes(self):
        r = build_relation("r", range(10))
        s = build_relation("s", range(10))
        spec = JoinSpec(r=r, s=s, r_field="key", s_field="key", memory_pages=16)
        result = NestedLoopsJoin().join(spec)
        assert result.relation.schema.names == [
            "r_key", "r_payload", "s_key", "s_payload",
        ]


class TestCostBehaviour:
    def test_hash_joins_avoid_io_when_r_fits(self, r_relation, s_relation):
        spec = make_spec(r_relation, s_relation, 400)
        for cls in (SimpleHashJoin, HybridHashJoin):
            result = cls().join(spec)
            c = result.counters
            assert c.sequential_ios == 0 and c.random_ios == 0

    def test_grace_always_spills(self, r_relation, s_relation):
        result = GraceHashJoin().join(make_spec(r_relation, s_relation, 400))
        assert result.counters.sequential_ios + result.counters.random_ios > 0

    def test_simple_hash_io_grows_as_memory_shrinks(self, r_relation, s_relation):
        lo = SimpleHashJoin().join(make_spec(r_relation, s_relation, 8))
        hi = SimpleHashJoin().join(make_spec(r_relation, s_relation, 40))
        assert lo.counters.sequential_ios > hi.counters.sequential_ios

    def test_hybrid_spills_less_than_grace(self, r_relation, s_relation):
        memory = 20
        hybrid = HybridHashJoin().join(make_spec(r_relation, s_relation, memory))
        grace = GraceHashJoin().join(make_spec(r_relation, s_relation, memory))
        hybrid_io = hybrid.counters.sequential_ios + hybrid.counters.random_ios
        grace_io = grace.counters.sequential_ios + grace.counters.random_ios
        assert hybrid_io < grace_io

    def test_sort_merge_charges_swaps(self, r_relation, s_relation):
        result = SortMergeJoin().join(make_spec(r_relation, s_relation, 40))
        assert result.counters.swaps > 0

    def test_modelled_seconds_positive(self, r_relation, s_relation):
        for name, cls in ALL_JOINS.items():
            result = cls().join(make_spec(r_relation, s_relation, 40))
            assert result.modelled_seconds > 0
            assert result.algorithm == name


class TestScratchHygiene:
    @pytest.mark.parametrize("name", ["sort-merge", "grace-hash", "hybrid-hash"])
    def test_scratch_files_cleaned_up(self, name, r_relation, s_relation):
        algo = ALL_JOINS[name]()
        algo.join(make_spec(r_relation, s_relation, 20))
        assert algo.disk.files() == []


@settings(max_examples=25, deadline=None)
@given(
    r_keys=st.lists(st.integers(0, 30), max_size=60),
    s_keys=st.lists(st.integers(0, 30), max_size=120),
    memory=st.sampled_from([12, 24, 64]),
)
def test_property_all_algorithms_agree(r_keys, s_keys, memory):
    r = build_relation("r", r_keys)
    s_schema = make_schema(("skey", DataType.INTEGER), ("sv", DataType.INTEGER))
    s = build_relation("s", s_keys, schema=s_schema)
    expected = None
    for name, cls in sorted(ALL_JOINS.items()):
        spec = make_spec(r, s, memory)
        try:
            result = cls().join(spec)
        except ValueError:
            continue
        # Column order differs when the spec swapped R and S; normalise by
        # sorting each row's field reprs.
        normalised = Counter(tuple(sorted(map(repr, row))) for row in result.relation)
        if expected is None:
            expected = normalised
        else:
            assert normalised == expected, "algorithm %s diverged" % name


class TestHybridRecursion:
    """Regression coverage for the Section 3.3 overflow recursion."""

    def test_recursed_bucket_with_r_heavier_than_s(self):
        """A recursed bucket whose R slice outweighs its S slice must keep
        the original (R, S) orientation (regression: the sub-spec swap-back
        restored the wrong sides and crashed on the key field)."""
        from repro.workload.generator import join_inputs

        r, s = join_inputs(4000, 4000, key_domain=80_000, page_bytes=320)
        params = CostParameters(
            r_pages=r.page_count,
            s_pages=s.page_count,
            r_tuples_per_page=r.tuples_per_page,
            s_tuples_per_page=s.tuples_per_page,
        )
        spec = JoinSpec(
            r=r, s=s, r_field="rkey", s_field="skey",
            memory_pages=12, params=params,
        )
        result = ALL_JOINS["hybrid-hash"]().join(spec)
        r_counts = Counter(row[0] for row in r)
        expected = sum(r_counts.get(row[0], 0) for row in s)
        assert result.cardinality == expected

    def test_skewed_bucket_recursion_matches_baseline(self):
        rng = random.Random(17)
        keys = [5] * 300 + [rng.randrange(40) for _ in range(300)]
        r = build_relation("r", keys)
        s_schema = make_schema(("skey", DataType.INTEGER), ("sv", DataType.INTEGER))
        s = build_relation(
            "s", [5] * 200 + [rng.randrange(40) for _ in range(400)],
            schema=s_schema,
        )
        expected = reference_join(r, s, "key", "skey")
        result = ALL_JOINS["hybrid-hash"]().join(make_spec(r, s, 10))
        assert Counter(result.relation) == expected


class TestCountersTrackTheClosedForms:
    """E5: the executed algorithms' counters, weighted by Table 2, land
    within a bounded factor of the Section 3 closed forms and keep their
    decisive orderings (a scaled-down Table 2 shape, 40 tuples a page)."""

    @pytest.fixture(scope="class")
    def instance(self):
        from repro.workload.generator import join_inputs

        r, s = join_inputs(2000, 2000, key_domain=40_000, page_bytes=320)
        params = CostParameters(
            r_pages=r.page_count,
            s_pages=s.page_count,
            r_tuples_per_page=r.tuples_per_page,
            s_tuples_per_page=s.tuples_per_page,
        )
        return r, s, params

    @pytest.mark.parametrize("ratio", [0.3, 1.0])
    def test_measured_against_modelled(self, instance, ratio):
        from repro.cost.join_model import JoinCostModel

        r, s, params = instance
        memory = max(params.minimum_memory_pages, params.memory_for_ratio(ratio))
        modelled = JoinCostModel(params).costs(memory)
        measured = {
            name: ALL_JOINS[name]().join(JoinSpec(
                r=r, s=s, r_field="rkey", s_field="skey",
                memory_pages=memory, params=params,
            )).modelled_seconds
            for name in modelled
        }
        assert measured["hybrid-hash"] <= measured["grace-hash"] * 1.05
        if ratio >= 1.0:
            assert measured["hybrid-hash"] < measured["sort-merge"]
            assert measured["simple-hash"] < measured["grace-hash"]
        for name in modelled:
            assert 0.4 < measured[name] / modelled[name] < 2.5, name


def keyed_relation(name, key_field, keys):
    relation = Relation(
        name,
        make_schema((key_field, DataType.INTEGER), ("v", DataType.INTEGER)),
        64,
    )
    for i, k in enumerate(keys):
        relation.insert_unchecked((k, i))
    return relation


class TestSkewAblation:
    """E16: Section 3.3 assumes keys the hash function randomises; under
    Zipf skew every hash join still agrees, and hybrid's recursion keeps
    it within a small factor of GRACE (whose phase 2 ignores the grant)
    and below simple hash."""

    @pytest.mark.parametrize("theta, bound", [(None, 1.25), (0.8, 1.25), (1.2, 2.5)])
    def test_agreement_and_graceful_degradation(self, theta, bound):
        from repro.workload.distributions import uniform_keys, zipf_keys

        if theta is None:
            r_keys, s_keys = uniform_keys(2000, 400, seed=3), uniform_keys(4000, 400, seed=4)
        else:
            r_keys = zipf_keys(2000, 400, theta=theta, seed=3)
            s_keys = zipf_keys(4000, 400, theta=theta, seed=4)
        r = keyed_relation("r", "key", r_keys)
        s = keyed_relation("s", "skey", s_keys)
        params = CostParameters(
            r_pages=r.page_count, s_pages=s.page_count,
            r_tuples_per_page=8, s_tuples_per_page=8,
        )
        outputs, seconds = {}, {}
        for name in ("simple-hash", "grace-hash", "hybrid-hash"):
            result = ALL_JOINS[name]().join(JoinSpec(
                r=r, s=s, r_field="key", s_field="skey",
                memory_pages=24, params=params,
            ))
            # R's and S's row ids (``r_v``, ``s_v``) name a joined row.
            index_of = result.relation.schema.index_of
            pairs = zip(
                result.relation.column(index_of("r_v")),
                result.relation.column(index_of("s_v")),
            )
            outputs[name] = sorted(v * 4000 + w for v, w in pairs)
            seconds[name] = result.modelled_seconds
        assert outputs["simple-hash"] == outputs["grace-hash"] == outputs["hybrid-hash"]
        assert seconds["hybrid-hash"] < bound * seconds["grace-hash"]
        assert seconds["hybrid-hash"] < seconds["simple-hash"]

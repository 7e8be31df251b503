"""Differential tests: batch execution == tuple-at-a-time execution.

The page-at-a-time batch executor must be *observationally identical* to
the historical tuple-at-a-time loops: same output rows (order included,
where the operator defines one) and -- because the counters are the
paper's cost model -- byte-for-byte identical ``OperationCounters``
totals, IO classification included.

Every test runs the same workload once per execution mode on fresh
relations, disks, and counters, then compares rows and
``counters.as_dict()``.
"""

from __future__ import annotations

import random

import pytest

from repro.access.avl import AVLTree
from repro.access.btree import BPlusTree
from repro.access.hash_index import HashIndex
from repro.cost.counters import OperationCounters
from repro.cost.parameters import CostParameters
from repro.errors import PlannerError
from repro.governor import CancellationToken, MemoryGrant, QueryGuard
from repro.join import (
    ALL_JOINS,
    HybridHashJoin,
    JoinSpec,
)
from repro.operators.aggregate import (
    AggregateFunction,
    AggregateSpec,
    hash_aggregate,
    sort_aggregate,
)
from repro.operators.projection import hash_project, sort_project
from repro.operators.relational import (
    cross_product,
    difference,
    divide,
    intersect,
    union_,
)
from repro.operators.selection import (
    And,
    Comparison,
    Predicate,
    Prefix,
    Range,
    select,
    select_via_index,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------

PAGE_BYTES = 64  # 8 integer pairs per page: plenty of page boundaries


def kv_relation(name, pairs, columns=("key", "payload")):
    schema = Schema([Field(c, DataType.INTEGER) for c in columns])
    rel = Relation(name, schema, PAGE_BYTES)
    rel.extend_rows([tuple(p) for p in pairs])
    return rel


def seeded_pairs(seed, n, key_range):
    rng = random.Random(seed)
    return [(rng.randrange(key_range), i) for i in range(n)]


#: The tuple-at-a-time specification and the production batch arm.
MODES = (dict(batch=False), dict(batch=True))


def run_modes(fn):
    """Run ``fn(mode_kwargs)`` per execution mode; return [(rows, counters)]."""
    return [fn(dict(kwargs)) for kwargs in MODES]


def assert_equivalent(runs, ordered=True):
    (base_rows, base_counters) = runs[0]
    for rows, counters in runs[1:]:
        if ordered:
            assert list(rows) == list(base_rows)
        else:
            assert sorted(rows) == sorted(base_rows)
        assert counters == base_counters


# ---------------------------------------------------------------------------
# Storage bulk paths
# ---------------------------------------------------------------------------


class TestStorageBulk:
    def test_extend_rows_matches_repeated_insert(self):
        rows = seeded_pairs(0, 61, 40)
        one = kv_relation("one", [])
        for row in rows:
            one.insert_unchecked(row)
        bulk = kv_relation("bulk", [])
        assert bulk.extend_rows(rows) == len(rows)
        assert list(one) == list(bulk)
        assert [p.tuples for p in one.pages] == [p.tuples for p in bulk.pages]
        assert bulk.cardinality == len(rows)

    def test_extend_validates_like_insert(self):
        rel = kv_relation("v", [])
        with pytest.raises(TypeError):
            rel.extend([(1, 2), ("bad", 3)])
        with pytest.raises(ValueError):
            rel.extend([(1, 2, 3)])
        assert rel.cardinality == 0  # failed batch inserts nothing

    def test_mutations_bump_version(self):
        rel = kv_relation("ver", [(1, 1)])
        v0 = rel.version
        rel.extend_rows([(2, 2)])
        assert rel.version > v0
        v1 = rel.version
        rel.truncate()
        assert rel.version > v1 and rel.cardinality == 0


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------

PREDICATES = [
    Comparison("key", "<", 20),
    Comparison("key", "=", 7),
    (Comparison("key", ">", 5) & Comparison("payload", "<", 90))
    | Comparison("key", "=", 0),
    ~Comparison("key", ">=", 30),
]


class TestSelection:
    @pytest.mark.parametrize("pred_index", range(len(PREDICATES)))
    def test_select(self, pred_index):
        predicate = PREDICATES[pred_index]

        def run(kwargs):
            counters = OperationCounters()
            rel = kv_relation("t", seeded_pairs(1, 123, 40))
            out = select(rel, predicate, counters, **kwargs)
            return list(out), counters.as_dict()

        assert_equivalent(run_modes(run))

    def test_select_prefix(self):
        schema = Schema(
            [Field("name", DataType.STRING), Field("n", DataType.INTEGER)]
        )
        rel = Relation("s", schema, 256)
        rng = random.Random(2)
        rel.extend_rows(
            [(rng.choice(["abc", "abd", "xyz", "ab"]), i) for i in range(50)]
        )

        def run(kwargs):
            counters = OperationCounters()
            out = select(rel, Prefix("name", "ab"), counters, **kwargs)
            return list(out), counters.as_dict()

        assert_equivalent(run_modes(run))

    def test_evaluate_only_predicate(self):
        """A user predicate that implements nothing but ``evaluate``."""

        class PayloadNotMultipleOf3(Predicate):
            def evaluate(self, schema, row):
                return row[schema.index_of("payload")] % 3  # 0, 1 or 2: truthy, not bool

            def comparisons(self):
                return 1

        for predicate in (
            PayloadNotMultipleOf3(),
            And(PayloadNotMultipleOf3(), Comparison("key", "<", 20)),
        ):

            def run(kwargs):
                counters = OperationCounters()
                rel = kv_relation("t", seeded_pairs(1, 123, 40))
                out = select(rel, predicate, counters, **kwargs)
                return list(out), counters.as_dict()

            runs = run_modes(run)
            assert runs[0][0], "degenerate: nothing selected"
            assert_equivalent(runs)


INDEX_PREDICATES = [
    Comparison("key", "=", 7),
    Comparison("key", "=", 1000),  # missing key
    Comparison("key", "<", 12),
    Comparison("key", "<=", 12),
    Comparison("key", ">", 31),
    Comparison("key", ">=", 31),
    Comparison("key", ">", 1000),  # empty range
    Range("key", 12, 31),
    Range("key", 12, 31, low_open=True, high_open=True),
    Range("key", 12, 31, high_open=True),
    Range("key", 20, 20),  # one key
    Range("key", 20, 20, high_open=True),  # empty: [20, 20)
    Range("key", 31, 12),  # empty: inverted
    Range("key", -5, 1000),  # everything
]


class TestSelectViaIndex:
    """The index probe is shared; the arms differ in how TIDs are fetched."""

    @staticmethod
    def run_arms(rel, index_cls, predicate):
        def run(kwargs):
            probe_counters = OperationCounters()
            index = index_cls(counters=probe_counters)
            for tid, row in rel.scan():
                index.insert(row[0], tid)
            probe_counters.reset()
            counters = OperationCounters()
            token = CancellationToken(qid=1)
            out = select_via_index(
                rel, index, predicate, counters, token=token, **kwargs
            )
            return list(out), (
                counters.as_dict(), probe_counters.as_dict(), token.checks
            )

        return run_modes(run)

    @pytest.mark.parametrize("index_cls", [BPlusTree, AVLTree, HashIndex])
    def test_comparisons(self, index_cls):
        rel = kv_relation("t", seeded_pairs(16, 123, 40))
        matched = 0
        for predicate in INDEX_PREDICATES:
            if index_cls is HashIndex and not getattr(predicate, "is_equality", False):
                for kwargs in MODES:
                    with pytest.raises(PlannerError):
                        select_via_index(rel, index_cls(), predicate, **kwargs)
                continue
            runs = self.run_arms(rel, index_cls, predicate)
            assert_equivalent(runs)
            assert sorted(runs[0][0]) == sorted(select(rel, predicate))
            matched += len(runs[0][0])
        assert matched, "degenerate: no predicate matched anything"

    @pytest.mark.parametrize("index_cls", [BPlusTree, AVLTree])
    def test_prefix(self, index_cls):
        schema = Schema(
            [Field("name", DataType.STRING), Field("n", DataType.INTEGER)]
        )
        rel = Relation("s", schema, 256)
        rng = random.Random(17)
        rel.extend_rows(
            [(rng.choice(["abc", "abd", "xyz", "ab"]), i) for i in range(50)]
        )
        for prefix in ("ab", "abd", "q"):
            runs = self.run_arms(rel, index_cls, Prefix("name", prefix))
            assert_equivalent(runs)
            assert len(runs[0][0]) == sum(
                row[0].startswith(prefix) for row in rel
            )


class TestProjection:
    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("memory_pages", [None, 2])
    def test_hash_project(self, distinct, memory_pages):
        def run(kwargs):
            counters = OperationCounters()
            rel = kv_relation("t", seeded_pairs(3, 200, 25))
            out = hash_project(
                rel,
                ["key"],
                distinct=distinct,
                counters=counters,
                memory_pages=memory_pages,
                disk=SimulatedDisk(counters),
                **kwargs,
            )
            return list(out), counters.as_dict()

        assert_equivalent(run_modes(run))

    @pytest.mark.parametrize("distinct", [False, True])
    def test_sort_project(self, distinct):
        def run(kwargs):
            counters = OperationCounters()
            rel = kv_relation("t", seeded_pairs(4, 150, 30))
            out = sort_project(
                rel, ["key"], distinct=distinct, counters=counters, **kwargs
            )
            return list(out), counters.as_dict()

        assert_equivalent(run_modes(run))


AGGS = [
    AggregateSpec(AggregateFunction.COUNT),
    AggregateSpec(AggregateFunction.SUM, "payload"),
    AggregateSpec(AggregateFunction.MIN, "payload"),
    AggregateSpec(AggregateFunction.MAX, "payload"),
    AggregateSpec(AggregateFunction.AVG, "payload"),
]


class TestAggregation:
    @pytest.mark.parametrize("memory_pages", [None, 2])
    def test_hash_aggregate(self, memory_pages):
        def run(kwargs):
            counters = OperationCounters()
            rel = kv_relation("t", seeded_pairs(5, 300, 60))
            out = hash_aggregate(
                rel,
                ["key"],
                AGGS,
                counters=counters,
                memory_pages=memory_pages,
                disk=SimulatedDisk(counters),
                **kwargs,
            )
            return list(out), counters.as_dict()

        runs = run_modes(run)
        assert_equivalent(runs)
        # Only a capped group table overflows into spill partitions.
        spill_io = runs[0][1]["sequential_ios"] + runs[0][1]["random_ios"]
        assert (spill_io > 0) == (memory_pages is not None)

    def test_sort_aggregate(self):
        for group_by in (["key"], []):

            def run(kwargs):
                counters = OperationCounters()
                rel = kv_relation("t", seeded_pairs(6, 180, 23))
                out = sort_aggregate(
                    rel, group_by, AGGS, counters=counters, **kwargs
                )
                return list(out), counters.as_dict()

            runs = run_modes(run)
            assert len(runs[0][0]) == (23 if group_by else 1)
            assert_equivalent(runs)


class TestRelationalOperators:
    def test_cross_product(self):
        def run(kwargs):
            counters = OperationCounters()
            r = kv_relation("r", seeded_pairs(7, 23, 10))
            s = kv_relation("s", seeded_pairs(8, 17, 10), columns=("k2", "p2"))
            out = cross_product(r, s, counters, **kwargs)
            return list(out), counters.as_dict()

        assert_equivalent(run_modes(run))

    @pytest.mark.parametrize("distinct", [False, True])
    def test_union(self, distinct):
        def run(kwargs):
            counters = OperationCounters()
            a = kv_relation("a", seeded_pairs(9, 80, 15))
            b = kv_relation("b", seeded_pairs(10, 70, 15))
            out = union_(a, b, distinct=distinct, counters=counters, **kwargs)
            return list(out), counters.as_dict()

        assert_equivalent(run_modes(run))

    def test_intersect(self):
        def run(kwargs):
            counters = OperationCounters()
            a = kv_relation("a", seeded_pairs(11, 90, 12))
            b = kv_relation("b", seeded_pairs(12, 85, 12))
            out = intersect(a, b, counters, **kwargs)
            return list(out), counters.as_dict()

        assert_equivalent(run_modes(run))

    def test_difference(self):
        def run(kwargs):
            counters = OperationCounters()
            a = kv_relation("a", seeded_pairs(13, 90, 12))
            b = kv_relation("b", seeded_pairs(14, 40, 12))
            out = difference(a, b, counters, **kwargs)
            return list(out), counters.as_dict()

        assert_equivalent(run_modes(run))

    def test_divide(self):
        schema = Schema(
            [Field("g", DataType.INTEGER), Field("x", DataType.INTEGER)]
        )
        rng = random.Random(15)
        r_rows = [(rng.randrange(8), rng.randrange(4)) for _ in range(120)]
        d_rows = [(v,) for v in (0, 1)]

        def run(kwargs):
            counters = OperationCounters()
            r = Relation("r", schema, PAGE_BYTES)
            r.extend_rows(r_rows)
            d = Relation(
                "d", Schema([Field("x", DataType.INTEGER)]), PAGE_BYTES
            )
            d.extend_rows(d_rows)
            out = divide(r, d, ["g"], ["x"], counters=counters, **kwargs)
            return list(out), counters.as_dict()

        assert_equivalent(run_modes(run))


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def join_spec(r, s, memory_pages):
    params = CostParameters(
        r_pages=max(1, min(r.page_count, s.page_count)),
        s_pages=max(1, max(r.page_count, s.page_count)),
        r_tuples_per_page=r.tuples_per_page,
        s_tuples_per_page=s.tuples_per_page,
    )
    return JoinSpec(
        r=r,
        s=s,
        r_field="key",
        s_field="skey",
        memory_pages=memory_pages,
        params=params,
    )


DATASETS = {
    "uniform": (seeded_pairs(20, 240, 80), seeded_pairs(21, 560, 80)),
    # Heavy skew: exercises hybrid's recursive overflow handling.
    "skewed": (
        [(1, i) for i in range(150)] + seeded_pairs(22, 90, 30),
        [(1, i) for i in range(80)] + seeded_pairs(23, 200, 30),
    ),
}


class TestJoinEquivalence:
    @pytest.mark.parametrize("dataset", sorted(DATASETS))
    @pytest.mark.parametrize("memory_pages", [4, 16, 400])
    @pytest.mark.parametrize("name", sorted(ALL_JOINS))
    def test_batch_matches_tuple(self, name, memory_pages, dataset):
        r_pairs, s_pairs = DATASETS[dataset]

        def run(kwargs):
            algo = ALL_JOINS[name](**kwargs)
            r = kv_relation("r", r_pairs)
            s = kv_relation("s", s_pairs, columns=("skey", "spay"))
            result = algo.join(join_spec(r, s, memory_pages))
            return sorted(result.relation), result.counters.as_dict()

        try:
            runs = run_modes(run)
        except ValueError:
            pytest.skip("algorithm assumptions do not hold at this grant")
        assert_equivalent(runs, ordered=False)


class TestObservedBranches:
    """Production branches picked by what the code observes, not by a knob."""

    def test_multipass_simple_hash(self):
        r_pairs, s_pairs = DATASETS["uniform"]

        def run(kwargs):
            algo = ALL_JOINS["simple-hash"](**kwargs)
            r = kv_relation("r", r_pairs)
            s = kv_relation("s", s_pairs, columns=("skey", "spay"))
            result = algo.join(join_spec(r, s, memory_pages=8))
            return list(result.relation), result.counters.as_dict()

        runs = run_modes(run)
        # Passed-over tuples were written out and reread: several passes.
        assert runs[0][1]["sequential_ios"] > 0
        assert_equivalent(runs)

    @pytest.mark.parametrize("phase", ["1a", "1b"])
    def test_hybrid_mid_phase_demotion(self, phase):
        """A grant revoked mid-phase demotes R0 at the same page boundary,
        with the same resident table, in both arms."""
        r_pairs, s_pairs = DATASETS["uniform"]

        def run(kwargs):
            r = kv_relation("r", r_pairs)
            s = kv_relation("s", s_pairs, columns=("skey", "spay"))
            revoke_at = r.page_count // 2
            if phase == "1b":
                revoke_at = r.page_count + s.page_count // 2
            grant = MemoryGrant(16)
            token = CancellationToken(qid=1)
            token.on_check = (
                lambda tok: grant.revoke(2) if tok.checks == revoke_at else None
            )
            demotions = []

            class Recording(HybridHashJoin):
                def _demote_resident(self, resident, *args, **kw):
                    demotions.append((token.checks, len(resident)))
                    return super()._demote_resident(resident, *args, **kw)

            algo = Recording(**kwargs).set_guard(
                QueryGuard(token=token, grant=grant)
            )
            result = algo.join(join_spec(r, s, memory_pages=16))
            assert demotions == [(revoke_at, demotions[0][1])]
            assert demotions[0][1] > 0, "nothing was resident to demote"
            assert not algo.disk._files, "leaked scratch files"
            return list(result.relation), (
                result.counters.as_dict(), demotions
            )

        assert_equivalent(run_modes(run))

"""Focused tests for sort-merge's run formation (Knuth's claim).

Section 3.4 leans on a specific constant: replacement selection produces
runs "on the average twice as long as the number of tuples that can fit
into a priority queue in memory", i.e. ~2*|M|/F pages.  These tests verify
the executable implementation actually exhibits that behaviour, plus the
boundary cases the cost formula glosses over.
"""

import random

import pytest

from repro.cost.parameters import CostParameters
from repro.join import JoinSpec, SortMergeJoin
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, make_schema

from tests.conftest import build_relation


def spec_for(r, s, memory):
    params = CostParameters(
        r_pages=min(r.page_count, s.page_count),
        s_pages=max(r.page_count, s.page_count),
        r_tuples_per_page=8,
        s_tuples_per_page=8,
    )
    return JoinSpec(
        r=r, s=s, r_field="key", s_field="skey",
        memory_pages=memory, params=params,
    )


def form_runs(relation, memory, field="key"):
    """Run the private run-formation phase and return run page counts."""
    algo = SortMergeJoin()
    other_schema = make_schema(("skey", DataType.INTEGER), ("x", DataType.INTEGER))
    other = build_relation("s", range(memory * 64), schema=other_schema)
    spec = spec_for(relation, other, memory)
    # The spec may have swapped sides; find our relation back.
    target = spec.r if spec.r.name == relation.name else spec.s
    field = "key" if target.schema.has_field("key") else "skey"
    names = algo._form_runs(spec, target, field, "probe")
    sizes = [algo.disk.page_count(n) for n in names]
    for n in names:
        algo.disk.delete(n)
    return sizes


class TestRunFormation:
    def test_random_input_runs_average_2m(self):
        rng = random.Random(8)
        rel = build_relation("r", [rng.randrange(10**9) for _ in range(4000)])
        memory = 10  # {M} = 10 pages / F * 8 t/p = 66 tuples
        sizes = form_runs(rel, memory)
        mean_pages = sum(sizes) / len(sizes)
        expected = 2 * memory / 1.2  # 2*|M|/F pages
        assert mean_pages == pytest.approx(expected, rel=0.35)

    def test_sorted_input_yields_single_run(self):
        """Replacement selection's best case: already-sorted input becomes
        one run regardless of memory."""
        rel = build_relation("r", range(2000))
        sizes = form_runs(rel, 8)
        assert len(sizes) == 1

    def test_reverse_sorted_input_yields_m_sized_runs(self):
        """Worst case: descending input defeats replacement selection and
        runs collapse to the queue size |M|/F."""
        rel = build_relation("r", range(2000, 0, -1))
        memory = 8
        sizes = form_runs(rel, memory)
        mean_pages = sum(sizes) / len(sizes)
        assert mean_pages == pytest.approx(memory / 1.2, rel=0.3)

    def test_runs_are_sorted_and_complete(self):
        rng = random.Random(9)
        keys = [rng.randrange(500) for _ in range(1000)]
        rel = build_relation("r", keys)
        algo = SortMergeJoin()
        other_schema = make_schema(("skey", DataType.INTEGER), ("x", DataType.INTEGER))
        other = build_relation("s", range(2000), schema=other_schema)
        spec = spec_for(rel, other, 8)
        target = spec.r if spec.r.name == "r" else spec.s
        names = algo._form_runs(spec, target, "key", "t")
        recovered = []
        for name in names:
            run = [k for k, _row in algo.disk.read_file(name)]
            assert run == sorted(run), "run %s not sorted" % name
            recovered.extend(run)
        assert sorted(recovered) == sorted(keys)


class TestMergeBoundaries:
    def test_too_many_runs_rejected(self):
        rng = random.Random(10)
        r = build_relation("r", [rng.randrange(10**9) for _ in range(3000)])
        s_schema = make_schema(("skey", DataType.INTEGER), ("x", DataType.INTEGER))
        s = build_relation("s", [rng.randrange(10**9) for _ in range(3000)],
                           schema=s_schema)
        with pytest.raises(ValueError):
            SortMergeJoin().join(spec_for(r, s, 4))

    def test_in_memory_short_circuit_no_io(self):
        rng = random.Random(11)
        r = build_relation("r", [rng.randrange(50) for _ in range(200)])
        s_schema = make_schema(("skey", DataType.INTEGER), ("x", DataType.INTEGER))
        s = build_relation("s", [rng.randrange(50) for _ in range(200)],
                           schema=s_schema)
        algo = SortMergeJoin()
        result = algo.join(spec_for(r, s, 500))
        assert result.counters.sequential_ios == 0
        assert result.counters.random_ios == 0
        assert result.cardinality > 0

"""Tests for the executable Section 2 simulator (measured Table 1)."""

import random

import pytest

from repro.access.simulator import (
    AccessSimulator,
    build_indexes,
    measured_breakeven,
    structure_pages,
)
from repro.cost.access_model import (
    AccessMethodParameters,
    random_breakeven_fraction,
)
from repro.storage.buffer import BufferPool, ReplacementPolicy

N = 1500
PARAMS = AccessMethodParameters()


@pytest.fixture(scope="module")
def indexes():
    return build_indexes(N, seed=3)


class TestStructurePages:
    def test_avl_one_page_per_node(self, indexes):
        avl, _, _ = indexes
        assert structure_pages(avl) == N

    def test_btree_far_fewer_pages(self, indexes):
        _, btree, _ = indexes
        assert structure_pages(btree) < N / 10


class TestMeasurements:
    def test_full_residence_means_no_faults(self, indexes):
        avl, btree, keys = indexes
        for index in (avl, btree):
            sim = AccessSimulator(index, PARAMS)
            m = sim.measure(keys, 1.0, lookups=400, warmup=200)
            assert m.faults_per_lookup == 0.0

    def test_avl_comparisons_near_model_c(self, indexes):
        import math

        avl, _, keys = indexes
        sim = AccessSimulator(avl, PARAMS)
        m = sim.measure(keys, 0.5, lookups=400, warmup=200)
        assert abs(m.comparisons_per_lookup - math.log2(N)) < 1.5

    def test_faults_decrease_with_memory(self, indexes):
        avl, _, keys = indexes
        sim = AccessSimulator(avl, PARAMS)
        sweep = sim.sweep(keys, [0.25, 0.5, 0.9], lookups=400)
        faults = [m.faults_per_lookup for m in sweep]
        assert faults == sorted(faults, reverse=True)

    def test_measured_fault_rate_below_uniform_model(self, indexes):
        """Root bias: measured faults per lookup stay below C*(1-H)."""
        avl, _, keys = indexes
        sim = AccessSimulator(avl, PARAMS)
        for fraction in (0.25, 0.5, 0.75):
            m = sim.measure(keys, fraction, lookups=400, warmup=400)
            model = m.comparisons_per_lookup * (1 - fraction)
            assert m.faults_per_lookup <= model + 0.3

    def test_avl_comparison_discount_applied(self, indexes):
        avl, _, keys = indexes
        cheap = AccessSimulator(
            avl, AccessMethodParameters(y=0.5)
        ).measure(keys, 1.0, lookups=200, warmup=100)
        full = AccessSimulator(
            avl, AccessMethodParameters(y=1.0)
        ).measure(keys, 1.0, lookups=200, warmup=100)
        assert cheap.cost_per_lookup == pytest.approx(
            0.5 * full.cost_per_lookup, rel=0.05
        )

    def test_empty_keys_rejected(self, indexes):
        avl, _, _ = indexes
        with pytest.raises(ValueError):
            AccessSimulator(avl, PARAMS).measure([], 0.5)

    def test_policy_parameter_respected(self, indexes):
        avl, _, keys = indexes
        lru = AccessSimulator(avl, PARAMS, policy=ReplacementPolicy.LRU)
        m = lru.measure(keys, 0.5, lookups=300, warmup=300)
        assert m.faults_per_lookup >= 0


class TestMeasuredBreakeven:
    def test_breakeven_exists_and_is_high(self):
        h = measured_breakeven(n_keys=1200, lookups=400, resolution=10)
        assert h is not None
        # Measured threshold stays in the paper's ballpark...
        assert 0.6 <= h <= 1.0

    def test_measured_at_most_model(self):
        """Root bias helps the AVL tree, so the measured threshold cannot
        exceed the closed form by more than grid resolution."""
        model = random_breakeven_fraction(PARAMS)
        measured = measured_breakeven(n_keys=1200, lookups=400, resolution=10)
        assert measured is not None
        assert measured <= model + 0.1

    def test_measured_breakeven_stays_in_the_headline_band(self):
        """E12: replaying real lookups, the breakeven sits a little below
        the closed form (root-biased traffic favours the AVL tree) and
        stays in the paper's 80-90%+ band."""
        model = random_breakeven_fraction(PARAMS)
        measured = measured_breakeven(n_keys=1200, lookups=400, resolution=20)
        assert measured is not None
        assert 0.75 <= measured <= model + 0.05


def path_fault_rate(index, keys, fraction, policy=ReplacementPolicy.RANDOM):
    """Fault rate per page touch when random lookups' real search paths
    go through ``fraction`` of the structure's pages in a buffer pool."""
    pool = BufferPool(
        max(1, int(fraction * structure_pages(index))), policy=policy, seed=11
    )
    rng = random.Random(7)
    for phase, count in (("warm", 500), ("measure", 1000)):
        if phase == "measure":
            pool.reset_stats()
        for _ in range(count):
            for page in index.path_pages(keys[rng.randrange(len(keys))]):
                pool.access(page)
    return pool.fault_rate


class TestFaultModelOnRealPaths:
    """E9: Section 2's ``1 - |M|/S`` fault model is an upper bound for
    real tree traffic, whose root-biased paths keep the upper levels
    resident even under random replacement."""

    @pytest.fixture(scope="class")
    def trees(self):
        return build_indexes(4000, seed=3, btree_order=32)

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75, 0.9])
    def test_the_model_bounds_both_trees(self, trees, fraction):
        avl, btree, keys = trees
        for index in (avl, btree):
            measured = path_fault_rate(index, keys, fraction)
            assert measured <= (1 - fraction) + 0.05, (index, measured)
        assert path_fault_rate(avl, keys, fraction) > 0

    def test_lru_exploits_root_bias_at_least_as_well_as_random(self, trees):
        _, btree, keys = trees
        lru = path_fault_rate(btree, keys, 0.5, ReplacementPolicy.LRU)
        assert lru <= path_fault_rate(btree, keys, 0.5) + 0.02

    def test_avl_lookup_touches_several_times_the_pages(self, trees):
        """The Section 2 crux: ~log2(n) pages per AVL lookup against the
        B+-tree's height + 1."""
        avl, btree, keys = trees
        rng = random.Random(5)
        probes = [keys[rng.randrange(len(keys))] for _ in range(500)]
        avl_pages = sum(len(avl.path_pages(k)) for k in probes) / len(probes)
        bt_pages = sum(len(btree.path_pages(k)) for k in probes) / len(probes)
        assert avl_pages > 10
        assert bt_pages <= 4
        assert avl_pages / bt_pages > 3

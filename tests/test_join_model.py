"""Tests for the Section 3 closed-form join costs (Figure 1 shape)."""

import math

import pytest

from repro.cost.join_model import (
    JoinCostModel,
    JoinWorkload,
    figure1_series,
    grace_hash_cost,
    hash_pipeline_forecast,
    hybrid_hash_cost,
    hybrid_partition_plan,
    simple_hash_cost,
    simple_hash_passes,
    sort_merge_cost,
)
from repro.cost.parameters import TABLE2_DEFAULTS, table3_grid, table3_sample

MODEL = JoinCostModel(TABLE2_DEFAULTS)


def workload(ratio: float) -> JoinWorkload:
    return JoinWorkload(
        params=TABLE2_DEFAULTS,
        memory_pages=TABLE2_DEFAULTS.memory_for_ratio(ratio),
    )


class TestTwoPassGuard:
    def test_below_sqrt_sf_rejected(self):
        tiny = JoinWorkload(params=TABLE2_DEFAULTS, memory_pages=50)
        with pytest.raises(ValueError):
            sort_merge_cost(tiny)
        with pytest.raises(ValueError):
            grace_hash_cost(tiny)
        with pytest.raises(ValueError):
            hybrid_hash_cost(tiny)

    def test_simple_hash_has_no_floor(self):
        tiny = JoinWorkload(params=TABLE2_DEFAULTS, memory_pages=50)
        assert simple_hash_cost(tiny) > 0


class TestSimpleHash:
    def test_one_pass_when_r_fits(self):
        assert simple_hash_passes(workload(1.0)) == 1

    def test_pass_count(self):
        assert simple_hash_passes(workload(0.25)) == 4
        assert simple_hash_passes(workload(0.5)) == 2

    def test_one_pass_cost_is_pure_cpu(self):
        p = TABLE2_DEFAULTS
        expected = p.r_tuples * (p.hash + p.move) + p.s_tuples * (
            p.hash + p.comp * p.fudge
        )
        assert simple_hash_cost(workload(1.0)) == pytest.approx(expected)

    def test_cost_blows_up_as_memory_shrinks(self):
        costs = [simple_hash_cost(workload(r)) for r in (0.011, 0.05, 0.2, 1.0)]
        assert costs == sorted(costs, reverse=True)
        # The low-memory end is catastrophically worse (quadratic rescans).
        assert costs[0] > 20 * costs[-1]


class TestGrace:
    def test_flat_in_memory(self):
        """GRACE never exploits memory beyond the two-pass floor."""
        a = grace_hash_cost(workload(0.02))
        b = grace_hash_cost(workload(1.0))
        assert a == pytest.approx(b)

    def test_grace_value_matches_hand_calculation(self):
        p = TABLE2_DEFAULTS
        expected = (
            (p.r_tuples + p.s_tuples) * p.hash * 2
            + (p.r_tuples + p.s_tuples) * p.move
            + p.r_tuples * p.move
            + p.s_tuples * p.fudge * p.comp
            + (p.r_pages + p.s_pages) * (p.io_rand + p.io_seq)
        )
        assert grace_hash_cost(workload(0.5)) == pytest.approx(expected)


class TestHybrid:
    def test_partition_plan_when_r_fits(self):
        b, q = hybrid_partition_plan(workload(1.0))
        assert (b, q) == (0, 1.0)

    def test_partition_plan_small_memory(self):
        w = workload(0.1)
        b, q = hybrid_partition_plan(w)
        assert b >= 1
        assert 0.0 < q < 0.2
        # Every spilled bucket must fit in memory when rebuilt.
        p = TABLE2_DEFAULTS
        spilled_pages = p.r_pages * p.fudge * (1 - q)
        assert spilled_pages / b <= w.memory_pages + 1e-9

    def test_equals_simple_hash_when_r_fits(self):
        assert hybrid_hash_cost(workload(1.0)) == pytest.approx(
            simple_hash_cost(workload(1.0))
        )

    def test_approaches_grace_at_the_floor(self):
        floor = TABLE2_DEFAULTS.minimum_memory_pages
        w = JoinWorkload(params=TABLE2_DEFAULTS, memory_pages=floor)
        assert hybrid_hash_cost(w) == pytest.approx(
            grace_hash_cost(w), rel=0.02
        )

    def test_monotone_improvement_with_memory(self):
        costs = [hybrid_hash_cost(workload(r)) for r in (0.02, 0.1, 0.3, 0.7, 1.0)]
        assert costs == sorted(costs, reverse=True)

    def test_discontinuity_at_half(self):
        """The paper: one output buffer above ratio 0.5 turns the spill
        writes sequential, producing an abrupt drop."""
        below = hybrid_hash_cost(workload(0.495))
        above = hybrid_hash_cost(workload(0.505))
        assert below > above
        # The jump is macroscopic, not numerical noise.
        assert below - above > 50.0

    def test_dominates_grace_everywhere(self):
        for ratio in (0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
            assert hybrid_hash_cost(workload(ratio)) <= grace_hash_cost(
                workload(ratio)
            ) * 1.001


class TestHashPipelineForecast:
    def test_equals_closed_form_without_skew(self):
        """Table 2 shape: with no hot slice the named terms add up to
        ``hybrid_hash_cost`` on both sides of the 0.5 discontinuity."""
        for ratio in (0.02, 0.1, 0.495, 0.505, 0.9):
            forecast = hash_pipeline_forecast(workload(ratio))
            assert forecast["recursion"] == 0.0
            assert forecast["total"] == pytest.approx(
                hybrid_hash_cost(workload(ratio)), abs=1e-9
            )

    def test_skew_term_is_the_stated_closed_form_and_monotone(self):
        w = workload(0.1)
        p = TABLE2_DEFAULTS
        _, q = hybrid_partition_plan(w)
        totals = []
        for hot in (0.0, 0.1, 0.3, 0.5, 1.0):
            forecast = hash_pipeline_forecast(w, hot)
            assert forecast["recursion"] == pytest.approx(
                hot * (1.0 - q) * (
                    (p.r_tuples + p.s_tuples) * (p.hash + p.move)
                    + (p.r_pages + p.s_pages) * 2.0 * p.io_seq
                )
            )
            assert forecast["total"] == pytest.approx(
                sum(v for k, v in forecast.items() if k != "total")
            )
            totals.append(forecast["total"])
        assert totals == sorted(totals) and totals[0] < totals[-1]

    def test_rejects_fraction_outside_unit_interval(self):
        with pytest.raises(ValueError):
            hash_pipeline_forecast(workload(0.1), hot_fraction=1.5)


class TestSortMerge:
    def test_worst_of_two_pass_methods_in_core_range(self):
        for ratio in (0.05, 0.1, 0.3, 0.6, 1.0):
            w = workload(ratio)
            assert sort_merge_cost(w) > hybrid_hash_cost(w)
            assert sort_merge_cost(w) > grace_hash_cost(w)

    def test_improves_to_cpu_only_beyond_the_chart(self):
        """"Sort-merge will improve to approximately 900 seconds" above a
        memory ratio of 1.0 (both relations resident)."""
        in_core = JoinWorkload(
            params=TABLE2_DEFAULTS,
            memory_pages=int(
                (TABLE2_DEFAULTS.r_pages + TABLE2_DEFAULTS.s_pages)
                * TABLE2_DEFAULTS.fudge
            ),
        )
        cost = sort_merge_cost(in_core)
        assert 800 < cost < 1100  # the paper says ~900 seconds
        assert cost < sort_merge_cost(workload(1.0))


class TestFigure1Series:
    def test_default_sweep_covers_floor_to_one(self):
        rows = figure1_series(TABLE2_DEFAULTS)
        assert rows[0]["ratio"] < 0.02
        assert rows[-1]["ratio"] == pytest.approx(1.0)
        assert all(
            set(r) >= {"sort-merge", "simple-hash", "grace-hash", "hybrid-hash"}
            for r in rows
        )

    def test_hybrid_wins_at_high_memory(self):
        rows = figure1_series(TABLE2_DEFAULTS)
        last = rows[-1]
        assert last["hybrid-hash"] <= min(
            last["sort-merge"], last["grace-hash"], last["simple-hash"] + 1e-9
        )

    def test_best_algorithm_is_always_a_hash(self):
        """Section 4's premise: with |M| >= sqrt(|S|F), a hash algorithm is
        fastest everywhere on the sweep."""
        for row in figure1_series(TABLE2_DEFAULTS):
            best = min(
                ("sort-merge", "simple-hash", "grace-hash", "hybrid-hash"),
                key=row.__getitem__,
            )
            assert best != "sort-merge"

    def test_explicit_ratios_respected(self):
        rows = figure1_series(TABLE2_DEFAULTS, ratios=[0.2, 0.4])
        assert [r["ratio"] for r in rows] == [0.2, 0.4]


class TestModelHelper:
    def test_costs_keys(self):
        costs = MODEL.costs(6000)
        assert set(costs) == {
            "sort-merge",
            "simple-hash",
            "grace-hash",
            "hybrid-hash",
        }

    def test_best_at_full_memory_is_hash(self):
        assert MODEL.best(12_000) in ("hybrid-hash", "simple-hash")

    def test_validate_memory(self):
        with pytest.raises(ValueError):
            MODEL.validate_memory(10)


FIGURE1_RATIOS = [0.011, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.495, 0.505, 0.6, 0.8, 1.0]


class TestFigure1Geometry:
    """E3: the chart's shape at the exact Table 2 settings, beyond what
    the per-algorithm classes above pin."""

    @pytest.fixture(scope="class")
    def by_ratio(self):
        rows = figure1_series(TABLE2_DEFAULTS, FIGURE1_RATIOS)
        return {round(r["ratio"], 3): r for r in rows}

    def test_grace_is_flat_and_sort_merge_never_competes(self, by_ratio):
        grace = [r["grace-hash"] for r in by_ratio.values()]
        assert max(grace) - min(grace) < 1.0
        for r in by_ratio.values():
            assert r["sort-merge"] > r["grace-hash"]
            assert r["sort-merge"] > r["hybrid-hash"]

    def test_simple_hash_is_catastrophic_left_and_crosses_sort_merge(self, by_ratio):
        assert by_ratio[0.011]["simple-hash"] > 10 * by_ratio[0.011]["grace-hash"]
        assert by_ratio[0.02]["simple-hash"] > by_ratio[0.02]["sort-merge"]
        assert by_ratio[0.4]["simple-hash"] < by_ratio[0.4]["sort-merge"]

    def test_the_x_axis_is_memory_over_r_times_f(self):
        for ratio in (0.1, 0.5, 1.0):
            w = workload(ratio)
            assert w.memory_ratio == pytest.approx(ratio, rel=1e-3)

    def test_absolute_anchors_of_the_papers_chart(self, by_ratio):
        """GRACE at roughly 700-1000 s, hybrid with R's table resident at
        tens of seconds."""
        assert 500 < by_ratio[0.1]["grace-hash"] < 1100
        assert by_ratio[1.0]["hybrid-hash"] < 50


def figure1_shape(params):
    """The Figure 1 invariants at one parameter setting, or None when R's
    table is below the two-pass floor."""
    floor = params.minimum_memory_pages
    full = math.ceil(params.r_pages * params.fudge)
    if full <= floor:
        return None
    low, middle, high = (
        JoinCostModel(params).costs(memory)
        for memory in (floor, max(floor, full // 3), full)
    )
    points = (low, middle, high)
    return {
        "hybrid<=grace": all(
            c["hybrid-hash"] <= c["grace-hash"] * 1.001 for c in points
        ),
        "hash beats sort": all(
            min(c["hybrid-hash"], c["simple-hash"], c["grace-hash"]) < c["sort-merge"]
            for c in points
        ),
        "simple worst at floor": low["simple-hash"] >= low["hybrid-hash"],
        "hybrid monotone": low["hybrid-hash"] >= middle["hybrid-hash"]
        >= high["hybrid-hash"] * 0.999,
        "simple==hybrid at full": abs(high["simple-hash"] - high["hybrid-hash"])
        <= 1e-6 * max(1.0, high["hybrid-hash"]),
    }


class TestTable3Robustness:
    """E4: "for each of these values we observed the same qualitative
    shape and relative positioning of the different algorithms"."""

    def test_random_draws_from_the_table3_box(self):
        shapes = [figure1_shape(p) for p in table3_sample(60, seed=1984)]
        evaluated = [s for s in shapes if s is not None]
        assert len(evaluated) >= 48
        for name in evaluated[0]:
            holds = sum(s[name] for s in evaluated)
            assert holds >= 0.95 * len(evaluated), (name, holds)

    def test_corner_lattice_keeps_hybrid_below_grace(self):
        corners = [p for i, p in enumerate(table3_grid(2)) if i % 4 == 0]
        shapes = [s for s in map(figure1_shape, corners) if s is not None]
        assert len(shapes) > 30
        assert all(s["hybrid<=grace"] for s in shapes)


#: TID (4 B) + key (8 B) against a 100-byte tuple: moves ~8x cheaper.
TID_PAIRS = TABLE2_DEFAULTS.with_updates(move=2.5e-6, swap=7.5e-6)


def costs_at(params, ratio):
    memory = max(params.minimum_memory_pages, params.memory_for_ratio(ratio))
    return JoinCostModel(params).costs(memory)


class TestTidKeyPairs:
    """E14: Section 3.2's "we can avoid making a choice" between whole
    tuples and TID-key pairs."""

    @pytest.mark.parametrize("ratio", [0.05, 0.1, 0.3, 0.6, 1.0])
    def test_conclusions_survive_cheaper_moves(self, ratio):
        whole, tids = costs_at(TABLE2_DEFAULTS, ratio), costs_at(TID_PAIRS, ratio)
        for costs in (whole, tids):
            winner = min(costs, key=costs.get)
            assert winner != "sort-merge"
            assert costs["hybrid-hash"] <= costs[winner] * 1.02
        assert tids["hybrid-hash"] <= tids["grace-hash"] * 1.001
        assert tids["sort-merge"] < whole["sort-merge"]
        assert tids["sort-merge"] > tids["hybrid-hash"]

    def test_fetching_the_tuples_back_erases_the_saving(self):
        """Two random fetches per result pair over 100,000 results."""
        whole = costs_at(TABLE2_DEFAULTS, 0.5)["hybrid-hash"]
        tids = costs_at(TID_PAIRS, 0.5)["hybrid-hash"]
        assert tids < whole
        assert tids + 100_000 * 2 * TABLE2_DEFAULTS.io_rand > whole

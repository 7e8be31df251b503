"""Tests for the Section 2 access-method cost model (Table 1)."""

import math

import pytest

from repro.cost.access_model import (
    AccessMethodParameters,
    avl_comparisons,
    avl_random_cost,
    avl_sequential_cost,
    avl_storage_pages,
    btree_comparisons,
    btree_fanout,
    btree_height,
    btree_leaf_pages,
    btree_random_cost,
    btree_sequential_cost,
    btree_storage_pages,
    random_breakeven_fraction,
    sequential_breakeven_fraction,
    table1,
)

P = AccessMethodParameters()


class TestStructuralFormulas:
    def test_avl_comparisons_is_knuth(self):
        assert avl_comparisons(P) == pytest.approx(math.log2(P.n_tuples) + 0.25)

    def test_avl_storage(self):
        expected = math.ceil(P.n_tuples * (P.tuple_bytes + 8) / P.page_bytes)
        assert avl_storage_pages(P) == expected

    def test_btree_fanout_uses_yao_occupancy(self):
        assert btree_fanout(P) == int(0.69 * 4096 / 12)

    def test_btree_leaves(self):
        expected = math.ceil(P.n_tuples * P.tuple_bytes / (0.69 * P.page_bytes))
        assert btree_leaf_pages(P) == expected

    def test_btree_height_reasonable(self):
        # A million 100-byte tuples: a 2-level index above the leaves.
        assert btree_height(P) == 2

    def test_btree_is_larger_than_avl_structure(self):
        # 69% occupancy makes the B+-tree bigger on disk; the paper notes
        # S ~ 0.69 * S' when L >> 8.
        ratio = avl_storage_pages(P) / btree_storage_pages(P)
        assert 0.6 < ratio < 0.85

    def test_tiny_relation_height_zero(self):
        tiny = AccessMethodParameters(n_tuples=10)
        assert btree_height(tiny) == 0


class TestRandomAccessCosts:
    def test_avl_cost_at_zero_memory(self):
        c = avl_comparisons(P)
        assert avl_random_cost(P, 0) == pytest.approx(P.z * c + P.y * c)

    def test_avl_cost_fully_resident_has_no_faults(self):
        c = avl_comparisons(P)
        s = avl_storage_pages(P)
        assert avl_random_cost(P, s) == pytest.approx(P.y * c)
        # More memory than the structure cannot go negative.
        assert avl_random_cost(P, 10 * s) == pytest.approx(P.y * c)

    def test_btree_cost_at_zero_memory(self):
        levels = btree_height(P) + 1
        assert btree_random_cost(P, 0) == pytest.approx(
            P.z * levels + btree_comparisons(P)
        )

    def test_btree_beats_avl_with_no_memory(self):
        assert btree_random_cost(P, 0) < avl_random_cost(P, 0)

    def test_avl_beats_btree_fully_resident(self):
        s = avl_storage_pages(P)
        assert avl_random_cost(P, s) < btree_random_cost(P, s)

    def test_costs_decrease_with_memory(self):
        s = avl_storage_pages(P)
        costs = [avl_random_cost(P, m) for m in (0, s // 4, s // 2, s)]
        assert costs == sorted(costs, reverse=True)


class TestBreakeven:
    def test_breakeven_is_in_the_80_90_percent_band(self):
        """The paper's headline: B+-trees preferred unless 80-90%+ of the
        structure is memory resident."""
        h = random_breakeven_fraction(P)
        assert h is not None
        assert 0.8 < h < 1.0

    def test_breakeven_is_exact_crossover(self):
        h = random_breakeven_fraction(P)
        s = avl_storage_pages(P)
        m = h * s
        assert avl_random_cost(P, m) == pytest.approx(
            btree_random_cost(P, m), rel=1e-9
        )
        # Just below, the B+-tree wins; just above, the AVL tree wins.
        assert btree_random_cost(P, 0.99 * m) < avl_random_cost(P, 0.99 * m)
        eps_up = min(1.0, h * 1.01) * s
        assert avl_random_cost(P, eps_up) <= btree_random_cost(P, eps_up)

    def test_cheap_avl_comparisons_lower_the_threshold(self):
        cheap = AccessMethodParameters(y=0.5)
        expensive = AccessMethodParameters(y=1.0)
        assert random_breakeven_fraction(cheap) < random_breakeven_fraction(
            expensive
        )

    def test_sequential_breakeven_also_high(self):
        h = sequential_breakeven_fraction(P)
        assert h is not None
        assert h > 0.8

    def test_sequential_crossover_point(self):
        h = sequential_breakeven_fraction(P)
        s = avl_storage_pages(P)
        m = h * s
        n = 1000
        assert avl_sequential_cost(P, m, n) == pytest.approx(
            btree_sequential_cost(P, m, n), rel=1e-6
        )

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_btree_sequential_cheaper_at_partial_residence(self, fraction):
        """E15's model half: the closed forms rank the structures for a
        1000-record scan as the measured fault rates do."""
        m = fraction * avl_storage_pages(P)
        assert btree_sequential_cost(P, m, 1000) < avl_sequential_cost(P, m, 1000)

    def test_btree_dominates_sequential_at_low_memory(self):
        # Sequential scans hit the AVL tree hardest: a fault per record
        # vs a fault per leaf page.
        assert btree_sequential_cost(P, 0, 1000) < avl_sequential_cost(
            P, 0, 1000
        )


class TestTable1:
    def test_grid_shape(self):
        rows = table1(z_values=(10, 20, 30), y_values=(0.5, 0.75, 1.0))
        assert len(rows) == 9
        assert {r["Z"] for r in rows} == {10, 20, 30}

    def test_thresholds_increase_with_z(self):
        """Costlier IO (larger Z) punishes the AVL tree's extra faults, so
        the required residence fraction grows with Z."""
        rows = table1(z_values=(10, 20, 30), y_values=(0.75,))
        hs = [r["random_H"] for r in rows]
        assert hs == sorted(hs)

    def test_thresholds_increase_with_y(self):
        rows = table1(z_values=(20,), y_values=(0.5, 0.75, 1.0))
        hs = [r["random_H"] for r in rows]
        assert hs == sorted(hs)

    def test_all_cells_in_valid_range(self):
        for row in table1():
            for key in ("random_H", "sequential_H"):
                value = row[key]
                assert 0.0 <= value <= 1.0 or math.isnan(value)

    def test_every_cell_is_in_the_papers_band(self):
        """E1/E2: "more than 80%-90% of the database" in every (Z, Y)
        cell; sequential access punishes the AVL tree at least as hard as
        random access; across Z the threshold is nearly flat (the
        Z-dependent term can tilt it either way)."""
        z_values, y_values = (10.0, 20.0, 30.0), (0.5, 0.75, 0.9, 1.0)
        rows = table1(z_values, y_values)
        for r in rows:
            assert 0.80 <= r["random_H"] <= 1.0, r
            assert 0.80 <= r["sequential_H"] <= 1.0, r
            assert r["sequential_H"] >= r["random_H"] - 0.02, r
        for z in z_values:
            column = [r["random_H"] for r in rows if r["Z"] == z]
            assert column == sorted(column)
        for y in y_values:
            row = [r["random_H"] for r in rows if r["Y"] == y]
            assert max(row) - min(row) < 0.05


class TestValidation:
    def test_bad_y_rejected(self):
        with pytest.raises(ValueError):
            AccessMethodParameters(y=1.5)
        with pytest.raises(ValueError):
            AccessMethodParameters(y=0.0)

    def test_bad_z_rejected(self):
        with pytest.raises(ValueError):
            AccessMethodParameters(z=0)

    def test_tuple_narrower_than_key_rejected(self):
        with pytest.raises(ValueError):
            AccessMethodParameters(key_bytes=50, tuple_bytes=40)

    def test_tuple_must_fit_on_page(self):
        with pytest.raises(ValueError):
            AccessMethodParameters(tuple_bytes=5000, page_bytes=4096)

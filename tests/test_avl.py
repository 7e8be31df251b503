"""Tests for the AVL tree, including hypothesis invariant checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.avl import AVLTree
from repro.cost.counters import OperationCounters
from repro.errors import QueryCancelled
from repro.governor import CancellationToken
from tests.test_btree import check_probe_on_every_interval, loaded


@pytest.fixture
def tree():
    return AVLTree()


class TestBasics:
    def test_empty(self, tree):
        assert len(tree) == 0
        assert tree.search(1) == []
        assert tree.height == 0
        assert tree.minimum() is None and tree.maximum() is None

    def test_insert_and_search(self, tree):
        tree.insert(5, "a")
        tree.insert(3, "b")
        tree.insert(8, "c")
        assert tree.search(3) == ["b"]
        assert tree.search(9) == []
        assert len(tree) == 3
        assert tree.distinct_keys == 3

    def test_duplicate_keys_accumulate(self, tree):
        tree.insert(1, "x")
        tree.insert(1, "y")
        assert tree.search(1) == ["x", "y"]
        assert len(tree) == 2
        assert tree.distinct_keys == 1

    def test_min_max(self, tree):
        for k in (5, 1, 9, 3):
            tree.insert(k, k)
        assert tree.minimum() == 1
        assert tree.maximum() == 9

    def test_contains(self, tree):
        tree.insert(2, "v")
        assert tree.contains(2)
        assert not tree.contains(3)


class TestBalance:
    def test_sorted_insertion_stays_logarithmic(self, tree):
        n = 1024
        for k in range(n):
            tree.insert(k, k)
        # A plain BST would have height 1024; AVL stays ~1.44*log2(n).
        assert tree.height <= 15
        tree.check_invariants()

    def test_random_insertion_invariants(self, tree):
        rng = random.Random(5)
        for _ in range(500):
            tree.insert(rng.randrange(200), 0)
        tree.check_invariants()

    def test_search_path_length_matches_knuth(self, tree):
        """The Section 2 model assumes ~log2(n)+0.25 comparisons -- path
        lengths (pages touched) should track log2(n)."""
        import math

        n = 2000
        keys = list(range(n))
        random.Random(1).shuffle(keys)
        for k in keys:
            tree.insert(k, k)
        lengths = [len(tree.path_pages(k)) for k in range(0, n, 37)]
        mean = sum(lengths) / len(lengths)
        assert abs(mean - math.log2(n)) < 2.0


class TestDelete:
    def test_delete_leaf(self, tree):
        for k in (2, 1, 3):
            tree.insert(k, k)
        assert tree.delete(3) == 1
        assert tree.search(3) == []
        tree.check_invariants()

    def test_delete_internal_with_two_children(self, tree):
        for k in (5, 2, 8, 1, 3, 7, 9):
            tree.insert(k, k)
        assert tree.delete(5) == 1
        assert tree.search(5) == []
        assert sorted(k for k, _ in tree.items()) == [1, 2, 3, 7, 8, 9]
        tree.check_invariants()

    def test_delete_single_value_of_duplicates(self, tree):
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1, "a") == 1
        assert tree.search(1) == ["b"]
        assert tree.distinct_keys == 1

    def test_delete_all_values_of_key(self, tree):
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1) == 2
        assert tree.distinct_keys == 0

    def test_delete_missing(self, tree):
        tree.insert(1, "a")
        assert tree.delete(99) == 0
        assert tree.delete(1, "zz") == 0
        assert len(tree) == 1

    def test_mass_delete_keeps_invariants(self, tree):
        keys = list(range(300))
        random.Random(2).shuffle(keys)
        for k in keys:
            tree.insert(k, k)
        random.Random(3).shuffle(keys)
        for k in keys[:150]:
            assert tree.delete(k) == 1
        tree.check_invariants()
        remaining = sorted(k for k, _ in tree.items())
        assert remaining == sorted(keys[150:])


class TestRangeScan:
    def test_full_scan_in_order(self, tree):
        keys = [9, 1, 7, 3, 5]
        for k in keys:
            tree.insert(k, k * 10)
        assert [k for k, _ in tree.range_scan()] == sorted(keys)

    def test_bounded_scan(self, tree):
        for k in range(20):
            tree.insert(k, k)
        got = [k for k, _ in tree.range_scan(5, 9)]
        assert got == [5, 6, 7, 8, 9]

    def test_scan_with_duplicates(self, tree):
        tree.insert(1, "a")
        tree.insert(1, "b")
        tree.insert(2, "c")
        assert list(tree.range_scan()) == [(1, "a"), (1, "b"), (2, "c")]

    def test_open_ended_scans(self, tree):
        for k in range(10):
            tree.insert(k, k)
        assert [k for k, _ in tree.range_scan(low=7)] == [7, 8, 9]
        assert [k for k, _ in tree.range_scan(high=2)] == [0, 1, 2]


class TestCounters:
    def test_search_charges_comparisons(self):
        counters = OperationCounters()
        tree = AVLTree(counters)
        for k in range(100):
            tree.insert(k, k)
        before = counters.comparisons
        tree.search(50)
        # ~log2(100) node visits, up to 2 comparisons each.
        assert 1 <= counters.comparisons - before <= 20


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-1000, 1000)))
def test_property_matches_sorted_reference(keys):
    """The tree agrees with a sorted-list reference under any insertions."""
    tree = AVLTree()
    for k in keys:
        tree.insert(k, k)
    tree.check_invariants()
    assert [k for k, _ in tree.items()] == sorted(keys)
    assert len(tree) == len(keys)
    assert tree.distinct_keys == len(set(keys))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 50), min_size=1),
    st.lists(st.integers(0, 50)),
)
def test_property_delete_matches_multiset(inserts, deletes):
    """Deletes agree with multiset semantics and keep the tree balanced."""
    from collections import Counter

    tree = AVLTree()
    reference = Counter()
    for k in inserts:
        tree.insert(k, k)
        reference[k] += 1
    for k in deletes:
        removed = tree.delete(k, k) if reference[k] else tree.delete(k, k)
        if reference[k]:
            assert removed == 1
            reference[k] -= 1
        else:
            assert removed == 0
    tree.check_invariants()
    expected = sorted(
        k for k, count in reference.items() for _ in range(count)
    )
    assert sorted(k for k, _ in tree.items()) == expected


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 40), max_size=120),
    st.lists(st.integers(0, 40), max_size=60),
)
def test_property_range_tids_is_the_filtered_range_scan(keys, deletes):
    """The bulk probe every ordered index inherits (tests/test_btree.py
    holds the property and the B+-tree's own implementation of it)."""
    tree = loaded(AVLTree(), keys)
    check_probe_on_every_interval(tree, keys)
    for k in deletes:
        tree.delete(k)
    tree.check_invariants()
    check_probe_on_every_interval(tree, [k for k in keys if k not in deletes])


class TestRangeTidsCancellation:
    """The inherited probe checks its token before every ``chunk``
    entries it drains, those an open end rejects included."""

    def test_one_check_per_chunk_of_entries_visited(self):
        tree = loaded(AVLTree(), range(50))
        for chunk, checks in ((8, 7), (10, 6), (64, 1)):
            token = CancellationToken(qid=1)
            assert len(tree.range_tids(token=token, chunk=chunk)) == 50
            assert token.checks == checks
        token = CancellationToken(qid=1)
        assert tree.range_tids(0, 7, True, True, token=token, chunk=8) == [
            (k, k) for k in range(1, 7)
        ]
        assert token.checks == 2  # eight entries visited, six returned

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_cancelled_after_k_checks_stops_before_the_next_chunk(self, k):
        tree = loaded(AVLTree(), range(50))
        token = CancellationToken(qid=1)
        token.on_check = lambda tok: tok.cancel() if tok.checks > k else None
        with pytest.raises(QueryCancelled):
            tree.range_tids(token=token, chunk=8)
        assert token.checks == k + 1

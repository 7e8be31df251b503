"""Tests for the B+-tree, including hypothesis invariant checks."""

import bisect
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.btree import BPlusTree, _node_search_cost
from repro.cost.counters import OperationCounters
from repro.errors import QueryCancelled
from repro.governor import CancellationToken


@pytest.fixture
def tree():
    return BPlusTree(order=8)


class TestBasics:
    def test_order_floor(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_order_from_page_geometry(self):
        # The paper's derivation: p / (K + ptr) entries per node.
        tree = BPlusTree(page_bytes=4096, key_bytes=8, pointer_bytes=4)
        assert tree.order == 4096 // 12

    def test_empty(self, tree):
        assert len(tree) == 0
        assert tree.search(1) == []
        assert tree.height == 0
        assert tree.minimum() is None and tree.maximum() is None

    def test_insert_and_search(self, tree):
        for k in (5, 1, 9):
            tree.insert(k, k * 10)
        assert tree.search(5) == [50]
        assert tree.search(2) == []

    def test_duplicates(self, tree):
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.search(1) == ["a", "b"]
        assert len(tree) == 2
        assert tree.distinct_keys == 1


class TestStructure:
    def test_splits_grow_height(self, tree):
        for k in range(200):
            tree.insert(k, k)
        assert tree.height >= 2
        tree.check_invariants()

    def test_height_is_logarithmic(self):
        tree = BPlusTree(order=64)
        for k in range(10_000):
            tree.insert(k, k)
        assert tree.height <= math.ceil(math.log(10_000) / math.log(32)) + 1
        tree.check_invariants()

    def test_path_pages_length_is_height_plus_one(self, tree):
        for k in range(500):
            tree.insert(k, k)
        assert len(tree.path_pages(250)) == tree.height + 1

    def test_random_insert_occupancy_near_yao(self):
        """Yao: B-tree nodes are ~69% full under random insertion."""
        tree = BPlusTree(order=32)
        keys = list(range(20_000))
        random.Random(8).shuffle(keys)
        for k in keys:
            tree.insert(k, k)
        assert 0.6 < tree.average_fill() < 0.8

    def test_node_counts(self, tree):
        for k in range(100):
            tree.insert(k, k)
        internal, leaves = tree.node_counts()
        assert leaves >= 100 // (tree.order + 1)
        assert internal >= 1


class TestDelete:
    def test_simple_delete(self, tree):
        for k in range(20):
            tree.insert(k, k)
        assert tree.delete(10) == 1
        assert tree.search(10) == []
        tree.check_invariants()

    def test_delete_one_duplicate(self, tree):
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1, "a") == 1
        assert tree.search(1) == ["b"]

    def test_delete_missing(self, tree):
        tree.insert(1, "a")
        assert tree.delete(2) == 0
        assert tree.delete(1, "zzz") == 0

    def test_mass_delete_rebalances(self, tree):
        keys = list(range(500))
        random.Random(3).shuffle(keys)
        for k in keys:
            tree.insert(k, k)
        random.Random(4).shuffle(keys)
        for k in keys[:400]:
            assert tree.delete(k) == 1
        tree.check_invariants()
        remaining = sorted(keys[400:])
        assert [k for k, _ in tree.range_scan()] == remaining

    def test_delete_everything_collapses_root(self, tree):
        for k in range(100):
            tree.insert(k, k)
        for k in range(100):
            tree.delete(k)
        assert len(tree) == 0
        assert tree.height == 0
        tree.check_invariants()


class TestSequenceSet:
    def test_range_scan_in_order(self, tree):
        keys = list(range(100))
        random.Random(1).shuffle(keys)
        for k in keys:
            tree.insert(k, k)
        assert [k for k, _ in tree.range_scan(10, 20)] == list(range(10, 21))

    def test_scan_crosses_leaves(self, tree):
        for k in range(1000):
            tree.insert(k, k)
        assert [k for k, _ in tree.range_scan()] == list(range(1000))

    def test_scan_pages_clusters_records(self, tree):
        """The sequential-access advantage of Section 2: many records per
        leaf page, unlike the AVL tree's page-per-record."""
        for k in range(1000):
            tree.insert(k, k)
        leaf_pages = list(tree.scan_pages())
        assert len(leaf_pages) < 1000 / 3

    def test_scan_from_absent_low_key(self, tree):
        for k in range(0, 100, 2):  # even keys only
            tree.insert(k, k)
        got = [k for k, _ in tree.range_scan(5, 11)]
        assert got == [6, 8, 10]


class TestCounters:
    def test_search_comparisons_near_log2_n(self):
        counters = OperationCounters()
        tree = BPlusTree(order=64, counters=counters)
        n = 50_000
        for k in range(n):
            tree.insert(k, k)
        counters.reset()
        probes = 50
        for k in range(0, n, n // probes):
            tree.search(k)
        per_lookup = counters.comparisons / probes
        # The Section 2 model says C' ~ log2(n) ~ 15.6.
        assert abs(per_lookup - math.log2(n)) < 6

    def test_node_search_cost_is_ceil_log2_in_integers(self):
        for n in range(1 << 16):
            assert _node_search_cost(n) == max(1, math.ceil(math.log2(n + 1))), n


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-500, 500)))
def test_property_matches_sorted_reference(keys):
    tree = BPlusTree(order=6)
    for k in keys:
        tree.insert(k, k)
    tree.check_invariants()
    assert [k for k, _ in tree.range_scan()] == sorted(keys)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 60), min_size=1),
    st.lists(st.integers(0, 60)),
)
def test_property_insert_delete_consistency(inserts, deletes):
    from collections import Counter

    tree = BPlusTree(order=4)
    reference = Counter(inserts)
    for k in inserts:
        tree.insert(k, k)
    for k in deletes:
        removed = tree.delete(k, k)
        if reference[k]:
            assert removed == 1
            reference[k] -= 1
        else:
            assert removed == 0
    tree.check_invariants()
    expected = sorted(k for k, c in reference.items() for _ in range(c))
    assert sorted(k for k, _ in tree.range_scan()) == expected


# -- the bulk probe: range_tids against range_scan ------------------------------


def check_range_tids(tree, low, high, low_open, high_open):
    """``range_tids`` is ``range_scan`` less the keys an open end leaves
    out, in value and order, and charges the index what the scan does."""
    tree.counters.reset()
    expected = [
        value
        for key, value in tree.range_scan(low, high)
        if not (low_open and key == low) and not (high_open and key == high)
    ]
    scan_charged = tree.counters.as_dict()
    tree.counters.reset()
    assert tree.range_tids(low, high, low_open, high_open) == expected, (
        low, high, low_open, high_open,
    )
    assert tree.counters.as_dict() == scan_charged


def check_probe_on_every_interval(tree, keys):
    """Every combination of absent (``None``) / present / missing / equal
    / inverted bounds, inside and outside ``[min, max]``, open and
    closed."""
    low, high = (min(keys), max(keys)) if keys else (0, 0)
    present = sorted(keys)[len(keys) // 2] if keys else 0
    points = [None, low - 1, low, present, present + 0.5, high, high + 1]
    for bounds in itertools.product(points, points, (False, True), (False, True)):
        check_range_tids(tree, *bounds)


def loaded(tree, keys):
    """``tree`` holding ``(key, ordinal)`` under each of ``keys``, so the
    duplicates of a key can be told apart and their order checked."""
    for i, k in enumerate(keys):
        tree.insert(k, (k, i))
    return tree


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 40), max_size=120),
    st.lists(st.integers(0, 40), max_size=60),
)
def test_property_range_tids_is_the_filtered_range_scan(keys, deletes):
    tree = loaded(BPlusTree(order=4), keys)
    check_probe_on_every_interval(tree, keys)
    for k in deletes:  # whole keys: leaves borrow from and merge with siblings
        tree.delete(k)
    tree.check_invariants()
    check_probe_on_every_interval(tree, [k for k in keys if k not in deletes])


class TestRangeTidsCancellation:
    @pytest.fixture
    def tree(self):
        return loaded(BPlusTree(order=4), range(64))

    def test_one_check_per_leaf_read(self, tree):
        _, leaves = tree.node_counts()
        token = CancellationToken(qid=1)
        assert len(tree.range_tids(token=token)) == 64
        assert token.checks == leaves
        # A range inside one leaf reads one leaf.
        token = CancellationToken(qid=1)
        key = tree.minimum()
        assert tree.range_tids(key, key, token=token) == [(key, key)]
        assert token.checks == 1

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_cancelled_after_k_checks_stops_before_leaf_k_plus_one(self, tree, k):
        token = CancellationToken(qid=1)
        token.on_check = lambda tok: tok.cancel() if tok.checks > k else None
        with pytest.raises(QueryCancelled):
            tree.range_tids(token=token)
        assert token.checks == k + 1  # raised at the check before that leaf


# -- the batched insert loop against the per-key recursive insert ------------


def reference_insert(tree, key, value):
    """The recursive per-key insert :meth:`BPlusTree.insert_batch` replaced,
    kept as its specification: same node ids, same splits, and
    ``max(1, ceil(log2(len + 1)))`` comparisons per node searched."""
    split = _reference_descend(tree, tree._root, key, value)
    if split is not None:
        sep, right = split
        new_root = tree._new_internal()
        new_root.keys = [sep]
        new_root.children = [tree._root, right]
        tree._root = new_root
        tree._height += 1
    tree._size += 1


def _reference_descend(tree, node, key, value):
    tree.counters.compare(max(1, math.ceil(math.log2(len(node.keys) + 1))))
    if not hasattr(node, "children"):  # a leaf
        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            node.values[i].append(value)
            return None
        node.keys.insert(i, key)
        node.values.insert(i, [value])
        tree._distinct += 1
        return tree._split_leaf(node) if len(node.keys) > tree.order else None
    child_idx = bisect.bisect_right(node.keys, key)
    split = _reference_descend(tree, node.children[child_idx], key, value)
    if split is None:
        return None
    sep, right = split
    node.keys.insert(child_idx, sep)
    node.children.insert(child_idx + 1, right)
    return tree._split_internal(node) if len(node.keys) > tree.order else None


def reference_tree(pairs, **kwargs):
    tree = BPlusTree(**kwargs)
    for key, value in pairs:
        reference_insert(tree, key, value)
    return tree


def tree_state(tree):
    """Every node (id, keys, value lists, children or next leaf) in walk
    order, plus height, size, distinct keys and the next node id; the
    counters are compared on their own."""
    nodes = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if hasattr(node, "children"):
            nodes.append((node.node_id, list(node.keys), [c.node_id for c in node.children]))
            stack.extend(node.children)
        else:
            nxt = node.next.node_id if node.next is not None else None
            nodes.append((node.node_id, list(node.keys), [list(v) for v in node.values], nxt))
    return nodes, tree.height, len(tree), tree.distinct_keys, tree._next_node_id


def assert_same_tree(tree, expected):
    tree.check_invariants()
    assert tree_state(tree) == tree_state(expected)
    assert tree.counters.as_dict() == expected.counters.as_dict()


def key_stream(shape, n, seed):
    rng = random.Random(seed)
    if shape == "duplicates":
        return [rng.randrange(7) for _ in range(n)]
    keys = [rng.randrange(-1000, 1000) for _ in range(n)]
    if shape == "sorted":
        keys.sort()
    elif shape == "reversed":
        keys.sort(reverse=True)
    return keys


@settings(max_examples=80, deadline=None)
@given(
    order=st.sampled_from([3, 4, 5, 8, 64]),
    shape=st.sampled_from(["sorted", "reversed", "random", "duplicates"]),
    n=st.integers(0, 1500),
    seed=st.integers(0, 2**32 - 1),
    chunks=st.lists(st.one_of(st.just(1), st.integers(1, 400)), min_size=1, max_size=12),
)
def test_property_batched_tree_is_the_per_key_tree(order, shape, n, seed, chunks):
    """Fed in chunks (a chunk of one through ``insert``), the batched loop
    builds the per-key tree node for node and charges what it charges."""
    pairs = [(k, i) for i, k in enumerate(key_stream(shape, n, seed))]
    tree = BPlusTree(order=order)
    start = 0
    for size in itertools.cycle(chunks):
        if start >= len(pairs):
            break
        if size == 1:
            tree.insert(*pairs[start])
        else:
            tree.insert_batch(pairs[start : start + size])
        start += size
    assert_same_tree(tree, reference_tree(pairs, order=order))


class TestFinger:
    """A key that leaves the last leaf's separator bounds must descend."""

    KEYS = range(0, 400, 10)

    def leaf_bounds(self, tree, key):
        """``(lo, hi)``: the separators around the leaf ``key`` routes to."""
        lo = hi = None
        node = tree._root
        while hasattr(node, "children"):
            i = bisect.bisect_right(node.keys, key)
            if i:
                lo = node.keys[i - 1]
            if i < len(node.keys):
                hi = node.keys[i]
            node = node.children[i]
        return lo, hi

    def check(self, batch):
        pairs = [(k, k) for k in self.KEYS]
        tree = BPlusTree(order=4)
        tree.insert_batch(pairs)
        tree.insert_batch(batch)
        assert_same_tree(tree, reference_tree(pairs + batch, order=4))
        for key, value in batch:
            assert value in tree.search(key)

    def bounds(self):
        lo, hi = self.leaf_bounds(reference_tree([(k, k) for k in self.KEYS], order=4), 200)
        assert lo is not None and hi is not None  # a leaf bounded on both sides
        return lo, hi

    def test_key_equal_to_the_right_separator(self):
        lo, hi = self.bounds()
        self.check([(lo, "finger"), (hi, "right"), (hi, "right again")])

    def test_key_just_below_the_left_separator(self):
        lo, hi = self.bounds()
        self.check([(lo, "finger"), (lo - 1, "left"), (lo - 0.5, "left again")])

    def test_split_on_the_batch_last_key(self):
        splits = 0
        for n in range(1, 60):
            pairs = [(k, k) for k in range(n)]
            tree = BPlusTree(order=4)
            tree.insert_batch(pairs)
            before_last = reference_tree(pairs[:-1], order=4)
            splits += tree._next_node_id > before_last._next_node_id
            assert_same_tree(tree, reference_tree(pairs, order=4))
            # The next batch starts without a finger into a split leaf.
            tree.insert_batch([(n, "next"), (n - 1, "again")])
            assert_same_tree(
                tree, reference_tree(pairs + [(n, "next"), (n - 1, "again")], order=4)
            )
        assert splits > 10

    def test_insert_is_a_batch_of_one(self, monkeypatch):
        batches = []
        insert_batch = BPlusTree.insert_batch

        def spy(tree, pairs):
            batches.append(list(pairs))
            insert_batch(tree, batches[-1])

        monkeypatch.setattr(BPlusTree, "insert_batch", spy)
        tree = BPlusTree(order=4)
        tree.insert(3, "c")
        assert batches == [[(3, "c")]]
        assert tree.search(3) == ["c"]

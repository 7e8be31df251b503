"""Tests for the footnote-1 paged binary tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.paged_binary import PagedBinaryTree
from tests.test_btree import check_probe_on_every_interval, loaded


@pytest.fixture
def tree():
    return PagedBinaryTree(nodes_per_page=8)


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            PagedBinaryTree(nodes_per_page=0)

    def test_insert_search(self, tree):
        for k in (5, 2, 8):
            tree.insert(k, k * 10)
        assert tree.search(2) == [20]
        assert tree.search(7) == []

    def test_duplicates(self, tree):
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.search(1) == ["a", "b"]
        assert tree.distinct_keys == 1

    def test_range_scan_sorted(self, tree):
        keys = list(range(50))
        random.Random(2).shuffle(keys)
        for k in keys:
            tree.insert(k, k)
        assert [k for k, _ in tree.range_scan(10, 15)] == list(range(10, 16))


class TestDelete:
    def test_delete_leaf_and_internal(self, tree):
        for k in (5, 2, 8, 1, 3):
            tree.insert(k, k)
        assert tree.delete(1) == 1
        assert tree.delete(5) == 1  # two children
        assert sorted(k for k, _ in tree.range_scan()) == [2, 3, 8]

    def test_delete_root(self, tree):
        tree.insert(1, "a")
        assert tree.delete(1) == 1
        assert tree.search(1) == []

    def test_delete_missing(self, tree):
        assert tree.delete(5) == 0

    def test_delete_single_value(self, tree):
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1, "a") == 1
        assert tree.search(1) == ["b"]

    def test_random_delete_consistency(self, tree):
        keys = list(range(200))
        random.Random(7).shuffle(keys)
        for k in keys:
            tree.insert(k, k)
        for k in keys[:100]:
            assert tree.delete(k) == 1
        assert sorted(k for k, _ in tree.range_scan()) == sorted(keys[100:])


class TestPaging:
    def test_page_clustering_beats_avl(self):
        """The footnote's point: consecutive path nodes often share a page,
        so a lookup touches far fewer pages than nodes."""
        tree = PagedBinaryTree(nodes_per_page=16)
        keys = list(range(2000))
        random.Random(1).shuffle(keys)
        for k in keys:
            tree.insert(k, k)
        depth_pages = [len(tree.path_pages(k)) for k in range(0, 2000, 53)]
        mean_pages = sum(depth_pages) / len(depth_pages)
        # An AVL tree would touch ~log2(2000) ~ 11 pages.
        assert mean_pages < 9

    def test_page_count_bounded(self):
        tree = PagedBinaryTree(nodes_per_page=16)
        for k in range(160):
            tree.insert(k, k)
        assert tree.page_count >= 160 // 16
        # Sequential insert chains right: new page whenever parent page
        # fills.
        assert tree.page_count <= 160

    def test_unbalanced_worst_case(self):
        """The footnote's caveat: "paged binary trees are not balanced and
        the worst case access time may be significantly poorer"."""
        tree = PagedBinaryTree(nodes_per_page=8)
        for k in range(256):  # sorted insertion: a right spine
            tree.insert(k, k)
        assert tree.height() == 256


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 40), max_size=120),
    st.lists(st.integers(0, 40), max_size=60),
)
def test_property_range_tids_is_the_filtered_range_scan(keys, deletes):
    """The bulk probe every ordered index inherits (tests/test_btree.py
    holds the property)."""
    tree = loaded(PagedBinaryTree(nodes_per_page=8), keys)
    check_probe_on_every_interval(tree, keys)
    for k in deletes:
        tree.delete(k)
    check_probe_on_every_interval(tree, [k for k in keys if k not in deletes])

"""Tests for the paper's 'emp.name = "J*"' prefix query path."""

import pytest

from repro import DataType, MainMemoryDatabase
from repro.access.btree import BPlusTree
from repro.access.hash_index import HashIndex
from repro.operators.selection import Prefix, select, select_via_index
from repro.planner import Query
from repro.planner.plan import IndexScanNode
from repro.planner.planner import Planner
from repro.workload import employees_relation


@pytest.fixture
def emp():
    return employees_relation(400, seed=5)


class TestPrefixPredicate:
    def test_validation(self):
        with pytest.raises(ValueError):
            Prefix("name", "")

    def test_evaluate(self, emp):
        pred = Prefix("name", "J")
        matches = [row for row in emp if pred.evaluate(emp.schema, row)]
        assert matches
        assert all(row[1].startswith("J") for row in matches)

    def test_scan_select(self, emp):
        out = select(emp, Prefix("name", "Jo"))
        expected = [row for row in emp if row[1].startswith("Jo")]
        assert sorted(out) == sorted(expected)


class TestIndexedPrefix:
    def build_btree(self, emp):
        index = BPlusTree()
        for tid, row in emp.scan():
            index.insert(row[1], tid)
        return index

    def test_matches_scan(self, emp):
        index = self.build_btree(emp)
        via_index = sorted(select_via_index(emp, index, Prefix("name", "J")))
        via_scan = sorted(select(emp, Prefix("name", "J")))
        assert via_index == via_scan

    def test_narrow_prefix(self, emp):
        index = self.build_btree(emp)
        some_name = next(iter(emp))[1]
        out = select_via_index(emp, index, Prefix("name", some_name))
        assert all(row[1].startswith(some_name) for row in out)
        assert out.cardinality >= 1

    def test_hash_index_rejected(self, emp):
        index = HashIndex()
        for tid, row in emp.scan():
            index.insert(row[1], tid)
        with pytest.raises(ValueError):
            select_via_index(emp, index, Prefix("name", "J"))

    def test_prefix_scan_is_sequential_on_leaves(self, emp):
        """The Section 2 'case 2' claim: matching records live on few
        contiguous leaf pages."""
        index = self.build_btree(emp)
        low, high = Prefix("name", "J").range_bounds
        leaf_pages = list(index.scan_pages(low, high))
        matches = sum(1 for row in emp if row[1].startswith("J"))
        assert len(leaf_pages) <= max(2, matches)  # clustered, not 1/page


class TestPlannerIntegration:
    def test_planner_uses_btree_for_prefix(self, emp):
        db = MainMemoryDatabase()
        db.register_table(emp)
        db.create_index("emp", "name", kind="btree")
        db.analyze()
        planner = Planner(db.catalog)
        q = Query(tables=["emp"], predicates=[("emp", Prefix("name", "Jon"))])
        plan = planner.plan(q)
        assert isinstance(plan, IndexScanNode)
        result = plan.execute(planner.context())
        expected = [row for row in emp if row[1].startswith("Jon")]
        assert sorted(result) == sorted(expected)

    def test_planner_scans_without_ordered_index(self, emp):
        db = MainMemoryDatabase()
        db.register_table(emp)
        db.create_index("emp", "name", kind="hash")  # equality only
        db.analyze()
        planner = Planner(db.catalog)
        q = Query(tables=["emp"], predicates=[("emp", Prefix("name", "J"))])
        plan = planner.plan(q)
        assert not isinstance(plan, IndexScanNode)
        result = plan.execute(planner.context())
        assert all(row[1].startswith("J") for row in result)

    def test_prefix_selectivity_shrinks_with_length(self, emp):
        from repro.planner.selectivity import estimate_selectivity
        from repro.storage.catalog import RelationStats

        stats = RelationStats(cardinality=1000)
        s1 = estimate_selectivity(Prefix("name", "J"), stats)
        s2 = estimate_selectivity(Prefix("name", "Jon"), stats)
        assert 0 < s2 < s1 <= 1


def avl_scan_pages(avl, low, high):
    """The node page of every key an AVL in-order scan over [low, high]
    yields: one page per record, the favourable reading for the AVL tree
    (the traversal also touches ancestors)."""
    pages, stack, node = [], [], avl._root
    while stack or node is not None:
        while node is not None:
            if node.key < low:
                node = node.right
                continue
            stack.append(node)
            node = node.left
        if not stack:
            break
        current = stack.pop()
        if current.key > high:
            break
        pages.append(current.node_id)
        node = current.right
    return pages


def scan_faults(index, scan_pages, fraction, names, seed=5):
    """Faults of one scan through a random-replacement pool holding
    ``fraction`` of the structure, warmed by unrelated point lookups."""
    import random

    from repro.access.simulator import structure_pages
    from repro.storage.buffer import BufferPool, ReplacementPolicy

    pool = BufferPool(
        max(1, int(fraction * structure_pages(index))),
        policy=ReplacementPolicy.RANDOM, seed=seed,
    )
    rng = random.Random(seed + 1)
    for _ in range(len(names)):
        for page in index.path_pages(names[rng.randrange(len(names))]):
            pool.access(page)
    pool.reset_stats()
    for page in scan_pages:
        pool.access(page)
    return pool.faults


def test_j_star_scan_faults_per_record_versus_per_leaf():
    """E15, Section 2's case 2 executed: the AVL scan for "J*" touches a
    page per matching record, the B+-tree's sequence set a few leaves,
    and at every residence the B+-tree faults at under half the AVL rate."""
    from repro.access.avl import AVLTree
    from repro.workload.distributions import name_keys

    names = name_keys(3000, seed=12)
    avl, btree = AVLTree(), BPlusTree(order=32)
    for i, name in enumerate(names):
        avl.insert(name, i)
        btree.insert(name, i)
    matches = sum(1 for name in names if name.startswith("J"))
    avl_pages = avl_scan_pages(avl, "J", "K")
    bt_pages = list(btree.scan_pages("J", "K"))
    assert len(avl_pages) == matches
    assert len(bt_pages) < matches / 5
    for fraction in (0.25, 0.5, 0.75):
        avl_faults = scan_faults(avl, avl_pages, fraction, names)
        bt_faults = scan_faults(btree, bt_pages, fraction, names)
        assert bt_faults < avl_faults / 2, fraction

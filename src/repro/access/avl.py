"""An AVL tree -- the paper's main-memory access method candidate.

Each node stores one key (with its list of values), two child pointers, and
a height, exactly the ``L + 2 * pointer`` bytes the Section 2 storage
formula charges.  Because the structure has "no page structure", the fault
model assumes every node of a root-to-key path lives on a different page;
:meth:`AVLTree.path_pages` exposes those per-node page ids so the
buffer-pool experiment can replay real lookups against the model.

Key comparisons are charged to an optional
:class:`~repro.cost.counters.OperationCounters` (the paper discounts them
by ``Y <= 1`` relative to B+-tree comparisons; the discount is applied by
the cost model, not the counter).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.access.interface import Index, remove_value
from repro.cost.counters import OperationCounters


class _Node:
    __slots__ = ("key", "values", "left", "right", "height", "node_id")

    def __init__(self, key: Any, value: Any, node_id: int) -> None:
        self.key = key
        self.values: List[Any] = [value]
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.height = 1
        self.node_id = node_id


def _height(node: Optional[_Node]) -> int:
    return node.height if node else 0


def _update(node: _Node) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))


def _balance(node: _Node) -> int:
    return _height(node.left) - _height(node.right)


def _rotate_right(y: _Node) -> _Node:
    x = y.left
    assert x is not None
    y.left = x.right
    x.right = y
    _update(y)
    _update(x)
    return x


def _rotate_left(x: _Node) -> _Node:
    y = x.right
    assert y is not None
    x.right = y.left
    y.left = x
    _update(x)
    _update(y)
    return y


def _rebalance(node: _Node) -> _Node:
    _update(node)
    bal = _balance(node)
    if bal > 1:
        assert node.left is not None
        if _balance(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if bal < -1:
        assert node.right is not None
        if _balance(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class AVLTree(Index):
    """Height-balanced binary search tree with duplicate-key support."""

    def __init__(self, counters: Optional[OperationCounters] = None) -> None:
        self.counters = counters if counters is not None else OperationCounters()
        self._root: Optional[_Node] = None
        self._size = 0
        self._distinct = 0
        self._next_node_id = 0

    # -- size ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def distinct_keys(self) -> int:
        return self._distinct

    @property
    def height(self) -> int:
        """Height of the tree (0 when empty)."""
        return _height(self._root)

    @property
    def node_count(self) -> int:
        """Number of nodes == distinct keys (one node per key)."""
        return self._distinct

    # -- core operations ----------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        self._root = self._insert(self._root, key, value)
        self._size += 1

    def _insert(self, node: Optional[_Node], key: Any, value: Any) -> _Node:
        if node is None:
            self._distinct += 1
            fresh = _Node(key, value, self._next_node_id)
            self._next_node_id += 1
            return fresh
        # One three-way comparison per node, as the Section 2 model counts.
        self.counters.compare()
        if key == node.key:
            node.values.append(value)
            return node
        if key < node.key:
            node.left = self._insert(node.left, key, value)
        else:
            node.right = self._insert(node.right, key, value)
        return _rebalance(node)

    def search(self, key: Any) -> List[Any]:
        node = self._root
        while node is not None:
            # One three-way comparison per node (the model's C).
            self.counters.compare()
            if key == node.key:
                return list(node.values)
            node = node.left if key < node.key else node.right
        return []

    def path_pages(self, key: Any) -> List[int]:
        """Page ids (== node ids) touched by a lookup of ``key``.

        Used by the fault-model experiment: an AVL lookup touches one page
        per node on the search path.
        """
        pages: List[int] = []
        node = self._root
        while node is not None:
            pages.append(node.node_id)
            if key == node.key:
                break
            node = node.left if key < node.key else node.right
        return pages

    def delete(self, key: Any, value: Optional[Any] = None) -> int:
        removed = [0]
        self._root = self._delete(self._root, key, value, removed)
        self._size -= removed[0]
        return removed[0]

    def _delete(
        self,
        node: Optional[_Node],
        key: Any,
        value: Optional[Any],
        removed: List[int],
    ) -> Optional[_Node]:
        if node is None:
            return None
        self.counters.compare()  # one three-way comparison per node
        if key < node.key:
            node.left = self._delete(node.left, key, value, removed)
            return _rebalance(node)
        if key > node.key:
            node.right = self._delete(node.right, key, value, removed)
            return _rebalance(node)

        # Found the key's node.
        if value is not None:
            try:
                remove_value(node.values, value)
                removed[0] += 1
            except ValueError:
                return node
            if node.values:
                return node
        else:
            removed[0] += len(node.values)
            node.values.clear()

        # Remove the now-empty node.
        self._distinct -= 1
        if node.left is None:
            return node.right
        if node.right is None:
            return node.left
        successor = node.right
        while successor.left is not None:
            successor = successor.left
        node.key = successor.key
        node.values = successor.values
        # Detach the successor node (its values moved up; delete all).
        self._distinct += 1  # _delete below will decrement again
        node.right = self._delete_node_min(node.right)
        return _rebalance(node)

    def _delete_node_min(self, node: _Node) -> Optional[_Node]:
        """Remove the minimum node of a subtree (values already moved)."""
        if node.left is None:
            self._distinct -= 1
            return node.right
        node.left = self._delete_node_min(node.left)
        return _rebalance(node)

    # -- ordered access ------------------------------------------------------------

    def range_scan(
        self, low: Optional[Any] = None, high: Optional[Any] = None
    ) -> Iterator[Tuple[Any, Any]]:
        """In-order traversal restricted to ``low <= key <= high``.

        This is the paper's sequential-access case 2: successive results
        come from unrelated nodes/pages.
        """
        stack: List[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                if low is not None and node.key < low:
                    node = node.right
                    continue
                stack.append(node)
                node = node.left
            if not stack:
                return
            current = stack.pop()
            if high is not None and current.key > high:
                return
            if low is None or current.key >= low:
                for value in current.values:
                    yield current.key, value
            node = current.right

    def minimum(self) -> Optional[Any]:
        node = self._root
        if node is None:
            return None
        while node.left is not None:
            node = node.left
        return node.key

    def maximum(self) -> Optional[Any]:
        node = self._root
        if node is None:
            return None
        while node.right is not None:
            node = node.right
        return node.key

    # -- invariants (used by property tests) --------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if AVL or BST invariants are violated."""

        def walk(node: Optional[_Node]) -> Tuple[int, Optional[Any], Optional[Any]]:
            if node is None:
                return 0, None, None
            lh, lmin, lmax = walk(node.left)
            rh, rmin, rmax = walk(node.right)
            assert abs(lh - rh) <= 1, "AVL balance violated at %r" % (node.key,)
            assert node.height == 1 + max(lh, rh), "stale height at %r" % (node.key,)
            if lmax is not None:
                assert lmax < node.key, "BST order violated at %r" % (node.key,)
            if rmin is not None:
                assert rmin > node.key, "BST order violated at %r" % (node.key,)
            lo = lmin if lmin is not None else node.key
            hi = rmax if rmax is not None else node.key
            return node.height, lo, hi

        walk(self._root)

    def __repr__(self) -> str:
        return "AVLTree(%d values, %d keys, height=%d)" % (
            self._size,
            self._distinct,
            self.height,
        )


__all__ = ["AVLTree"]

"""A B+-tree with page-structured nodes -- the disk-era incumbent.

Nodes are pages: an internal node holds up to ``order`` keys and
``order + 1`` child pointers; a leaf holds up to ``order`` distinct keys
with their value lists and a next-leaf pointer (the sequence set used by
the paper's sequential-access case).  Random insertion drives occupancy
toward Yao's ~69%, which :meth:`BPlusTree.average_fill` lets tests verify.

Within-node search is binary, so a lookup costs about ``log2(||R||)``
comparisons in total -- the ``C'`` of the Section 2 model -- while touching
only ``height + 1`` pages; :meth:`BPlusTree.path_pages` exposes the touched
page ids for the fault-model experiment.

Every insert goes through one loop, :meth:`BPlusTree.insert_batch`
(:meth:`BPlusTree.insert` is a batch of one).  It descends iteratively,
keeps a finger on the last leaf it reached so that a key bound for the
same leaf skips the descent (but not its charge), and charges the
batch's comparisons once at the end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.access.interface import Index, remove_value
from repro.cost.counters import OperationCounters
from repro.errors import ConfigurationError

DEFAULT_ORDER = 64


def _node_search_cost(n: int) -> int:
    """Comparisons charged for a binary search over a node of ``n`` keys:
    ``max(1, ceil(log2(n + 1)))``, which is ``n.bit_length()`` (at least
    one) in integers."""
    return n.bit_length() or 1


class _BNode:
    """Base class so both node kinds carry a page id."""

    __slots__ = ("node_id",)

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id


class _Leaf(_BNode):
    __slots__ = ("keys", "values", "next")

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.keys: List[Any] = []
        self.values: List[List[Any]] = []
        self.next: Optional["_Leaf"] = None


class _Internal(_BNode):
    __slots__ = ("keys", "children")

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.keys: List[Any] = []
        self.children: List[_BNode] = []


class BPlusTree(Index):
    """B+-tree over opaque values with duplicate-key support.

    ``order`` is the maximum number of keys per node.  Pass ``page_bytes``
    / ``key_bytes`` / ``pointer_bytes`` instead to derive the order the way
    the paper does (``p / (K + ptr)``).
    """

    def __init__(
        self,
        order: int = DEFAULT_ORDER,
        counters: Optional[OperationCounters] = None,
        page_bytes: Optional[int] = None,
        key_bytes: int = 8,
        pointer_bytes: int = 4,
    ) -> None:
        if page_bytes is not None:
            order = page_bytes // (key_bytes + pointer_bytes)
        if order < 3:
            raise ConfigurationError("B+-tree order must be at least 3")
        self.order = order
        self.counters = counters if counters is not None else OperationCounters()
        self._next_node_id = 0
        self._root: _BNode = self._new_leaf()
        self._size = 0
        self._distinct = 0
        self._height = 0  # levels of internal nodes above the leaves

    # -- node allocation -----------------------------------------------------------

    def _new_leaf(self) -> _Leaf:
        node = _Leaf(self._next_node_id)
        self._next_node_id += 1
        return node

    def _new_internal(self) -> _Internal:
        node = _Internal(self._next_node_id)
        self._next_node_id += 1
        return node

    # -- size / shape -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def distinct_keys(self) -> int:
        return self._distinct

    @property
    def height(self) -> int:
        """Number of internal levels above the leaf level."""
        return self._height

    def node_counts(self) -> Tuple[int, int]:
        """(internal nodes, leaf nodes)."""
        internal = leaves = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                leaves += 1
            else:
                internal += 1
                stack.extend(node.children)
        return internal, leaves

    def average_fill(self) -> float:
        """Mean node occupancy (keys / order) -- Yao predicts ~0.69."""
        total = count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += len(node.keys)
            count += 1
            if isinstance(node, _Internal):
                stack.extend(node.children)
        return total / (count * self.order) if count else 0.0

    # -- search ------------------------------------------------------------------------

    def _charge_node_search(self, node_keys: List[Any]) -> None:
        self.counters.compare(_node_search_cost(len(node_keys)))

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            self._charge_node_search(node.keys)
            node = node.children[bisect_right(node.keys, key)]
        return node

    def search(self, key: Any) -> List[Any]:
        leaf = self._find_leaf(key)
        self._charge_node_search(leaf.keys)
        i = bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            return list(leaf.values[i])
        return []

    def path_pages(self, key: Any) -> List[int]:
        """Page ids on the root-to-leaf path for ``key`` (height+1 pages)."""
        pages: List[int] = []
        node = self._root
        while isinstance(node, _Internal):
            pages.append(node.node_id)
            node = node.children[bisect_right(node.keys, key)]
        pages.append(node.node_id)
        return pages

    # -- insert -------------------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        self.insert_batch(((key, value),))

    def insert_batch(self, pairs: Iterable[Tuple[Any, Any]]) -> None:
        """Insert ``(key, value)`` pairs in order: the tree's one insert loop.

        Builds the tree :meth:`insert` per pair would, node for node, and
        charges the same totals: each node search on the root-to-leaf path
        costs :func:`_node_search_cost` comparisons, each split moves what
        its helper charges.  The descent is iterative and the comparisons
        are counted in a local integer, charged once per batch.

        The loop keeps a *finger* on the last leaf it reached: the leaf,
        the separators that bound it (``lo <= key < hi``, as
        ``bisect_right`` routes), the path to it and that path's charge.
        A key inside the bounds would descend to the same leaf through the
        same unchanged nodes, so it skips the descent and is charged the
        path's cost.  A split changes the path, so it drops the finger.
        Keys arriving in order (a table indexed on its load order) take the
        finger for all but about one key per leaf.
        """
        order = self.order
        compares = size = distinct = 0
        leaf: Optional[_Leaf] = None  # the finger: none yet, or dropped by a split
        try:
            for key, value in pairs:
                if leaf is None or (
                    (lo is not None and key < lo) or (hi is not None and not key < hi)
                ):
                    path: List[Tuple[_Internal, int]] = []
                    path_cost = 0
                    lo = hi = None
                    node = self._root
                    while isinstance(node, _Internal):
                        keys = node.keys
                        # _node_search_cost, inlined here and at the leaf.
                        path_cost += len(keys).bit_length() or 1
                        i = bisect_right(keys, key)
                        if i:
                            lo = keys[i - 1]
                        if i < len(keys):
                            hi = keys[i]
                        path.append((node, i))
                        node = node.children[i]
                    leaf = node
                    keys = leaf.keys
                    values = leaf.values
                n = len(keys)
                compares += path_cost + (n.bit_length() or 1)
                i = bisect_left(keys, key)
                if i < n and keys[i] == key:
                    values[i].append(value)
                    size += 1
                    continue
                keys.insert(i, key)
                values.insert(i, [value])
                size += 1
                distinct += 1
                if n < order:
                    continue
                split: Optional[Tuple[Any, _BNode]] = self._split_leaf(leaf)
                while split is not None and path:
                    parent, i = path.pop()
                    sep, right = split
                    parent.keys.insert(i, sep)
                    parent.children.insert(i + 1, right)
                    split = (
                        self._split_internal(parent)
                        if len(parent.keys) > order
                        else None
                    )
                if split is not None:
                    sep, right = split
                    new_root = self._new_internal()
                    new_root.keys = [sep]
                    new_root.children = [self._root, right]
                    self._root = new_root
                    self._height += 1
                leaf = None
        finally:
            self._size += size
            self._distinct += distinct
            self.counters.compare(compares)

    def _split_leaf(self, leaf: _Leaf) -> Tuple[Any, _Leaf]:
        mid = len(leaf.keys) // 2
        right = self._new_leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        # Moving half the entries to a fresh page is order/2 tuple moves.
        self.counters.move_tuple(len(right.keys))
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> Tuple[Any, _Internal]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = self._new_internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self.counters.move_tuple(len(right.keys))
        return sep, right

    # -- delete -------------------------------------------------------------------------

    def delete(self, key: Any, value: Optional[Any] = None) -> int:
        removed = self._delete(self._root, key, value)
        if (
            isinstance(self._root, _Internal)
            and len(self._root.children) == 1
        ):
            self._root = self._root.children[0]
            self._height -= 1
        self._size -= removed
        return removed

    def _min_keys(self) -> int:
        return self.order // 2

    def _delete(self, node: _BNode, key: Any, value: Optional[Any]) -> int:
        if isinstance(node, _Leaf):
            self._charge_node_search(node.keys)
            i = bisect_left(node.keys, key)
            if i >= len(node.keys) or node.keys[i] != key:
                return 0
            if value is not None:
                try:
                    remove_value(node.values[i], value)
                except ValueError:
                    return 0
                removed = 1
                if node.values[i]:
                    return removed
            else:
                removed = len(node.values[i])
            del node.keys[i]
            del node.values[i]
            self._distinct -= 1
            return removed

        assert isinstance(node, _Internal)
        self._charge_node_search(node.keys)
        child_idx = bisect_right(node.keys, key)
        removed = self._delete(node.children[child_idx], key, value)
        if removed:
            self._rebalance_child(node, child_idx)
        return removed

    def _rebalance_child(self, parent: _Internal, idx: int) -> None:
        child = parent.children[idx]
        if len(child.keys) >= self._min_keys():
            return
        left = parent.children[idx - 1] if idx > 0 else None
        right = parent.children[idx + 1] if idx + 1 < len(parent.children) else None

        if left is not None and len(left.keys) > self._min_keys():
            self._borrow_from_left(parent, idx)
        elif right is not None and len(right.keys) > self._min_keys():
            self._borrow_from_right(parent, idx)
        elif left is not None:
            self._merge_children(parent, idx - 1)
        elif right is not None:
            self._merge_children(parent, idx)

    def _borrow_from_left(self, parent: _Internal, idx: int) -> None:
        left, child = parent.children[idx - 1], parent.children[idx]
        if isinstance(child, _Leaf):
            assert isinstance(left, _Leaf)
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[idx - 1] = child.keys[0]
        else:
            assert isinstance(left, _Internal) and isinstance(child, _Internal)
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        self.counters.move_tuple()

    def _borrow_from_right(self, parent: _Internal, idx: int) -> None:
        child, right = parent.children[idx], parent.children[idx + 1]
        if isinstance(child, _Leaf):
            assert isinstance(right, _Leaf)
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[idx] = right.keys[0]
        else:
            assert isinstance(right, _Internal) and isinstance(child, _Internal)
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        self.counters.move_tuple()

    def _merge_children(self, parent: _Internal, idx: int) -> None:
        """Merge child ``idx+1`` into child ``idx``."""
        left, right = parent.children[idx], parent.children[idx + 1]
        if isinstance(left, _Leaf):
            assert isinstance(right, _Leaf)
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
        else:
            assert isinstance(left, _Internal) and isinstance(right, _Internal)
            left.keys.append(parent.keys[idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        self.counters.move_tuple(len(right.keys))
        del parent.keys[idx]
        del parent.children[idx + 1]

    # -- ordered access -----------------------------------------------------------------

    def range_scan(
        self, low: Optional[Any] = None, high: Optional[Any] = None
    ) -> Iterator[Tuple[Any, Any]]:
        """Sequence-set scan: one leaf page per ``~0.69 * order`` keys."""
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost_leaf()
            start = 0
        else:
            leaf = self._find_leaf(low)
            start = bisect_left(leaf.keys, low)
        while leaf is not None:
            for i in range(start, len(leaf.keys)):
                key = leaf.keys[i]
                if high is not None and key > high:
                    return
                for value in leaf.values[i]:
                    yield key, value
            leaf = leaf.next
            start = 0

    def range_tids(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_open: bool = False,
        high_open: bool = False,
        token: Optional[Any] = None,
        chunk: int = 64,
    ) -> List[Any]:
        """One descent to ``low``, then a slice of each leaf's value lists,
        both ends found by bisection: keys outside the interval are never
        visited.  Charges what :meth:`range_scan` does (the descent);
        ``token`` is checked before each leaf read, whatever ``chunk``."""
        first = bisect_right if low_open else bisect_left
        last = bisect_left if high_open else bisect_right
        values: List[Any] = []
        leaf = self._leftmost_leaf() if low is None else self._find_leaf(low)
        while leaf is not None:
            if token is not None:
                token.check()
            keys = leaf.keys
            start = 0 if low is None else first(keys, low)
            stop = len(keys) if high is None else last(keys, high)
            values.extend(chain.from_iterable(leaf.values[start:stop]))
            if stop < len(keys):
                break
            leaf = leaf.next
        return values

    def scan_pages(
        self, low: Optional[Any] = None, high: Optional[Any] = None
    ) -> Iterator[int]:
        """Leaf page ids a range scan touches (for the fault experiment)."""
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost_leaf()
        else:
            leaf = self._find_leaf(low)
        while leaf is not None:
            if high is not None and leaf.keys and leaf.keys[0] > high:
                return
            yield leaf.node_id
            leaf = leaf.next

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    def minimum(self) -> Optional[Any]:
        leaf = self._leftmost_leaf()
        return leaf.keys[0] if leaf.keys else None

    def maximum(self) -> Optional[Any]:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[-1]
        return node.keys[-1] if node.keys else None

    # -- invariants ---------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any structural violation."""

        def walk(node: _BNode, lo: Optional[Any], hi: Optional[Any]) -> int:
            assert len(node.keys) <= self.order, "node overflow"
            assert node.keys == sorted(node.keys), "unsorted node keys"
            for k in node.keys:
                if lo is not None:
                    assert k >= lo, "key below subtree bound"
                if hi is not None:
                    assert k < hi, "key above subtree bound"
            if isinstance(node, _Leaf):
                assert len(node.keys) == len(node.values)
                for vals in node.values:
                    assert vals, "empty value list in leaf"
                return 0
            assert isinstance(node, _Internal)
            assert len(node.children) == len(node.keys) + 1
            depths = set()
            bounds = [lo] + list(node.keys) + [hi]
            for i, child in enumerate(node.children):
                depths.add(walk(child, bounds[i], bounds[i + 1]))
            assert len(depths) == 1, "leaves at unequal depth"
            return depths.pop() + 1

        depth = walk(self._root, None, None)
        assert depth == self._height, "cached height %d != actual %d" % (
            self._height,
            depth,
        )
        # Leaf chain covers every key in order.
        chained = [k for k, _ in self.range_scan()]
        assert chained == sorted(chained), "leaf chain out of order"

    def __repr__(self) -> str:
        return "BPlusTree(order=%d, %d values, %d keys, height=%d)" % (
            self.order,
            self._size,
            self._distinct,
            self._height,
        )


__all__ = ["BPlusTree", "DEFAULT_ORDER"]

"""The footnote-1 alternative: a binary tree whose nodes are packed on pages.

The paper's first footnote observes that a *paged* binary tree trades the
AVL tree's page-per-node behaviour for B-tree-like clustering, but "the
fanout per node will be slightly worse than the B-tree" and, unbalanced,
its worst case is "significantly poorer".  This module implements the
structure so the claim can be measured: an ordinary (unbalanced) BST whose
nodes are allocated into pages of ``nodes_per_page`` slots, preferring the
parent's page so root-adjacent subtrees cluster together (the
Muntz-Uzgalis allocation the footnote cites).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.access.interface import Index, remove_value
from repro.cost.counters import OperationCounters
from repro.errors import ConfigurationError


class _PNode:
    __slots__ = ("key", "values", "left", "right", "page_id")

    def __init__(self, key: Any, value: Any, page_id: int) -> None:
        self.key = key
        self.values: List[Any] = [value]
        self.left: Optional["_PNode"] = None
        self.right: Optional["_PNode"] = None
        self.page_id = page_id


class PagedBinaryTree(Index):
    """Unbalanced BST with page-clustered node allocation."""

    def __init__(
        self,
        nodes_per_page: int = 32,
        counters: Optional[OperationCounters] = None,
    ) -> None:
        if nodes_per_page < 1:
            raise ConfigurationError("need at least one node per page")
        self.nodes_per_page = nodes_per_page
        self.counters = counters if counters is not None else OperationCounters()
        self._root: Optional[_PNode] = None
        self._size = 0
        self._distinct = 0
        self._page_fill: List[int] = []  # nodes allocated per page

    # -- allocation -----------------------------------------------------------------

    def _allocate_page(self) -> int:
        self._page_fill.append(0)
        return len(self._page_fill) - 1

    def _place_node(self, parent: Optional[_PNode]) -> int:
        """Choose a page: the parent's when it has room, else a new one."""
        if parent is not None and self._page_fill[parent.page_id] < self.nodes_per_page:
            page = parent.page_id
        else:
            page = self._allocate_page()
        self._page_fill[page] += 1
        return page

    # -- size / shape ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def distinct_keys(self) -> int:
        return self._distinct

    @property
    def page_count(self) -> int:
        return len(self._page_fill)

    def height(self) -> int:
        def depth(node: Optional[_PNode]) -> int:
            if node is None:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self._root)

    def path_pages(self, key: Any) -> List[int]:
        """Distinct page ids on the search path -- the structure's point:
        consecutive path nodes often share a page, unlike the AVL tree."""
        pages: List[int] = []
        node = self._root
        while node is not None:
            if not pages or pages[-1] != node.page_id:
                pages.append(node.page_id)
            if key == node.key:
                break
            node = node.left if key < node.key else node.right
        return pages

    # -- Index protocol -------------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        if self._root is None:
            self._root = _PNode(key, value, self._place_node(None))
            self._size += 1
            self._distinct += 1
            return
        node = self._root
        while True:
            self.counters.compare()  # one three-way comparison per node
            if key == node.key:
                node.values.append(value)
                self._size += 1
                return
            if key < node.key:
                if node.left is None:
                    node.left = _PNode(key, value, self._place_node(node))
                    break
                node = node.left
            else:
                if node.right is None:
                    node.right = _PNode(key, value, self._place_node(node))
                    break
                node = node.right
        self._size += 1
        self._distinct += 1

    def search(self, key: Any) -> List[Any]:
        node = self._root
        while node is not None:
            self.counters.compare()  # one three-way comparison per node
            if key == node.key:
                return list(node.values)
            node = node.left if key < node.key else node.right
        return []

    def delete(self, key: Any, value: Optional[Any] = None) -> int:
        """Remove values under ``key`` (page fill counts are not reclaimed;
        like the 1984 structures, pages only grow)."""
        parent: Optional[_PNode] = None
        node = self._root
        left_child = False
        while node is not None and node.key != key:
            self.counters.compare()
            parent = node
            left_child = key < node.key
            node = node.left if left_child else node.right
        if node is None:
            return 0
        if value is not None:
            try:
                remove_value(node.values, value)
            except ValueError:
                return 0
            removed = 1
            if node.values:
                self._size -= removed
                return removed
        else:
            removed = len(node.values)

        # Structural removal (standard BST delete).
        self._distinct -= 1
        if node.left is not None and node.right is not None:
            succ_parent, succ = node, node.right
            while succ.left is not None:
                succ_parent, succ = succ, succ.left
            node.key, node.values = succ.key, succ.values
            if succ_parent.left is succ:
                succ_parent.left = succ.right
            else:
                succ_parent.right = succ.right
        else:
            replacement = node.left if node.left is not None else node.right
            if parent is None:
                self._root = replacement
            elif left_child:
                parent.left = replacement
            else:
                parent.right = replacement
        self._size -= removed
        return removed

    def range_scan(
        self, low: Optional[Any] = None, high: Optional[Any] = None
    ) -> Iterator[Tuple[Any, Any]]:
        stack: List[_PNode] = []
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
            for value in current.values:
                yield current.key, value
            node = current.right

    def __repr__(self) -> str:
        return "PagedBinaryTree(%d values, %d keys, %d pages)" % (
            self._size,
            self._distinct,
            self.page_count,
        )


__all__ = ["PagedBinaryTree"]

"""Static lock-order checker: the acquisition graph must be acyclic.

Deadlock needs a cycle in the lock-acquisition order.  This pass extracts
that order statically: every ``self.<attr> = threading.Lock()`` (or
``RLock``/``Condition``/``tracked_lock``) defines a lock node; every
``with self.<attr>:`` (or explicit ``.acquire()``) is an acquisition; and
a call made while holding lock A to a method that (transitively) acquires
lock B adds the edge A -> B.  ``threading.Condition(self._lock)`` aliases
the wrapped lock, so waiting on the condition is not a second node.

Call resolution is conservative: an unqualified ``obj.method(...)`` call
matches every known class that defines ``method`` and whose methods can
acquire a lock.  That over-approximates -- which is the right direction
for a deadlock checker: a cycle report names a *potential* order
inversion worth either fixing or suppressing with a comment that argues
why the paths cannot interleave.

The same graph is checked dynamically by
:class:`repro.lint.runtime.LockOrderRecorder` under the concurrency
tests; see docs/LINTING.md and docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import (
    Checker,
    Finding,
    LintConfig,
    SourceModule,
)
from repro.lint.checkers.common import dotted_name, finding

RULE = "lock-order"

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "Lock",
    "RLock",
    "tracked_lock",
}
_CONDITION_FACTORIES = {"threading.Condition", "Condition"}


@dataclass
class _ClassLocks:
    """Lock bookkeeping for one class."""

    module: SourceModule
    node: ast.ClassDef
    #: attr -> canonical attr (Condition(self._x) aliases _x).
    locks: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)

    def lock_id(self, attr: str) -> str:
        return "%s.%s.%s" % (
            self.module.module,
            self.node.name,
            self.locks[attr],
        )


class LockOrderChecker(Checker):
    rules = {
        RULE: (
            "the static lock-acquisition graph must be acyclic "
            "(a cycle is a potential deadlock)"
        )
    }

    def check_project(
        self, modules: Sequence[SourceModule], config: LintConfig
    ) -> Iterable[Finding]:
        classes = _collect_classes(modules)
        if not classes:
            return
        graph, sites = build_lock_graph(classes)
        cycle = _find_cycle(graph)
        if cycle is None:
            return
        edges = [
            (cycle[i], cycle[(i + 1) % len(cycle)])
            for i in range(len(cycle))
        ]
        locations = []
        for a, b in edges:
            module, node = sites.get((a, b), (None, None))
            if module is not None:
                locations.append(
                    "%s -> %s at %s:%d"
                    % (a, b, module.display_path, node.lineno)
                )
        module, node = next(
            (sites[e] for e in edges if e in sites),
            (classes[0].module, classes[0].node),
        )
        yield finding(
            module,
            RULE,
            node,
            "lock-acquisition cycle (potential deadlock): %s"
            % ("; ".join(locations) or " -> ".join(cycle + cycle[:1])),
        )


def _collect_classes(
    modules: Sequence[SourceModule],
) -> List[_ClassLocks]:
    classes: List[_ClassLocks] = []
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _ClassLocks(module=module, node=node)
            info.methods = {
                n.name: n
                for n in node.body
                if isinstance(n, ast.FunctionDef)
            }
            for func in info.methods.values():
                _collect_locks(func, info)
            if info.locks:
                classes.append(info)
    return classes


def _collect_locks(func: ast.FunctionDef, info: _ClassLocks) -> None:
    for stmt in ast.walk(func):
        if not isinstance(stmt, ast.Assign):
            continue
        if not isinstance(stmt.value, ast.Call):
            continue
        callee = dotted_name(stmt.value.func) or ""
        for target in stmt.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if callee in _LOCK_FACTORIES:
                info.locks[target.attr] = target.attr
            elif callee in _CONDITION_FACTORIES:
                # Condition(self._x) aliases _x; bare Condition() is its
                # own lock node.
                args = stmt.value.args
                if (
                    args
                    and isinstance(args[0], ast.Attribute)
                    and isinstance(args[0].value, ast.Name)
                    and args[0].value.id == "self"
                    and args[0].attr in info.locks
                ):
                    info.locks[target.attr] = info.locks[args[0].attr]
                else:
                    info.locks[target.attr] = target.attr


def build_lock_graph(
    classes: Sequence[_ClassLocks],
) -> Tuple[
    Dict[str, Set[str]],
    Dict[Tuple[str, str], Tuple[SourceModule, ast.AST]],
]:
    """``(edges, edge_sites)`` for the project's lock-acquisition order."""
    # methods that may acquire locks, resolvable by bare name.
    method_owner: Dict[str, List[_ClassLocks]] = {}
    for info in classes:
        for name in info.methods:
            method_owner.setdefault(name, []).append(info)

    # Transitive "locks this method may acquire" sets, to fixpoint.
    acquires: Dict[Tuple[int, str], Set[str]] = {}
    for ci, info in enumerate(classes):
        for name, func in info.methods.items():
            acquires[(ci, name)] = {
                info.lock_id(attr)
                for attr in _direct_acquisitions(func, info)
            }
    changed = True
    while changed:
        changed = False
        for ci, info in enumerate(classes):
            for name, func in info.methods.items():
                current = acquires[(ci, name)]
                for callee in _called_names(func):
                    for other_ci, other in enumerate(classes):
                        if callee in other.methods:
                            extra = acquires[(other_ci, callee)] - current
                            if extra:
                                current |= extra
                                changed = True

    edges: Dict[str, Set[str]] = {}
    sites: Dict[Tuple[str, str], Tuple[SourceModule, ast.AST]] = {}

    def add_edge(a: str, b: str, module: SourceModule, node: ast.AST) -> None:
        if a == b:
            return
        edges.setdefault(a, set()).add(b)
        sites.setdefault((a, b), (module, node))

    for ci, info in enumerate(classes):
        for func in info.methods.values():
            for held, body in _with_blocks(func, info):
                held_id = info.lock_id(held)
                for stmt in body:
                    for node in ast.walk(stmt):
                        if isinstance(node, ast.With):
                            for item in node.items:
                                attr = _self_lock_attr(
                                    item.context_expr, info
                                )
                                if attr is not None:
                                    add_edge(
                                        held_id,
                                        info.lock_id(attr),
                                        info.module,
                                        node,
                                    )
                        elif isinstance(node, ast.Call):
                            callee = _call_method_name(node)
                            if callee is None:
                                continue
                            for other_ci, other in enumerate(classes):
                                if callee in other.methods:
                                    for lock in acquires[
                                        (other_ci, callee)
                                    ]:
                                        add_edge(
                                            held_id,
                                            lock,
                                            info.module,
                                            node,
                                        )
    return edges, sites


def _direct_acquisitions(
    func: ast.FunctionDef, info: _ClassLocks
) -> Set[str]:
    found: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.With):
            for item in node.items:
                attr = _self_lock_attr(item.context_expr, info)
                if attr is not None:
                    found.add(attr)
        elif isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "acquire"
                and isinstance(f.value, ast.Attribute)
            ):
                attr = _self_lock_attr(f.value, info)
                if attr is not None:
                    found.add(attr)
    return found


def _self_lock_attr(
    node: ast.AST, info: _ClassLocks
) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in info.locks
    ):
        return node.attr
    return None


def _with_blocks(
    func: ast.FunctionDef, info: _ClassLocks
) -> Iterable[Tuple[str, List[ast.stmt]]]:
    for node in ast.walk(func):
        if isinstance(node, ast.With):
            for item in node.items:
                attr = _self_lock_attr(item.context_expr, info)
                if attr is not None:
                    yield attr, node.body


def _called_names(func: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = _call_method_name(node)
            if name is not None:
                names.add(name)
    return names


def _call_method_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _find_cycle(graph: Dict[str, Set[str]]) -> Optional[List[str]]:
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    path: List[str] = []

    def dfs(node: str) -> Optional[List[str]]:
        color[node] = GREY
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            state = color.get(nxt, WHITE)
            if state == GREY:
                return path[path.index(nxt):]
            if state == WHITE:
                cycle = dfs(nxt)
                if cycle is not None:
                    return cycle
        path.pop()
        color[node] = BLACK
        return None

    for node in sorted(graph):
        if color.get(node, WHITE) == WHITE:
            cycle = dfs(node)
            if cycle is not None:
                return cycle
    return None


__all__ = ["LockOrderChecker", "RULE", "build_lock_graph"]

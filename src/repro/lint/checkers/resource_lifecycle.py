"""Resource-lifecycle all-paths checker.

The static twin of PR 8's zero-leaked-slots chaos sweeps: every
governor admission (``handle = gov.admit(...)``), every slot parked
with ``gov.begin_wait(handle)``, every join spill writer
(``SpillWriter(...)``), and every explicit lock ``acquire()`` must
reach its release/close on **every** exit path of the acquiring
function -- including the exceptional ones the happy-path tests never
take.  The check runs on the per-function CFG from
:mod:`repro.lint.ipa`, whose ``finally`` regions are duplicated per
continuation so a ``finally: gov.release(handle)`` covers fall-through,
early return, and raise alike.

What counts as an acquire/release is configuration
(``LintConfig.resource_acquires`` / ``resource_factories`` /
``resource_transitions``); a *transition* re-obligates an existing
handle (``begin_wait`` parks a slot that ``end_wait`` or ``release``
must then reclaim).  Ownership transfer is modeled by escape analysis:
a resource that is returned, stored into a container or attribute, or
passed to a non-custodial callee is someone else's to close, and the
check stands down rather than guess (the dynamic sweeps own that
half).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.engine import (
    Checker,
    Finding,
    LintConfig,
    SourceModule,
)
from repro.lint.checkers.common import dotted_name, finding, in_scope
from repro.lint.ipa import (
    CFG,
    EXC_EXIT,
    EXIT,
    FunctionInfo,
    analyze_project,
    build_cfg,
)

RULE = "resource-lifecycle"


@dataclass
class _Resource:
    stmt: ast.stmt
    var: str
    desc: str
    releases: Tuple[str, ...]
    #: For explicit ``<recv>.acquire()`` statements the handle is the
    #: receiver expression itself, matched by dotted name.
    recv: Optional[str] = None


class ResourceLifecycleChecker(Checker):
    rules = {
        RULE: (
            "every governor slot/grant acquire, lock acquire, and "
            "scratch-file open must reach a release/close on every "
            "exit path, including exceptions"
        )
    }

    def check_project(
        self, modules: Sequence[SourceModule], config: LintConfig
    ) -> Iterable[Finding]:
        analysis = analyze_project(modules)
        custodial = _custodial_names(config)
        for qual in sorted(analysis.functions):
            finfo = analysis.functions[qual]
            if not in_scope(finfo.module, config.concurrency_prefixes):
                continue
            yield from _check_function(finfo, qual, config, custodial)


def _custodial_names(config: LintConfig) -> Set[str]:
    """Every configured acquire/release/transition name: passing a
    resource to one of these is custody management, not an escape."""
    names: Set[str] = set()
    for mapping in (
        config.resource_acquires,
        config.resource_factories,
        config.resource_transitions,
    ):
        for key, releases in mapping.items():
            names.add(key)
            names.update(releases)
    return names


def _check_function(
    finfo: FunctionInfo,
    qual: str,
    config: LintConfig,
    custodial: Set[str],
) -> Iterable[Finding]:
    resources = _find_resources(finfo.node, config)
    if not resources:
        return
    live = [
        r
        for r in resources
        if r.recv is not None or not _escapes(finfo.node, r, custodial)
    ]
    if not live:
        return
    cfg = build_cfg(finfo.node)
    nodes_by_stmt: Dict[int, List[int]] = {}
    for node, stmt in cfg.stmts.items():
        if stmt is not None:
            nodes_by_stmt.setdefault(id(stmt), []).append(node)
    for res in live:
        leak = _leak_paths(cfg, nodes_by_stmt.get(id(res.stmt), []), res)
        if leak:
            yield finding(
                finfo.module,
                RULE,
                res.stmt,
                "%s from %s may exit %s without %s in %s"
                % (
                    res.var,
                    res.desc,
                    leak,
                    "/".join(res.releases),
                    qual,
                ),
            )


# -- resource discovery ----------------------------------------------------


def _find_resources(
    func: ast.AST, config: LintConfig
) -> List[_Resource]:
    found: List[_Resource] = []
    for stmt in _walk_stmts(func):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            var = stmt.targets[0].id
            call = stmt.value
            if isinstance(call.func, ast.Attribute):
                attr = call.func.attr
                if attr in config.resource_acquires:
                    found.append(
                        _Resource(
                            stmt,
                            var,
                            "%s()" % attr,
                            tuple(config.resource_acquires[attr]),
                        )
                    )
                    continue
            callee = dotted_name(call.func) or ""
            factory = callee.split(".")[-1]
            if factory in config.resource_factories:
                found.append(
                    _Resource(
                        stmt,
                        var,
                        "%s()" % factory,
                        tuple(config.resource_factories[factory]),
                    )
                )
        elif isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Call
        ):
            call = stmt.value
            if not isinstance(call.func, ast.Attribute):
                continue
            attr = call.func.attr
            if (
                attr in config.resource_transitions
                and call.args
                and isinstance(call.args[0], ast.Name)
            ):
                found.append(
                    _Resource(
                        stmt,
                        call.args[0].id,
                        "%s()" % attr,
                        tuple(config.resource_transitions[attr]),
                    )
                )
            elif attr in _LOCK_ACQUIRES:
                recv = dotted_name(call.func.value)
                if recv:
                    found.append(
                        _Resource(
                            stmt,
                            recv,
                            "%s.%s()" % (recv, attr),
                            _LOCK_ACQUIRES[attr],
                            recv=recv,
                        )
                    )
    return found


#: Explicit statement-form lock acquisition -> the calls that undo it.
_LOCK_ACQUIRES: Dict[str, Tuple[str, ...]] = {
    "acquire": ("release",),
    "acquire_read": ("release_read",),
    "acquire_write": ("release_write",),
}


def _walk_stmts(func: ast.AST) -> Iterable[ast.stmt]:
    """Statements of this function only -- nested defs/lambdas run in
    their own frame and get their own FunctionInfo (or none)."""
    stack: List[ast.AST] = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.stmt):
            yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                stack.append(child)
            elif isinstance(child, ast.withitem):
                stack.append(child)
    return


# -- escape analysis -------------------------------------------------------


def _escapes(
    func: ast.AST, res: _Resource, custodial: Set[str]
) -> bool:
    parents: Dict[int, ast.AST] = {}
    for parent in ast.walk(func):
        for child in ast.iter_child_nodes(parent):
            parents[id(child)] = parent
    acquire_target = (
        res.stmt.targets[0]
        if isinstance(res.stmt, ast.Assign)
        else None
    )
    for node in ast.walk(func):
        if not (isinstance(node, ast.Name) and node.id == res.var):
            continue
        if isinstance(node.ctx, ast.Store):
            if node is acquire_target:
                continue
            parent = parents.get(id(node))
            if _is_custodial_rebind(parent, custodial) or _binds_none(parent):
                continue
            return True  # rebound: alias tracking lost
        if not isinstance(node.ctx, ast.Load):
            continue  # Del
        parent = parents.get(id(node))
        if parent is None:
            return True
        if isinstance(parent, ast.Attribute):
            continue  # v.attr / v.method(...): access, not transfer
        call_parent = parent
        if isinstance(parent, ast.keyword):
            call_parent = parents.get(id(parent))
        if isinstance(call_parent, ast.Call):
            fname = _call_attr_or_name(call_parent)
            if fname in custodial or fname in res.releases:
                continue
            return True  # handed to an unknown callee
        if isinstance(parent, (ast.Compare, ast.BoolOp, ast.UnaryOp)):
            continue  # truthiness / identity tests
        if isinstance(parent, (ast.If, ast.While, ast.Assert)):
            continue  # bare `if v:` test position
        return True  # returned, yielded, stored, collected, ...
    return False


def _is_custodial_rebind(
    parent: Optional[ast.AST], custodial: Set[str]
) -> bool:
    """``h = gov.admit(...)`` re-binding the same name is a fresh
    resource (tracked separately), not an escape of this one."""
    if not isinstance(parent, ast.Assign):
        return False
    if not isinstance(parent.value, ast.Call):
        return False
    return _call_attr_or_name(parent.value) in custodial


def _binds_none(parent: Optional[ast.AST]) -> bool:
    """``v = None`` or ``v: T = None``: the name holds nothing to hand
    on, so the store is no escape (a pre-binding before the acquire)."""
    return (
        isinstance(parent, (ast.Assign, ast.AnnAssign))
        and isinstance(parent.value, ast.Constant)
        and parent.value.value is None
    )


def _call_attr_or_name(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return ""


# -- all-paths reachability ------------------------------------------------


def _leak_paths(
    cfg: CFG, acquire_nodes: List[int], res: _Resource
) -> str:
    """BFS from the acquire's normal successors; '' if every path hits
    a release, else which exits leak ('a fall-through path', 'an
    exception path', or both)."""
    start: Set[int] = set()
    for node in acquire_nodes:
        start |= cfg.norm.get(node, set())
    seen: Set[int] = set()
    work = list(start)
    hit_exit = hit_exc = False
    while work:
        node = work.pop()
        if node in seen:
            continue
        seen.add(node)
        if node == EXIT:
            hit_exit = True
            continue
        if node == EXC_EXIT:
            hit_exc = True
            continue
        if _releasing(cfg.stmts.get(node), res):
            continue
        work.extend(cfg.successors(node))
    if hit_exit and hit_exc:
        return "a fall-through and an exception path"
    if hit_exit:
        return "a fall-through path"
    if hit_exc:
        return "an exception path"
    return ""


def _releasing(stmt: Optional[ast.stmt], res: _Resource) -> bool:
    if stmt is None:
        return False
    for expr in _headline_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call) and _is_release_call(node, res):
                return True
    return False


def _headline_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """The expressions a CFG node actually evaluates itself (compound
    statements' bodies are separate nodes)."""
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    return [stmt]


def _is_release_call(call: ast.Call, res: _Resource) -> bool:
    if not isinstance(call.func, ast.Attribute):
        return False
    if call.func.attr not in res.releases:
        return False
    if res.recv is not None:
        return dotted_name(call.func.value) == res.recv
    recv = call.func.value
    if isinstance(recv, ast.Name) and recv.id == res.var:
        return True  # v.close()
    for arg in call.args:
        if isinstance(arg, ast.Name) and arg.id == res.var:
            return True  # gov.release(v)
    for kw in call.keywords:
        if isinstance(kw.value, ast.Name) and kw.value.id == res.var:
            return True
    return False


__all__ = ["ResourceLifecycleChecker", "RULE"]

"""Interprocedural analysis core for ``repro.lint``.

The PR-5 checkers analyze one function at a time; the concurrency
invariants that PRs 6-9 added by hand (admission parking, sharded
counters, the catalog read-write lock, join scratch files) are
*interprocedural*: whether a statement blocks while holding a lock
depends on what its callees do, and whether a write is guarded depends
on the context every caller establishes.  This module builds, once per
lint run:

* a **project index** -- every class, its lock declarations
  (``threading.Lock``/``RLock``/``Condition``/``tracked_lock``, and
  :class:`~repro.core.rwlock.ReadWriteLock` with its read/write sides),
  every function and method, and a light attribute-type environment
  inferred from annotations and constructor calls;
* a **call graph** with conservative resolution: ``self.m(...)``
  resolves within the class first, ``obj.m(...)`` resolves to every
  class defining ``m`` (narrowed by the type environment when the
  receiver's type is known), and bare ``f(...)`` resolves to
  module-level functions named ``f``;
* a **held-lock-context dataflow**: each function is summarised with
  the set of :class:`LockRef` held at every call site, write, and
  blocking operation (``with`` blocks, rwlock ``read_locked()`` /
  ``write_locked()`` context managers, and explicit
  ``acquire``/``release`` statement pairs), and entry contexts are
  propagated around the call graph to fixpoint -- ``may_entry`` (union
  over call sites, for the lock graph the lock-order rule checks and
  the runtime diff compares against) and
  ``must_entry`` (intersection, for guarded-write reasoning);
* a per-function **CFG with exception edges** (``try``/``except``/
  ``finally`` with duplicated finally regions, loops, ``with``) used by
  the resource-lifecycle all-paths check.

Entry-point model: a function with no in-project callers is an entry
point (public API, thread target, test surface) and starts with an
empty held-lock context.  Everything here over-approximates in the
direction that produces *more* findings -- the right direction for a
gate whose reports are triaged into fixes or justified suppressions
(docs/LINTING.md section "Interprocedural analysis").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.engine import SourceModule


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


MUTEX = "mutex"
RWLOCK = "rw"

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "Lock",
    "RLock",
    "tracked_lock",
}
_CONDITION_FACTORIES = {"threading.Condition", "Condition"}
_RW_FACTORIES = {"ReadWriteLock"}

#: Socket / descriptor operations that block the calling thread.
_SOCKET_OPS = {"recv", "recv_into", "sendall", "accept", "connect", "makefile"}
#: Chaos seams: schedulable fault points that may crash/cancel mid-call;
#: firing one while holding a hot lock turns an injected fault into a
#: convoy (every sweep schedule serialises behind the holder).
_CHAOS_SEAMS = {"_chaos_point", "point"}
#: Receiver-name hints that make a ``.join()`` a thread join, not
#: ``str.join`` (conservative: only flag joins on thread-like fields).
_THREADLIKE_HINTS = ("thread", "flusher", "worker", "proc", "pool")

#: Method names shared with builtin containers/strings/files.  An
#: untyped ``x.append(...)`` is overwhelmingly a list append, not
#: ``LogManager.append`` -- resolving it by name would smear that
#: class's blockers over every container mutation in the project, so
#: these only resolve through a *typed* receiver.
_AMBIGUOUS_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "copy",
        "count",
        "decode",
        "discard",
        "encode",
        "extend",
        "flush",
        "format",
        "get",
        "index",
        "insert",
        "items",
        "join",
        "keys",
        "pop",
        "popitem",
        "popleft",
        "read",
        "readline",
        "readlines",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "split",
        "splitlines",
        "startswith",
        "strip",
        "update",
        "values",
        "write",
        "writelines",
    }
)


@dataclass(frozen=True)
class LockRef:
    """One lock (or one side of a read-write lock) as ``Class.attr``."""

    cls: str
    attr: str
    side: str = ""  # "" = mutex; "read"/"write" = rwlock sides

    @property
    def base(self) -> str:
        return "%s.%s" % (self.cls, self.attr)

    def canonical(self) -> str:
        return self.base + ("[%s]" % self.side if self.side else "")


@dataclass(frozen=True)
class Blocker:
    """One reason a function may block, for transitive propagation.

    ``exempt`` lists lock bases a condition wait *releases* while
    blocked (``Condition(lock).wait()`` gives ``lock`` back), so holding
    only those locks at the call site is not a finding.
    """

    label: str
    exempt: Tuple[str, ...] = ()


@dataclass
class CallSite:
    node: ast.Call
    name: str
    kind: str  # "self" | "attr" | "bare"
    recv_type: Optional[str]
    held: FrozenSet[LockRef]
    candidates: Tuple[str, ...] = ()


@dataclass
class WriteSite:
    """A mutation of ``self.<attr>`` (assign, augassign, subscript
    store, or a curated mutator-method call)."""

    node: ast.AST
    attr: str
    held: FrozenSet[LockRef]


@dataclass
class AcquireSite:
    node: ast.AST
    lock: LockRef
    held: FrozenSet[LockRef]


@dataclass
class ClassInfo:
    module: SourceModule
    node: ast.ClassDef
    #: attr -> canonical attr (Condition(self._x) aliases _x).
    locks: Dict[str, str] = field(default_factory=dict)
    #: canonical attr -> MUTEX | RWLOCK.
    kinds: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, ast.AST] = field(default_factory=dict)
    #: instance attr -> inferred class name (annotations/constructors).
    attr_types: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name

    def lock_ref(self, attr: str, side: str = "") -> LockRef:
        return LockRef(self.name, self.locks[attr], side)


@dataclass
class FunctionInfo:
    qualname: str
    module: SourceModule
    cls: Optional[ClassInfo]
    node: ast.AST


@dataclass
class FuncSummary:
    info: FunctionInfo
    calls: List[CallSite] = field(default_factory=list)
    #: (node, blocker, locally-held) for ops that block *here*.
    direct_blockers: List[Tuple[ast.AST, Blocker, FrozenSet[LockRef]]] = field(
        default_factory=list
    )
    writes: List[WriteSite] = field(default_factory=list)
    acquires: List[AcquireSite] = field(default_factory=list)
    #: Transitive closure: every way this function may block.
    blockers: Set[Blocker] = field(default_factory=set)


class ProjectAnalysis:
    """The fully propagated project model handed to the checkers."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules = list(modules)
        self.classes: List[ClassInfo] = []
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.methods_by_name: Dict[str, List[str]] = {}
        self.module_funcs_by_name: Dict[str, List[str]] = {}
        #: lock attr name -> [(ClassInfo, canonical attr)] for the
        #: name-based fallback when a receiver's type is unknown.
        self.lock_attr_owners: Dict[str, List[Tuple[ClassInfo, str]]] = {}
        self.summaries: Dict[str, FuncSummary] = {}
        self.may_entry: Dict[str, FrozenSet[LockRef]] = {}
        self.must_entry: Dict[str, FrozenSet[LockRef]] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        for module in self.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    info = _collect_class(module, node)
                    self.classes.append(info)
                    self.classes_by_name.setdefault(info.name, []).append(info)
        for info in self.classes:
            for attr, canonical in info.locks.items():
                self.lock_attr_owners.setdefault(attr, []).append(
                    (info, canonical)
                )
        for module in self.modules:
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = "%s.%s" % (module.module, stmt.name)
                    self.functions[qual] = FunctionInfo(
                        qualname=qual, module=module, cls=None, node=stmt
                    )
                    self.module_funcs_by_name.setdefault(
                        stmt.name, []
                    ).append(qual)
        for info in self.classes:
            for name, func in info.methods.items():
                qual = "%s.%s.%s" % (info.module.module, info.name, name)
                self.functions[qual] = FunctionInfo(
                    qualname=qual, module=info.module, cls=info, node=func
                )
                self.methods_by_name.setdefault(name, []).append(qual)
        for qual, finfo in self.functions.items():
            self.summaries[qual] = _summarise(finfo, self)
        self._resolve_calls()
        self._propagate_blockers()
        self._propagate_entry_contexts()

    def _resolve_calls(self) -> None:
        for summary in self.summaries.values():
            for site in summary.calls:
                site.candidates = tuple(self._candidates(summary.info, site))

    def _candidates(
        self, caller: FunctionInfo, site: CallSite
    ) -> List[str]:
        if site.kind == "self" and caller.cls is not None:
            if site.name in caller.cls.methods:
                return [
                    "%s.%s.%s"
                    % (caller.cls.module.module, caller.cls.name, site.name)
                ]
            # Inherited / duck-typed: fall through to by-name.
        if site.kind in ("self", "attr"):
            if site.recv_type is not None:
                narrowed = [
                    "%s.%s.%s" % (ci.module.module, ci.name, site.name)
                    for ci in self.classes_by_name.get(site.recv_type, [])
                    if site.name in ci.methods
                ]
                if narrowed:
                    return narrowed
            if site.name in _AMBIGUOUS_METHODS:
                return []  # untyped builtin-container name: don't smear
            return self.methods_by_name.get(site.name, [])
        # Bare name: same-module function first, else any module-level
        # function with that name (cross-module helpers).
        same = "%s.%s" % (caller.module.module, site.name)
        if same in self.functions:
            return [same]
        return self.module_funcs_by_name.get(site.name, [])

    def _propagate_blockers(self) -> None:
        for summary in self.summaries.values():
            summary.blockers = {b for _, b, _ in summary.direct_blockers}
        changed = True
        while changed:
            changed = False
            for summary in self.summaries.values():
                for site in summary.calls:
                    for callee in site.candidates:
                        extra = (
                            self.summaries[callee].blockers
                            - summary.blockers
                        )
                        if extra:
                            summary.blockers |= extra
                            changed = True

    def _propagate_entry_contexts(self) -> None:
        # Collect call sites per callee.
        sites: Dict[str, List[Tuple[str, FrozenSet[LockRef]]]] = {}
        for qual, summary in self.summaries.items():
            for site in summary.calls:
                for callee in site.candidates:
                    sites.setdefault(callee, []).append((qual, site.held))
        # may_entry: union over call sites (monotone increasing).
        may: Dict[str, FrozenSet[LockRef]] = {
            q: frozenset() for q in self.functions
        }
        changed = True
        while changed:
            changed = False
            for qual in self.functions:
                merged: Set[LockRef] = set(may[qual])
                for caller, held in sites.get(qual, ()):
                    merged |= held | may[caller]
                if len(merged) != len(may[qual]):
                    may[qual] = frozenset(merged)
                    changed = True
        self.may_entry = may
        # must_entry: intersection over call sites, TOP-initialised;
        # entry points (no in-project callers) get the empty context.
        TOP = None
        must: Dict[str, Optional[FrozenSet[LockRef]]] = {
            q: (TOP if sites.get(q) else frozenset())
            for q in self.functions
        }
        changed = True
        while changed:
            changed = False
            for qual in self.functions:
                call_sites = sites.get(qual)
                if not call_sites:
                    continue
                acc: Optional[FrozenSet[LockRef]] = TOP
                for caller, held in call_sites:
                    caller_ctx = must.get(caller)
                    if caller_ctx is TOP:
                        continue  # unknown caller context: identity for "and"
                    ctx = held | caller_ctx
                    acc = ctx if acc is TOP else (acc & ctx)
                if acc is not TOP and acc != must[qual]:
                    must[qual] = acc
                    changed = True
        self.must_entry = {
            q: (ctx if ctx is not TOP else frozenset())
            for q, ctx in must.items()
        }

    # -- queries -----------------------------------------------------------

    def summary(self, qualname: str) -> FuncSummary:
        return self.summaries[qualname]

    def lock_edges(self) -> Set[Tuple[str, str]]:
        """Canonical ``(held, acquired)`` edges over every may-path.

        This is the graph the lock-order rule checks for cycles, and the
        static half of the runtime diff: if a thread ever acquires lock
        B while holding lock A at runtime, the pair must appear here
        (``Class.attr`` base names, rwlock sides folded into their base
        so the runtime-observed internal mutex matches).
        """
        return set(self.lock_edge_sites())

    def lock_edge_sites(
        self,
    ) -> Dict[Tuple[str, str], Tuple[SourceModule, ast.AST]]:
        """Each :meth:`lock_edges` edge mapped to its first acquisition
        site: the module and node that take the second lock (functions
        in definition order, module-level ones first)."""
        sites: Dict[Tuple[str, str], Tuple[SourceModule, ast.AST]] = {}
        for qual, summary in self.summaries.items():
            entry = self.may_entry.get(qual, frozenset())
            module = summary.info.module
            for acq in summary.acquires:
                for held in acq.held | entry:
                    if held.base != acq.lock.base:
                        sites.setdefault(
                            (held.base, acq.lock.base), (module, acq.node)
                        )
        return sites


# -- class & type collection ----------------------------------------------


def _collect_class(module: SourceModule, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(module=module, node=node)
    info.methods = {
        n.name: n
        for n in node.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for func in info.methods.values():
        _collect_locks(func, info)
    for func in info.methods.values():
        _collect_attr_types(func, info)
    return info


def _collect_locks(func: ast.AST, info: ClassInfo) -> None:
    for stmt in ast.walk(func):
        if not isinstance(stmt, ast.Assign):
            continue
        if not isinstance(stmt.value, ast.Call):
            continue
        callee = dotted_name(stmt.value.func) or ""
        factory = callee.split(".")[-1] if callee else ""
        for target in stmt.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if callee in _LOCK_FACTORIES:
                info.locks[target.attr] = target.attr
                info.kinds[target.attr] = MUTEX
            elif factory in _RW_FACTORIES:
                info.locks[target.attr] = target.attr
                info.kinds[target.attr] = RWLOCK
            elif callee in _CONDITION_FACTORIES:
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
                    info.kinds[target.attr] = MUTEX


def _annotation_class(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")[-1].strip('"')
    name = dotted_name(node)
    if name:
        return name.split(".")[-1]
    return None


def _collect_attr_types(func: ast.AST, info: ClassInfo) -> None:
    params = {}
    args = getattr(func, "args", None)
    if args is not None:
        for arg in list(args.args) + list(args.kwonlyargs):
            cls_name = _annotation_class(arg.annotation)
            if cls_name:
                params[arg.arg] = cls_name
    for stmt in ast.walk(func):
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            inferred: Optional[str] = None
            if isinstance(stmt, ast.AnnAssign):
                inferred = _annotation_class(stmt.annotation)
            if inferred is None and isinstance(value, ast.Call):
                callee = dotted_name(value.func)
                if callee:
                    inferred = callee.split(".")[-1]
            if inferred is None and isinstance(value, ast.Name):
                inferred = params.get(value.id)
            if inferred:
                info.attr_types.setdefault(target.attr, inferred)


# -- per-function summarisation -------------------------------------------


class _TypeEnv:
    """Local variable -> class-name environment for one function."""

    def __init__(
        self, analysis: ProjectAnalysis, finfo: FunctionInfo
    ) -> None:
        self.analysis = analysis
        self.cls = finfo.cls
        self.vars: Dict[str, str] = {}
        args = getattr(finfo.node, "args", None)
        if args is not None:
            for arg in list(args.args) + list(args.kwonlyargs):
                cls_name = _annotation_class(arg.annotation)
                if cls_name and cls_name in analysis.classes_by_name:
                    self.vars[arg.arg] = cls_name
        if self.cls is not None:
            self.vars["self"] = self.cls.name
        for stmt in ast.walk(finfo.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self.expr_type(stmt.value)
                    if inferred:
                        self.vars.setdefault(target.id, inferred)

    def expr_type(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self.vars.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.expr_type(expr.value)
            if base:
                for info in self.analysis.classes_by_name.get(base, []):
                    found = info.attr_types.get(expr.attr)
                    if found:
                        return found
            return None
        if isinstance(expr, ast.Call):
            callee = dotted_name(expr.func)
            if callee:
                short = callee.split(".")[-1]
                if short in self.analysis.classes_by_name:
                    return short
        return None


def _lock_refs(
    expr: ast.AST, env: _TypeEnv, side_hint: str = ""
) -> List[LockRef]:
    """Resolve an expression to the lock(s) it denotes, if any.

    Handles ``self._mu``, ``mgr._mu`` (typed or name-based
    fallback), and ``<rw>.read_locked()`` / ``<rw>.write_locked()``.
    """
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        if expr.func.attr in ("read_locked", "write_locked"):
            side = "read" if expr.func.attr == "read_locked" else "write"
            refs = []
            for ref in _lock_refs(expr.func.value, env):
                refs.append(LockRef(ref.cls, ref.attr, side))
            return refs
        return []
    if not isinstance(expr, ast.Attribute):
        return []
    attr = expr.attr
    recv_type = env.expr_type(expr.value)
    if recv_type:
        for info in env.analysis.classes_by_name.get(recv_type, []):
            if attr in info.locks:
                return [info.lock_ref(attr, side_hint)]
    owners = env.analysis.lock_attr_owners.get(attr, [])
    return [
        LockRef(info.name, canonical, side_hint)
        for info, canonical in owners
    ]


_MUTATOR_DEFAULT = (
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "register",
    "remove",
    "setdefault",
    "update",
)


class _Summariser:
    """One in-order AST pass tracking the held-lock set."""

    def __init__(self, finfo: FunctionInfo, analysis: ProjectAnalysis):
        self.finfo = finfo
        self.analysis = analysis
        self.env = _TypeEnv(analysis, finfo)
        self.summary = FuncSummary(info=finfo)

    def run(self) -> FuncSummary:
        self._block(self.finfo.node.body, frozenset())
        return self.summary

    # -- statement traversal ----------------------------------------------

    def _block(self, stmts: Sequence[ast.stmt], held: FrozenSet[LockRef]):
        running = set(held)
        for stmt in stmts:
            self._stmt(stmt, frozenset(running))
            op = self._explicit_lock_op(stmt)
            if op is not None:
                kind, refs = op
                if kind == "acquire":
                    for ref in refs:
                        self.summary.acquires.append(
                            AcquireSite(stmt, ref, frozenset(running))
                        )
                    running.update(refs)
                else:
                    bases = {r.base for r in refs}
                    running = {
                        r for r in running if r.base not in bases
                    }

    def _stmt(self, stmt: ast.stmt, held: FrozenSet[LockRef]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            extra: List[LockRef] = []
            for item in stmt.items:
                refs = _lock_refs(item.context_expr, self.env)
                extra.extend(refs)
                if not refs:
                    # Non-lock context managers can still contain calls
                    # (e.g. ``with injector.pause():``).
                    self._exprs(item.context_expr, held)
                else:
                    for ref in refs:
                        self.summary.acquires.append(
                            AcquireSite(stmt, ref, held)
                        )
            inner = frozenset(set(held) | set(extra))
            self._block(stmt.body, inner)
        elif isinstance(stmt, ast.If):
            self._exprs(stmt.test, held)
            self._block(stmt.body, held)
            self._block(stmt.orelse, held)
        elif isinstance(stmt, ast.While):
            self._exprs(stmt.test, held)
            self._block(stmt.body, held)
            self._block(stmt.orelse, held)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exprs(stmt.iter, held)
            self._block(stmt.body, held)
            self._block(stmt.orelse, held)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body, held)
            for handler in stmt.handlers:
                self._block(handler.body, held)
            self._block(stmt.orelse, held)
            self._block(stmt.finalbody, held)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs run later, in an unknown context.
            self._block(stmt.body, frozenset())
        elif isinstance(stmt, ast.ClassDef):
            pass
        else:
            self._exprs(stmt, held)
            self._writes(stmt, held)

    def _explicit_lock_op(
        self, stmt: ast.stmt
    ) -> Optional[Tuple[str, List[LockRef]]]:
        if not (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
        ):
            return None
        call = stmt.value
        if not isinstance(call.func, ast.Attribute):
            return None
        op = call.func.attr
        if op in ("acquire", "release"):
            refs = _lock_refs(call.func.value, self.env)
            if refs:
                return ("acquire" if op == "acquire" else "release", refs)
        elif op in ("acquire_read", "acquire_write"):
            side = "read" if op == "acquire_read" else "write"
            refs = _lock_refs(call.func.value, self.env, side_hint=side)
            refs = [
                LockRef(r.cls, r.attr, side)
                for r in refs
                if _is_rw(self.analysis, r)
            ]
            if refs:
                return ("acquire", refs)
        elif op in ("release_read", "release_write"):
            refs = _lock_refs(call.func.value, self.env)
            refs = [r for r in refs if _is_rw(self.analysis, r)]
            if refs:
                return ("release", refs)
        return None

    # -- expression traversal ---------------------------------------------

    def _exprs(self, node: ast.AST, held: FrozenSet[LockRef]) -> None:
        """Record calls/blocking ops in an expression subtree, skipping
        nested function bodies (they run later, context unknown)."""
        for child in _walk_exprs(node):
            if isinstance(child, ast.Call):
                self._call(child, held)

    def _call(self, call: ast.Call, held: FrozenSet[LockRef]) -> None:
        dotted = dotted_name(call.func)
        blocker = self._classify_blocking(call, dotted)
        if blocker is not None:
            self.summary.direct_blockers.append((call, blocker, held))
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("read_locked", "write_locked") and _lock_refs(
                call, self.env
            ):
                return  # lock acquisition, not a regular call
            kind = (
                "self"
                if isinstance(func.value, ast.Name)
                and func.value.id == "self"
                else "attr"
            )
            self.summary.calls.append(
                CallSite(
                    node=call,
                    name=func.attr,
                    kind=kind,
                    recv_type=self.env.expr_type(func.value),
                    held=held,
                )
            )
        elif isinstance(func, ast.Name):
            self.summary.calls.append(
                CallSite(
                    node=call,
                    name=func.id,
                    kind="bare",
                    recv_type=None,
                    held=held,
                )
            )

    def _classify_blocking(
        self, call: ast.Call, dotted: Optional[str]
    ) -> Optional[Blocker]:
        where = "%s:%d" % (self.finfo.module.display_path, call.lineno)
        if dotted == "time.sleep":
            return Blocker("time.sleep (%s)" % where)
        if not isinstance(call.func, ast.Attribute):
            return None
        attr = call.func.attr
        if attr in _SOCKET_OPS:
            return Blocker("socket %s (%s)" % (attr, where))
        if attr in _CHAOS_SEAMS:
            return Blocker("chaos seam %s (%s)" % (attr, where))
        if attr in ("wait", "wait_for"):
            refs = _lock_refs(call.func.value, self.env)
            exempt = tuple(sorted({r.base for r in refs}))
            return Blocker("condition wait (%s)" % where, exempt=exempt)
        if attr == "join":
            recv = dotted_name(call.func.value) or ""
            leaf = recv.split(".")[-1].lower()
            if any(hint in leaf for hint in _THREADLIKE_HINTS):
                return Blocker("thread join on %s (%s)" % (recv, where))
        if attr == "shutdown":
            recv = dotted_name(call.func.value) or ""
            leaf = recv.split(".")[-1].lower()
            if any(hint in leaf for hint in _THREADLIKE_HINTS):
                return Blocker("pool shutdown on %s (%s)" % (recv, where))
        return None

    # -- writes ------------------------------------------------------------

    def _writes(self, stmt: ast.stmt, held: FrozenSet[LockRef]) -> None:
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            attr = _self_attr_target(target)
            if attr is not None:
                self.summary.writes.append(WriteSite(stmt, attr, held))
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_DEFAULT
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
            ):
                self.summary.writes.append(
                    WriteSite(stmt, func.value.attr, held)
                )


def _self_attr_target(target: ast.AST) -> Optional[str]:
    """``self.x`` or ``self.x[...]`` as an assignment target -> ``x``."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, (ast.Tuple, ast.List)):
        return None
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _is_rw(analysis: ProjectAnalysis, ref: LockRef) -> bool:
    for info in analysis.classes_by_name.get(ref.cls, []):
        if info.kinds.get(ref.attr) == RWLOCK:
            return True
    return False


def _walk_exprs(node: ast.AST) -> Iterable[ast.AST]:
    """``ast.walk`` that does not descend into nested function bodies or
    lambdas (their calls execute later, under an unknown context)."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                continue
            stack.append(child)


def _summarise(finfo: FunctionInfo, analysis: ProjectAnalysis) -> FuncSummary:
    return _Summariser(finfo, analysis).run()


# -- CFG with exception edges ---------------------------------------------

EXIT = -1
EXC_EXIT = -2


class CFG:
    """Statement-level control-flow graph for one function.

    Every statement node carries a *normal* successor set and an
    *exceptional* successor set (any statement may raise); ``finally``
    regions are duplicated per continuation so a release in a
    ``finally`` covers normal, exceptional, and early-return exits
    alike.  Synthetic nodes (exception dispatch) map to ``None``.
    """

    def __init__(self) -> None:
        self.norm: Dict[int, Set[int]] = {}
        self.exc: Dict[int, Set[int]] = {}
        self.stmts: Dict[int, Optional[ast.stmt]] = {}
        self.entry: int = EXIT
        self._counter = 0

    def new_node(self, stmt: Optional[ast.stmt]) -> int:
        self._counter += 1
        self.stmts[self._counter] = stmt
        self.norm[self._counter] = set()
        self.exc[self._counter] = set()
        return self._counter

    def successors(self, node: int) -> Set[int]:
        return self.norm.get(node, set()) | self.exc.get(node, set())


@dataclass(frozen=True)
class _Ctx:
    nxt: int
    exc: int
    brk: int
    cont: int
    ret: int

    def replace(self, **kw: int) -> "_Ctx":
        data = {
            "nxt": self.nxt,
            "exc": self.exc,
            "brk": self.brk,
            "cont": self.cont,
            "ret": self.ret,
        }
        data.update(kw)
        return _Ctx(**data)


def build_cfg(func: ast.AST) -> CFG:
    cfg = CFG()
    ctx = _Ctx(nxt=EXIT, exc=EXC_EXIT, brk=EXIT, cont=EXIT, ret=EXIT)
    cfg.entry = _build_block(cfg, list(func.body), ctx)
    return cfg


def _build_block(cfg: CFG, stmts: List[ast.stmt], ctx: _Ctx) -> int:
    entry = ctx.nxt
    for stmt in reversed(stmts):
        entry = _build_stmt(cfg, stmt, ctx.replace(nxt=entry))
    return entry


def _build_stmt(cfg: CFG, stmt: ast.stmt, ctx: _Ctx) -> int:
    if isinstance(stmt, ast.If):
        node = cfg.new_node(stmt)
        body = _build_block(cfg, stmt.body, ctx)
        orelse = _build_block(cfg, stmt.orelse, ctx) if stmt.orelse else ctx.nxt
        cfg.norm[node] |= {body, orelse}
        cfg.exc[node].add(ctx.exc)
        return node
    if isinstance(stmt, ast.While):
        node = cfg.new_node(stmt)
        body = _build_block(
            cfg, stmt.body, ctx.replace(nxt=node, brk=ctx.nxt, cont=node)
        )
        cfg.norm[node] |= {body, ctx.nxt}
        cfg.exc[node].add(ctx.exc)
        return node
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        node = cfg.new_node(stmt)
        body = _build_block(
            cfg, stmt.body, ctx.replace(nxt=node, brk=ctx.nxt, cont=node)
        )
        cfg.norm[node] |= {body, ctx.nxt}
        cfg.exc[node].add(ctx.exc)
        return node
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        node = cfg.new_node(stmt)
        body = _build_block(cfg, stmt.body, ctx)
        cfg.norm[node].add(body)
        cfg.exc[node].add(ctx.exc)
        return node
    if isinstance(stmt, ast.Try):
        return _build_try(cfg, stmt, ctx)
    if isinstance(stmt, ast.Return):
        node = cfg.new_node(stmt)
        cfg.norm[node].add(ctx.ret)
        cfg.exc[node].add(ctx.exc)
        return node
    if isinstance(stmt, ast.Raise):
        node = cfg.new_node(stmt)
        cfg.exc[node].add(ctx.exc)
        return node
    if isinstance(stmt, ast.Break):
        node = cfg.new_node(stmt)
        cfg.norm[node].add(ctx.brk)
        return node
    if isinstance(stmt, ast.Continue):
        node = cfg.new_node(stmt)
        cfg.norm[node].add(ctx.cont)
        return node
    node = cfg.new_node(stmt)
    cfg.norm[node].add(ctx.nxt)
    cfg.exc[node].add(ctx.exc)
    return node


def _build_try(cfg: CFG, stmt: ast.Try, ctx: _Ctx) -> int:
    if stmt.finalbody:
        copies: Dict[int, int] = {}

        def through_finally(target: int) -> int:
            if target not in copies:
                copies[target] = _build_block(
                    cfg, stmt.finalbody, ctx.replace(nxt=target)
                )
            return copies[target]

        nxt = through_finally(ctx.nxt)
        exc = through_finally(ctx.exc)
        ret = through_finally(ctx.ret)
        brk = through_finally(ctx.brk)
        cont = through_finally(ctx.cont)
    else:
        nxt, exc, ret, brk, cont = ctx.nxt, ctx.exc, ctx.ret, ctx.brk, ctx.cont
    after = ctx.replace(nxt=nxt, exc=exc, ret=ret, brk=brk, cont=cont)
    handler_entries = [
        _build_block(cfg, handler.body, after) for handler in stmt.handlers
    ]
    if stmt.handlers:
        dispatch = cfg.new_node(None)
        for entry in handler_entries:
            cfg.norm[dispatch].add(entry)
        if not _has_catch_all(stmt):
            cfg.exc[dispatch].add(exc)
        body_exc = dispatch
    else:
        body_exc = exc
    orelse = (
        _build_block(cfg, stmt.orelse, after) if stmt.orelse else nxt
    )
    return _build_block(
        cfg,
        stmt.body,
        after.replace(nxt=orelse, exc=body_exc),
    )


def _has_catch_all(stmt: ast.Try) -> bool:
    for handler in stmt.handlers:
        if handler.type is None:
            return True
        name = dotted_name(handler.type)
        if name in ("BaseException",):
            return True
    return False


# -- memoised entry point --------------------------------------------------

_CACHE: List[Tuple[Tuple[int, ...], ProjectAnalysis]] = []


def analyze_project(modules: Sequence[SourceModule]) -> ProjectAnalysis:
    """Build (or reuse) the project analysis for this module set.

    ``run_lint`` hands the same module list to every checker; the
    analysis is cached on object identity so the five interprocedural
    checkers share one call-graph/dataflow pass.
    """
    key = tuple(id(m) for m in modules)
    for cached_key, analysis in _CACHE:
        if cached_key == key:
            return analysis
    analysis = ProjectAnalysis(modules)
    del _CACHE[:]
    _CACHE.append((key, analysis))
    return analysis


__all__ = [
    "AcquireSite",
    "Blocker",
    "CFG",
    "CallSite",
    "ClassInfo",
    "EXC_EXIT",
    "EXIT",
    "FuncSummary",
    "FunctionInfo",
    "LockRef",
    "MUTEX",
    "ProjectAnalysis",
    "RWLOCK",
    "WriteSite",
    "analyze_project",
    "build_cfg",
    "dotted_name",
]

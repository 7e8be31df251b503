"""Unlocked-shared-write checker.

A class that guards an instance attribute with its own lock in one
method but writes the same attribute bare in another has a data race:
server worker threads and the group-commit flusher all enter these
objects concurrently (docs/SERVER.md, docs/ROBUSTNESS.md).  The guard
discipline is *inferred*, not annotated: an attribute written at least once while a lock of the same
class is held (mutex or rwlock write side -- the read side guards
nothing) is considered lock-protected, and every other write to it
must also hold such a lock, either locally or in the must-entry
context every caller establishes (``_flush_locked``-style helpers that
are only ever called under the lock stay clean).

Per-thread structures are modeled as safe: attributes initialised from
``threading.local`` or ``ShardedOperationCounters``-style factories
(``LintConfig.threadsafe_factories``) are exempt, as are ``__init__``
writes (the object is not yet shared) and the lock attributes
themselves.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.lint.engine import (
    Checker,
    Finding,
    LintConfig,
    SourceModule,
)
from repro.lint.checkers.common import dotted_name, finding, in_scope
from repro.lint.ipa import (
    ClassInfo,
    LockRef,
    ProjectAnalysis,
    WriteSite,
    analyze_project,
)

RULE = "unlocked-shared-write"

#: Methods whose writes never race: construction and teardown run
#: before/after the object is shared.
_UNSHARED_METHODS = {"__init__", "__new__", "__del__", "__post_init__"}


class UnlockedSharedWriteChecker(Checker):
    rules = {
        RULE: (
            "an instance attribute written under the class's lock in "
            "one method must not be written bare in another"
        )
    }

    def check_project(
        self, modules: Sequence[SourceModule], config: LintConfig
    ) -> Iterable[Finding]:
        analysis = analyze_project(modules)
        for info in analysis.classes:
            if not info.locks:
                continue
            if not in_scope(info.module, config.concurrency_prefixes):
                continue
            yield from self._check_class(info, analysis, config)

    def _check_class(
        self,
        info: ClassInfo,
        analysis: ProjectAnalysis,
        config: LintConfig,
    ) -> Iterable[Finding]:
        threadsafe = _threadsafe_attrs(info, config)
        guarded: Set[str] = set()
        bare: List[Tuple[str, WriteSite]] = []
        for mname in info.methods:
            if mname in _UNSHARED_METHODS:
                continue
            qual = "%s.%s.%s" % (info.module.module, info.name, mname)
            summary = analysis.summaries.get(qual)
            if summary is None or summary.info.cls is not info:
                continue  # same-name class elsewhere shadowed this qual
            entry = analysis.must_entry.get(qual, frozenset())
            for write in summary.writes:
                total = write.held | entry
                if _own_guards(total, info):
                    guarded.add(write.attr)
                else:
                    bare.append((qual, write))
        for qual, write in bare:
            if write.attr not in guarded:
                continue  # never lock-protected anywhere: not shared state
            if write.attr in threadsafe or write.attr in info.locks:
                continue
            yield finding(
                info.module,
                RULE,
                write.node,
                "%s.%s is written under %s.%s elsewhere but this write "
                "holds no %s lock (%s)"
                % (
                    info.name,
                    write.attr,
                    info.name,
                    _a_guard_name(info),
                    info.name,
                    qual,
                ),
            )


def _own_guards(held: Iterable[LockRef], info: ClassInfo) -> List[LockRef]:
    """Locks in ``held`` that actually guard ``info``'s state (the
    rwlock read side excludes writers but not other readers, so it
    does not count)."""
    return [
        lock
        for lock in held
        if lock.cls == info.name and lock.side != "read"
    ]


def _a_guard_name(info: ClassInfo) -> str:
    canonical = sorted(set(info.locks.values()))
    return canonical[0] if canonical else "<lock>"


def _threadsafe_attrs(info: ClassInfo, config: LintConfig) -> Set[str]:
    safe: Set[str] = set()
    factories = set(config.threadsafe_factories)
    for func in info.methods.values():
        for stmt in ast.walk(func):
            if not (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Call)
            ):
                continue
            callee = dotted_name(stmt.value.func) or ""
            if callee not in factories and callee.split(".")[-1] not in factories:
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    safe.add(target.attr)
    return safe


__all__ = ["UnlockedSharedWriteChecker", "RULE"]

"""Interprocedural blocking-under-lock checker.

Holding a hot lock across a blocking operation turns that lock into a
convoy: every thread that needs it queues behind a sleeper.  The §5
concurrency argument (lock waits are cheap because critical sections
are short) only holds if nothing blocks inside one.  This rule walks
the project call graph with the held-lock context from
:mod:`repro.lint.ipa` and flags every path that reaches a blocking
operation -- ``time.sleep``, socket I/O, condition waits, thread joins,
governor admission/grant waits (transitively, through their condition
waits), and chaos-seam calls -- while any lock is held.

Two refinements keep the rule honest rather than noisy:

* ``Condition(lock).wait()`` *releases* the wrapped lock while blocked,
  so holding only that lock at the wait is the intended pattern
  (``Governor.admit`` waiting on ``_capacity`` under ``_lock``); the
  blocker carries the exempted lock and the context is reduced by it.
* Holding only the **read side** of a ReadWriteLock demotes the finding
  to a warning: readers share, so a blocked reader delays writers but
  never other readers -- the catalog read lock around
  ``MainMemoryDatabase.execute`` admitting into the governor is a
  deliberate design decision (docs/ROBUSTNESS.md), not a convoy.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.lint.engine import (
    ERROR,
    WARNING,
    Checker,
    Finding,
    LintConfig,
    SourceModule,
)
from repro.lint.checkers.common import finding, in_scope
from repro.lint.ipa import Blocker, LockRef, analyze_project

RULE = "blocking-under-lock"


class BlockingUnderLockChecker(Checker):
    rules = {
        RULE: (
            "no blocking operation (sleep, socket I/O, condition wait, "
            "admission wait, chaos seam) may be reachable while a lock "
            "is held; read-side-only contexts warn"
        )
    }

    def check_project(
        self, modules: Sequence[SourceModule], config: LintConfig
    ) -> Iterable[Finding]:
        analysis = analyze_project(modules)
        for qual in sorted(analysis.summaries):
            summary = analysis.summaries[qual]
            module = summary.info.module
            if not in_scope(module, config.concurrency_prefixes):
                continue
            entry = analysis.must_entry.get(qual, frozenset())
            direct_nodes = set()
            for node, blocker, held in summary.direct_blockers:
                direct_nodes.add(id(node))
                result = _judge(held | entry, [blocker])
                if result is not None:
                    effective, blk, severity = result
                    yield finding(
                        module,
                        RULE,
                        node,
                        "%s blocks while holding %s (%s)"
                        % (blk.label, _fmt(effective), qual),
                        severity=severity,
                    )
            for site in summary.calls:
                if id(site.node) in direct_nodes:
                    continue  # already classified as a direct blocker
                total = site.held | entry
                if not total:
                    continue
                blockers: List[Blocker] = []
                for callee in site.candidates:
                    blockers.extend(analysis.summaries[callee].blockers)
                result = _judge(total, blockers)
                if result is not None:
                    effective, blk, severity = result
                    yield finding(
                        module,
                        RULE,
                        site.node,
                        "call to %s() may block while holding %s: %s (%s)"
                        % (site.name, _fmt(effective), blk.label, qual),
                        severity=severity,
                    )


def _judge(
    held: FrozenSet[LockRef], blockers: Iterable[Blocker]
) -> Optional[Tuple[FrozenSet[LockRef], Blocker, str]]:
    """The worst surviving (held-after-exemption, blocker, severity).

    Errors (a mutex or write side is held) outrank warnings (read side
    only); within a class the lexically smallest label wins so the
    finding message -- and therefore its JSON fingerprint -- is
    deterministic.
    """
    best: Optional[Tuple[FrozenSet[LockRef], Blocker, str]] = None
    for blocker in sorted(blockers, key=lambda b: b.label):
        effective = frozenset(
            lock for lock in held if lock.base not in blocker.exempt
        )
        if not effective:
            continue
        severity = (
            WARNING
            if all(lock.side == "read" for lock in effective)
            else ERROR
        )
        if best is None or (severity == ERROR and best[2] == WARNING):
            best = (effective, blocker, severity)
            if severity == ERROR:
                break
    return best


def _fmt(locks: FrozenSet[LockRef]) -> str:
    return ", ".join(sorted(lock.canonical() for lock in locks))


__all__ = ["BlockingUnderLockChecker", "RULE"]

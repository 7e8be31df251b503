"""Cooperative cancellation -- the token every batch hot loop checks.

A :class:`CancellationToken` carries a cancel flag and an optional
monotonic-clock deadline.  Operators call :meth:`CancellationToken.check`
once per page of work (selection, projection, aggregation, and all five
joins), so a cancel or an expired deadline aborts within one page -- the
query raises a typed error and never emits a partial result.

``check()`` is deliberately tiny: on the happy path it is one attribute
test plus (only when a deadline is armed) one clock read, which is what
keeps the governor's happy path cheap: the ledger's
``governor.admit_us_per_stmt`` and the operators' self time watch it
(benchmarks/ledger).

The optional ``on_check`` hook is the chaos seam: the fault injector
installs a callback there, turning every hot-loop checkpoint into a
schedulable point where a seeded plan can cancel the query or revoke its
memory grant deterministically (see
:meth:`repro.chaos.injector.FaultInjector.executor_page`).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import QueryCancelled, QueryTimeout


class CancellationToken:
    """Per-query cancel flag + deadline, checked cooperatively."""

    __slots__ = ("qid", "cancelled", "deadline", "checks", "on_check", "_clock")

    def __init__(
        self,
        qid: Optional[int] = None,
        timeout: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.qid = qid
        self.cancelled = False
        self._clock = clock
        #: Monotonic-clock instant after which check() raises QueryTimeout.
        self.deadline = None if timeout is None else clock() + timeout
        #: How many checkpoints this query has passed (one per page of
        #: work); doubles as the deterministic index for chaos plans.
        self.checks = 0
        #: Chaos seam -- called before the cancel/deadline tests.
        self.on_check: Optional[Callable[["CancellationToken"], None]] = None

    def cancel(self) -> None:
        """Request cancellation; takes effect at the next checkpoint."""
        self.cancelled = True

    def check(self) -> None:
        """Raise :class:`QueryCancelled`/:class:`QueryTimeout` if due."""
        self.checks += 1
        if self.on_check is not None:
            self.on_check(self)
        if self.cancelled:
            raise QueryCancelled(
                "query %s cancelled after %d checkpoints"
                % (self.qid, self.checks),
                qid=self.qid,
            )
        if self.deadline is not None and self._clock() > self.deadline:
            raise QueryTimeout(
                "query %s exceeded its deadline after %d checkpoints"
                % (self.qid, self.checks),
                qid=self.qid,
            )

    def expired(self) -> bool:
        """Whether the token would raise, without raising."""
        if self.cancelled:
            return True
        return self.deadline is not None and self._clock() > self.deadline

    def __repr__(self) -> str:
        return "CancellationToken(qid=%s, cancelled=%s, checks=%d)" % (
            self.qid,
            self.cancelled,
            self.checks,
        )


__all__ = ["CancellationToken"]

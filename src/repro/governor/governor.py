"""Admission control and the query registry.

The governor guards two budgets -- concurrent queries and total granted
memory pages -- behind a bounded wait queue:

* A request that fits both budgets is admitted immediately and receives a
  :class:`QueryHandle` (qid + :class:`~repro.governor.guard.QueryGuard`).
* A request that does not fit waits on the queue for capacity, up to the
  admission timeout; a full queue rejects immediately.  Both failure
  modes are **typed**: :class:`~repro.errors.AdmissionRejected` (with a
  machine-readable ``reason``) and :class:`~repro.errors.QueryTimeout`.
* Before queueing a memory-blocked request, the governor applies
  **memory pressure** to its registered shrinkable consumers (the plan
  reuse cache), evicting LRU entries -- degrade the caches before
  degrading the queries.
* An admitted statement that blocks in the Section 5 lock table can
  **park** its slot (:meth:`Governor.begin_wait` /
  :meth:`Governor.end_wait`): admission capacity measures statements
  *running*, not statements *waiting*, so past saturation the gate keeps
  serving runnable work instead of filling with lock-waiters.
* Under overload the optional **shed valve**
  (:attr:`GovernorConfig.shed_threshold`) fast-rejects new requests with
  ``AdmissionRejected(reason="overload")`` once the wait queue is deep
  enough -- a typed "try again later" in microseconds beats a 10-second
  admission timeout.

Admission is thread-safe: the facade's ``execute`` runs on the caller's
thread, so concurrent callers genuinely contend here.  In the common
single-threaded use the fast path is one lock acquisition per query.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.locks import tracked_lock
from repro.errors import (
    AdmissionRejected,
    ConfigurationError,
    QueryTimeout,
    StateError,
)
from repro.governor.cancellation import CancellationToken
from repro.governor.grant import MemoryGrant
from repro.governor.guard import QueryGuard


@dataclass
class GovernorConfig:
    """The governor's budgets and timeouts."""

    #: Queries running at once; further requests queue.
    max_concurrent: int = 8
    #: Total pages grantable across running queries (None: unlimited --
    #: the facade defaults it to ``memory_pages * max_concurrent`` so the
    #: single-query happy path is never throttled).
    max_memory_pages: Optional[int] = None
    #: Requests allowed to wait for capacity; more reject immediately.
    max_queue: int = 16
    #: Seconds a queued request may wait before raising QueryTimeout.
    admission_timeout: float = 10.0
    #: Overload shed valve: when this many requests are already waiting,
    #: a request that cannot be admitted immediately is fast-rejected
    #: (``AdmissionRejected(reason="overload")``) instead of queueing --
    #: degrade by answering "no" quickly, never by queueing unboundedly.
    #: ``None`` disables shedding (only the ``max_queue`` bound applies).
    #: Parked-slot reacquisition (:meth:`Governor.end_wait`) is exempt:
    #: those queries were already admitted once.
    shed_threshold: Optional[int] = None
    #: Default per-query execution deadline (None = no deadline).
    default_timeout: Optional[float] = None
    #: Fraction of a shrinkable consumer's entries kept under pressure.
    pressure_keep: float = 0.5

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ConfigurationError(
                "max_concurrent must be >= 1, got %r" % (self.max_concurrent,)
            )
        if self.max_queue < 0:
            raise ConfigurationError(
                "max_queue cannot be negative, got %r" % (self.max_queue,)
            )
        if not 0.0 <= self.pressure_keep <= 1.0:
            raise ConfigurationError(
                "pressure_keep must be in [0, 1], got %r" % (self.pressure_keep,)
            )
        if self.shed_threshold is not None and self.shed_threshold < 0:
            raise ConfigurationError(
                "shed_threshold cannot be negative, got %r"
                % (self.shed_threshold,)
            )


@dataclass
class QueryHandle:
    """One admitted query: its id, guard, and accounting."""

    qid: int
    guard: QueryGuard
    pages: int
    admitted_at: float

    @property
    def token(self) -> CancellationToken:
        return self.guard.token

    @property
    def grant(self) -> Optional[MemoryGrant]:
        return self.guard.grant


class Governor:
    """Admission control and the query registry."""

    def __init__(self, config: Optional[GovernorConfig] = None) -> None:
        self.config = config or GovernorConfig()
        # tracked_lock is the lock-order seam: a plain threading.Lock in
        # production, a recorded TrackedLock under the test suite.
        self._lock = tracked_lock("repro.governor.Governor._lock")
        self._capacity = threading.Condition(self._lock)
        self._qids = itertools.count(1)
        self._active: Dict[int, QueryHandle] = {}
        #: Admitted queries that released their slot for a lock wait
        #: (:meth:`begin_wait`); their pages are returned to the budget
        #: until :meth:`end_wait` (or :meth:`release`) claims them back.
        self._parked: Dict[int, QueryHandle] = {}
        self._pages_in_use = 0
        self._waiting = 0
        self._reacquiring = 0
        #: Consumers with a ``shrink_to(n)`` method and ``__len__`` (the
        #: plan reuse cache) evicted under memory pressure.
        self._shrinkables: List[Any] = []
        self._injector: Optional[Any] = None
        # Session statistics.
        self.admitted = 0
        self.rejected_queue_full = 0
        self.rejected_memory = 0
        self.admission_timeouts = 0
        self.cancelled = 0
        self.peak_concurrent = 0
        self.pressure_evictions = 0
        #: Admission-aware lock waits: slots given back mid-statement,
        #: successful reacquisitions, and shed-valve fast rejections.
        self.slots_released_in_wait = 0
        self.requeues = 0
        self.sheds = 0

    # -- wiring ------------------------------------------------------------------

    def attach_chaos(self, injector: Any) -> "Governor":
        """Route every token checkpoint through the fault injector's
        executor seam, so seeded plans can cancel queries and revoke
        grants at deterministic page boundaries."""
        with self._lock:
            self._injector = injector
        return self

    def register_shrinkable(self, consumer: Any) -> None:
        """Register a cache with ``shrink_to(n)`` for pressure eviction."""
        with self._lock:
            if consumer is not None and consumer not in self._shrinkables:
                self._shrinkables.append(consumer)

    # -- admission ---------------------------------------------------------------

    def _fits(self, pages: int) -> bool:
        if len(self._active) >= self.config.max_concurrent:
            return False
        budget = self.config.max_memory_pages
        return budget is None or self._pages_in_use + pages <= budget

    def admit(
        self,
        pages: int,
        qid: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> QueryHandle:
        """Admit a query needing ``pages``; block (bounded) for capacity.

        Raises :class:`AdmissionRejected` when the request can never fit
        or the wait queue is full, :class:`QueryTimeout` when capacity did
        not free up within the admission timeout.
        """
        cfg = self.config
        with self._capacity:
            if qid is None:
                qid = next(self._qids)
            budget = cfg.max_memory_pages
            if budget is not None and pages > budget:
                self.rejected_memory += 1
                raise AdmissionRejected(
                    "query %d needs %d pages but the governor's total "
                    "budget is %d" % (qid, pages, budget),
                    qid=qid,
                    reason="memory",
                )
            if not self._fits(pages):
                # Shed cache weight before shedding queries.
                self._apply_pressure_locked()
            if not self._fits(pages):
                if (
                    cfg.shed_threshold is not None
                    and self._waiting >= cfg.shed_threshold
                ):
                    # Overload: answer "no" in microseconds rather than
                    # parking the caller behind a queue it will likely
                    # time out of anyway (graceful degradation).
                    self.sheds += 1
                    raise AdmissionRejected(
                        "shedding load: %d requests already waiting "
                        "(shed threshold %d) for query %d"
                        % (self._waiting, cfg.shed_threshold, qid),
                        qid=qid,
                        reason="overload",
                    )
                if self._waiting >= cfg.max_queue:
                    self.rejected_queue_full += 1
                    raise AdmissionRejected(
                        "admission queue full (%d waiting) for query %d"
                        % (self._waiting, qid),
                        qid=qid,
                        reason="queue-full",
                    )
                self._waiting += 1
                deadline = time.monotonic() + cfg.admission_timeout
                try:
                    while not self._fits(pages):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or not self._capacity.wait(remaining):
                            if not self._fits(pages):
                                self.admission_timeouts += 1
                                raise QueryTimeout(
                                    "query %d waited %.3gs for admission "
                                    "without capacity freeing up"
                                    % (qid, cfg.admission_timeout),
                                    qid=qid,
                                )
                finally:
                    self._waiting -= 1
            return self._admit_locked(qid, pages, timeout)

    def _admit_locked(
        self, qid: int, pages: int, timeout: Optional[float]
    ) -> QueryHandle:
        token = CancellationToken(
            qid=qid,
            timeout=timeout if timeout is not None else self.config.default_timeout,
        )
        grant = MemoryGrant(max(2, pages), qid=qid)
        guard = QueryGuard(token=token, grant=grant)
        if self._injector is not None:
            seam = getattr(self._injector, "executor_page", None)
            if seam is not None:
                token.on_check = lambda tok, g=grant: seam(tok, g)
        handle = QueryHandle(
            qid=qid, guard=guard, pages=pages, admitted_at=time.monotonic()
        )
        self._active[qid] = handle
        self._pages_in_use += pages
        self.admitted += 1
        self.peak_concurrent = max(self.peak_concurrent, len(self._active))
        return handle

    def release(self, handle: QueryHandle) -> None:
        """Return an admitted query's capacity and wake queued requests.

        Safe on a parked handle too (its pages were already returned at
        :meth:`begin_wait`; the registry entry is simply forgotten), so a
        single ``finally: release(handle)`` covers every exit path of a
        statement -- including a crash or abort while its slot was
        parked -- without leaking capacity.
        """
        with self._capacity:
            if self._active.pop(handle.qid, None) is not None:
                self._pages_in_use -= handle.pages
                self._capacity.notify_all()
            elif self._parked.pop(handle.qid, None) is not None:
                self._capacity.notify_all()

    # -- admission-aware lock waits ----------------------------------------------

    def begin_wait(self, handle: QueryHandle) -> None:
        """Park an admitted query: give its slot back while it blocks.

        The Section 5 lock table makes waits cheap, but a waiter that
        keeps its admission slot starves the queries that could actually
        run -- past saturation the gate fills with blocked statements and
        throughput collapses.  ``begin_wait`` moves the query from the
        active set to the parked set and returns its pages to the
        budget; the caller then blocks on the lock table (holding *no*
        governor capacity) and calls :meth:`end_wait` once its lock is
        granted.
        """
        with self._capacity:
            if handle.qid in self._parked:
                raise StateError(
                    "query %d is already parked" % handle.qid
                )
            if self._active.pop(handle.qid, None) is None:
                raise StateError(
                    "query %d is not active; cannot park its slot"
                    % handle.qid
                )
            self._parked[handle.qid] = handle
            self._pages_in_use -= handle.pages
            self.slots_released_in_wait += 1
            self._capacity.notify_all()

    def end_wait(
        self, handle: QueryHandle, timeout: Optional[float] = None
    ) -> None:
        """Reacquire a parked query's slot (bounded wait).

        Parked queries were already admitted once, so reacquisition
        bypasses the bounded queue and the shed valve -- it only waits
        for the concurrency/memory budgets themselves, for at most
        ``timeout`` (default: the admission timeout).  On timeout the
        handle *stays parked* (so ``release`` still cleans it up) and
        :class:`~repro.errors.QueryTimeout` is raised; the caller must
        abort the statement rather than run it uncounted.
        """
        cfg = self.config
        with self._capacity:
            if handle.qid not in self._parked:
                raise StateError(
                    "query %d is not parked; cannot reacquire" % handle.qid
                )
            bound = timeout if timeout is not None else cfg.admission_timeout
            deadline = time.monotonic() + bound
            self._reacquiring += 1
            try:
                while not self._fits(handle.pages):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._capacity.wait(remaining):
                        if not self._fits(handle.pages):
                            self.admission_timeouts += 1
                            raise QueryTimeout(
                                "query %d waited %.3gs to reacquire its "
                                "admission slot after a lock wait"
                                % (handle.qid, bound),
                                qid=handle.qid,
                            )
            finally:
                self._reacquiring -= 1
            del self._parked[handle.qid]
            self._active[handle.qid] = handle
            self._pages_in_use += handle.pages
            self.requeues += 1
            self.peak_concurrent = max(self.peak_concurrent, len(self._active))

    # -- lifecycle ---------------------------------------------------------------

    def cancel(self, qid: int) -> bool:
        """Cancel a running (or parked) query; True if it was known."""
        with self._lock:
            handle = self._active.get(qid) or self._parked.get(qid)
            if handle is None:
                return False
            handle.token.cancel()
            self.cancelled += 1
            return True

    def revoke(self, qid: int, to_pages: int) -> Optional[int]:
        """Shrink a running query's grant; returns its new page budget.

        Also applies cache pressure: revocation means the system wants
        memory back, so the shrinkable consumers give theirs up first.
        """
        with self._lock:
            handle = self._active.get(qid)
            self._apply_pressure_locked()
            if handle is None or handle.grant is None:
                return None
            return handle.grant.revoke(to_pages)

    def _apply_pressure_locked(self) -> None:
        for consumer in self._shrinkables:
            try:
                keep = int(len(consumer) * self.config.pressure_keep)
                self.pressure_evictions += consumer.shrink_to(keep)
            except Exception:
                # A misbehaving cache must not take admission down.
                continue

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "active": len(self._active),
                "pages_in_use": self._pages_in_use,
                "waiting": self._waiting,
                "parked": len(self._parked),
                "reacquiring": self._reacquiring,
                "slots_released_in_wait": self.slots_released_in_wait,
                "requeues": self.requeues,
                "sheds": self.sheds,
                "admitted": self.admitted,
                "rejected_queue_full": self.rejected_queue_full,
                "rejected_memory": self.rejected_memory,
                "admission_timeouts": self.admission_timeouts,
                "cancelled": self.cancelled,
                "peak_concurrent": self.peak_concurrent,
                "pressure_evictions": self.pressure_evictions,
            }

    def __repr__(self) -> str:
        return "Governor(%d active, %d pages in use)" % (
            len(self._active),
            self._pages_in_use,
        )


__all__ = ["Governor", "GovernorConfig", "QueryHandle"]

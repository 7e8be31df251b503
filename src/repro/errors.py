"""The shared typed-error taxonomy.

Every error the library raises on purpose descends from :class:`ReproError`,
so callers can catch "something this database detected and refused" with a
single except clause while still distinguishing the families:

* :class:`ConfigurationError` -- an invalid knob (negative worker count,
  zero-entry cache) caught at construction time.
* :class:`PlannerError` -- the optimizer cannot produce a plan for the
  query as posed (disconnected join graph, no feasible algorithm at the
  current memory grant, ambiguous column names).
* :class:`GovernorError` -- the resource governor's query-lifecycle
  errors: :class:`AdmissionRejected`, :class:`QueryTimeout`, and
  :class:`QueryCancelled`.
* :class:`StateError` -- an internal invariant broke at run time (an
  operation was applied to an object in the wrong state, or a bound the
  algorithm relies on was exceeded).
* :class:`repro.recovery.restart.RecoveryError` -- structurally
  inconsistent durable state found during restart recovery.

Several subclasses *also* inherit a builtin (``ValueError`` for the
planner and configuration families, ``RuntimeError`` for recovery) so
pre-taxonomy callers that caught builtins keep working.
"""

from __future__ import annotations

from typing import Any, Optional


class ReproError(Exception):
    """Base class for every typed error the reproduction raises."""


class Retryable:
    """Marker mixin: the failed statement may be retried safely.

    Mixed into errors whose failure is *transient by construction* -- the
    system rolled the offending work back (deadlock victim) or never
    performed it (a queued-but-ungranted lock request), so re-running the
    same statement is sound.  The server's retry layer
    (:mod:`repro.server.retry`) keys off this marker, and the wire
    protocol carries it as the ``retryable`` error field so remote
    clients can implement the same policy.
    """


class ConfigurationError(ReproError, ValueError):
    """An invalid configuration or argument value the caller passed in."""


class StateError(ReproError, RuntimeError):
    """An internal invariant broke at run time (wrong state, bound hit)."""


class PlannerError(ReproError, ValueError):
    """The optimizer cannot plan the query as posed."""


class UnplannableQueryError(PlannerError):
    """No feasible plan exists (disconnected graph, no viable algorithm)."""


class GovernorError(ReproError):
    """Base class for resource-governor query-lifecycle errors."""

    def __init__(self, message: str, qid: Optional[int] = None) -> None:
        super().__init__(message)
        #: Query id the error belongs to (None outside a query lifecycle).
        self.qid = qid


class AdmissionRejected(GovernorError):
    """The governor refused to admit the query (budget or queue full).

    ``reason`` is one of ``"queue-full"``, ``"memory"``,
    ``"concurrency"``, or ``"overload"`` (the shed valve fast-rejected
    the request instead of queueing it) so callers and tests can tell
    the rejection paths apart without parsing the message.
    """

    def __init__(
        self, message: str, qid: Optional[int] = None, reason: str = "queue-full"
    ) -> None:
        super().__init__(message, qid)
        self.reason = reason


class QueryTimeout(GovernorError):
    """The query exceeded its deadline (admission wait or execution)."""


class SessionError(ReproError):
    """Base class for multi-session server errors (repro.server)."""


class ProtocolError(SessionError, ValueError):
    """A malformed, oversized, or truncated wire frame."""


class TransactionAborted(SessionError, Retryable):
    """The session's open transaction was rolled back by the system.

    ``reason`` is machine-readable: ``"deadlock"`` (this transaction was
    the victim closing a wait-for cycle), ``"lock-timeout"`` (a lock wait
    exceeded its bound), ``"admission"`` (a parked statement could not
    reacquire its admission slot), ``"disconnect"`` (the client vanished
    mid-transaction), or ``"crash"`` (the server crashed before the
    commit group reached the durable log).  The rollback already
    happened, so the transaction is :class:`Retryable` from the top.
    """

    def __init__(self, message: str, reason: str = "deadlock") -> None:
        super().__init__(message)
        self.reason = reason


class WouldBlock(SessionError, Retryable):
    """A non-blocking lock request is queued but not yet granted.

    Raised in ``wait=False`` mode; the request stays on the lock's FIFO
    queue, so the caller retries the same statement after other sessions
    make progress.  The session layer turns this into an admission-aware
    wait (release the governor slot, block in the lock table, reacquire);
    direct store callers see it as a :class:`Retryable` signal.
    """


class QueryCancelled(GovernorError):
    """The query was cancelled via ``db.cancel(qid)`` / token.cancel()."""


__all__ = [
    "AdmissionRejected",
    "ConfigurationError",
    "GovernorError",
    "PlannerError",
    "ProtocolError",
    "QueryCancelled",
    "QueryTimeout",
    "ReproError",
    "Retryable",
    "SessionError",
    "StateError",
    "TransactionAborted",
    "UnplannableQueryError",
    "WouldBlock",
]

"""Sessions: per-connection transaction state over the shared engine.

A :class:`SessionManager` owns one :class:`~repro.core.MainMemoryDatabase`
(the relational facade) and one :class:`~repro.server.bank.BankStore` (the
Section 5 transactional record store); each connected client gets a
:class:`Session` that executes statements against both.

The statement language is deliberately tiny.  Bank statements drive the
concurrent transactional workload::

    BEGIN                  open a transaction
    GET <record>           read a balance          (S lock)
    ADD <record> <delta>   add to a balance        (X lock)
    SET <record> <value>   overwrite a balance     (X lock)
    COMMIT                 pre-commit, group-commit, wait for durability
    ROLLBACK               undo and release locks
    AUDIT                  sum of all balances (no locks; quiescent only)
    FLUSH                  barrier-flush the open commit group
    PING / STATS           liveness and introspection

and anything else is handed to the SQL front end
(:func:`repro.planner.sql.parse_sql` -> planner -> executor), so the full
``tests/test_sql.py`` corpus runs over the wire.

Concurrency contract:

* **Bank statements interleave freely** -- that is the point.  Each
  record-touching statement (GET/ADD/SET) is first admitted through the
  PR-3 governor (one page, the session's statement timeout), so admission
  control throttles the transactional load exactly like query load.
  Outside an open transaction these statements autocommit (implicit
  BEGIN + COMMIT around the single statement).
* **Lock waits are admission-aware**: record operations run in
  non-blocking mode, and when the Section 5 lock table queues the
  request the statement *parks* its governor slot
  (``Governor.begin_wait``), waits for the grant holding no admission
  capacity (:meth:`~repro.server.bank.BankStore.await_grant`), then
  reacquires the slot (``Governor.end_wait``) and retries.  Admission
  measures statements running, not statements blocked, so overload
  degrades into a throughput plateau instead of a collapse.
* **Read-only SQL runs concurrently**: the facade's sharded counters
  attribute charges to the executing thread
  (``counters.thread_snapshot``) and the reuse cache keeps per-thread
  tallies (``reuse.thread_stats``), so per-statement deltas stay exact
  -- byte-for-byte equal to in-process execution, which the
  differential suite asserts -- without a statement-serialising lock.
  The catalog read-write lock lets any number of SELECTs share the read
  side while DDL/DML briefly take the write side.
* **Per-session reuse views**: each session diffs its *thread's* view of
  the shared :class:`~repro.planner.reuse.PlanReuseCache` around its
  statement, accumulating what *it* contributed -- the shared cache
  stays shared (that is what makes cross-session reuse work).
* **Transient failures retry**: a statement that entered with no open
  transaction is idempotent by rollback, so
  :class:`~repro.errors.Retryable` failures (deadlock victimhood) are
  retried inside the server under the manager's
  :class:`~repro.server.retry.RetryPolicy` -- capped exponential
  backoff with seeded full jitter.  Retry exhaustion re-raises the
  original error, reason intact.

Aborts initiated by the system (deadlock victim, lock-wait timeout,
crash) roll the transaction back inside the store; the session clears its
transaction handle so the client's next statement starts clean, and the
wire layer flags the response with ``txn_aborted``.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.database import MainMemoryDatabase
from repro.core.locks import tracked_lock
from repro.errors import (
    QueryTimeout,
    ReproError,
    Retryable,
    SessionError,
    StateError,
    TransactionAborted,
    WouldBlock,
)
from repro.planner.reuse import STAT_KEYS
from repro.planner.sql import SqlError
from repro.server.bank import BankStore
from repro.server.protocol import ResultColumns
from repro.server.retry import RetryPolicy
from repro.storage.relation import Relation


_TOKEN = re.compile(r"\S+")


@dataclass
class StatementResult:
    """One statement's outcome, ready for the wire or direct use.

    ``kind`` is ``"rows"`` (SQL result set, its columns in ``data``),
    ``"value"`` (a scalar from a bank statement), or ``"ok"``.
    """

    kind: str
    columns: Optional[List[str]] = None
    data: Optional[ResultColumns] = None
    value: Any = None
    counters: Optional[Dict[str, int]] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def rows(self) -> Optional[List[List[Any]]]:
        """The result set as row lists, built on each call (the wire
        sends ``data`` and never builds them)."""
        if self.data is None:
            return None
        return list(map(list, zip(*self.data.buffers)))

    def payload(self, msg_id: Optional[int] = None) -> Dict[str, Any]:
        """The response body :func:`~repro.server.protocol.encode_frame`
        takes: JSON-serialisable, except ``rows``, which is ``data``."""
        out: Dict[str, Any] = {"ok": True, "kind": self.kind}
        if msg_id is not None:
            out["id"] = msg_id
        if self.columns is not None:
            out["columns"] = self.columns
            out["rows"] = self.data if self.data is not None else []
        if self.kind == "value":
            out["value"] = self.value
        if self.counters is not None:
            out["counters"] = self.counters
        if self.meta:
            out["meta"] = self.meta
        return out


def _snapshot(rel: Relation) -> ResultColumns:
    """``rel`` as one buffer per column: a copy of each of its column
    buffers.  The copy is the reply's consistency point -- a bare
    ``SELECT *`` hands back the live base relation."""
    return ResultColumns([col[:] for col in rel.columns], len(rel))


def _tokenize(stmt: str) -> List[Tuple[str, int]]:
    return [(m.group(), m.start()) for m in _TOKEN.finditer(stmt)]


def _int_arg(tokens: List[Tuple[str, int]], index: int, what: str) -> int:
    if index >= len(tokens):
        last = tokens[-1]
        raise SqlError(
            "missing %s" % what, position=last[1] + len(last[0])
        )
    text, pos = tokens[index]
    try:
        return int(text)
    except ValueError:
        raise SqlError(
            "expected integer %s, got %r" % (what, text), position=pos
        ) from None


def _exact_arity(tokens: List[Tuple[str, int]], arity: int) -> None:
    if len(tokens) > arity:
        text, pos = tokens[arity]
        raise SqlError(
            "unexpected trailing token %r" % text, position=pos
        )


class Session:
    """One client's statement-execution context."""

    def __init__(self, manager: "SessionManager", session_id: int) -> None:
        self.manager = manager
        self.session_id = session_id
        #: Open bank transaction id, or None.
        self.txn: Optional[int] = None
        self.closed = False
        self.statements = 0
        self.autocommits = 0
        #: Times a statement parked its admission slot to wait for a lock.
        self.lock_parks = 0
        #: Automatic server-side retries of idempotent statements.
        self.retries = 0
        #: Seeded per-session jitter source: retry schedules reproduce.
        self._rng = random.Random(0x1984 ^ (session_id * 7919))
        #: This session's private view of shared reuse-cache activity.
        self.reuse_view: Dict[str, int] = {k: 0 for k in STAT_KEYS}

    # -- dispatch ----------------------------------------------------------------

    def execute(self, stmt: str) -> StatementResult:
        """Run one statement; raises taxonomy errors on failure.

        A statement that *entered* with no transaction open is idempotent
        by rollback -- whatever it did was undone -- so on a
        :class:`~repro.errors.Retryable` failure (deadlock victimhood)
        the server retries it under the manager's
        :class:`~repro.server.retry.RetryPolicy` with seeded full-jitter
        backoff.  Statements inside an explicit transaction are never
        retried (the client owns that recovery), and exhaustion re-raises
        the *original* error with its reason intact.
        """
        if self.closed:
            raise SessionError("session %d is closed" % self.session_id)
        self.statements += 1
        tokens = _tokenize(stmt)
        if not tokens:
            raise SqlError("empty statement", position=0)
        verb = tokens[0][0].upper()
        handler = self._HANDLERS.get(verb)
        policy = self.manager.retry_policy
        can_retry = policy is not None and self.txn is None
        attempt = 0
        while True:
            try:
                if handler is not None:
                    return handler(self, tokens)
                return self._sql(stmt)
            except ReproError as exc:
                if (
                    not can_retry
                    or not isinstance(exc, Retryable)
                    or self.txn is not None
                    or self.closed
                    or not policy.retries_left(attempt + 1)
                ):
                    raise
                time.sleep(policy.backoff(attempt, self._rng))
                attempt += 1
                self.retries += 1

    # -- bank statements ----------------------------------------------------------

    def _require_txn(self) -> int:
        if self.txn is None:
            raise StateError(
                "session %d has no open transaction (BEGIN first)"
                % self.session_id
            )
        return self.txn

    def _do_begin(self, tokens) -> StatementResult:
        _exact_arity(tokens, 1)
        if self.txn is not None:
            raise StateError(
                "session %d already has transaction %d open"
                % (self.session_id, self.txn)
            )
        self.txn = self.manager.bank.begin(self.session_id)
        return StatementResult(kind="ok", meta={"txn": self.txn})

    def _do_commit(self, tokens) -> StatementResult:
        _exact_arity(tokens, 1)
        tid = self._require_txn()
        try:
            info = self.manager.bank.commit(tid)
        finally:
            # Whether the group flushed or the commit was lost to a
            # crash, the transaction is finished either way.
            self.txn = None
        return StatementResult(kind="ok", meta=info)

    def _do_rollback(self, tokens) -> StatementResult:
        _exact_arity(tokens, 1)
        tid = self._require_txn()
        try:
            self.manager.bank.rollback(tid)
        finally:
            self.txn = None
        return StatementResult(kind="ok", meta={"txn": tid})

    def _bank_op(self, record: int, op) -> Tuple[Any, int, bool]:
        """Run one record-touching operation under governor admission,
        autocommitting when no transaction is open.

        The operation runs in non-blocking mode; on
        :class:`~repro.errors.WouldBlock` the statement parks its
        admission slot, waits for the lock grant holding no capacity,
        reacquires the slot, and retries -- the retried call consumes
        the grant the lock table queued for it.  The single ``finally``
        releases the handle active *or* parked, so no exit path (abort,
        timeout, crash signal) leaks admission capacity.
        """
        mgr = self.manager
        gov = mgr.db.governor
        handle = gov.admit(1, timeout=mgr.statement_timeout)
        try:
            auto = self.txn is None
            if auto:
                self.txn = mgr.bank.begin(self.session_id)
            tid = self.txn
            try:
                while True:
                    try:
                        value = op(tid, record)
                        break
                    except WouldBlock:
                        self.lock_parks += 1
                        gov.begin_wait(handle)
                        mgr.db._chaos_point("bank park %d" % record)
                        mgr.bank.await_grant(tid)
                        mgr.db._chaos_point("bank unpark %d" % record)
                        try:
                            gov.end_wait(
                                handle, timeout=mgr.statement_timeout
                            )
                        except QueryTimeout:
                            # The slot never came back, and the grant we
                            # now hold would run uncounted.  Give it up.
                            mgr.bank.rollback(tid, "admission")
                            raise TransactionAborted(
                                "transaction %d aborted: statement could"
                                " not reacquire its admission slot" % tid,
                                reason="admission",
                            ) from None
            except (TransactionAborted, QueryTimeout):
                # The store already rolled the transaction back.
                self.txn = None
                raise
            except ReproError:
                if auto:
                    # Nobody else will end the implicit transaction, and
                    # left open it is a peer every commit waits for.
                    self.txn = None
                    mgr.bank.rollback(tid, "statement-failed")
                raise
            if auto:
                try:
                    mgr.bank.commit(tid)
                    self.autocommits += 1
                finally:
                    self.txn = None
            return value, tid, auto
        finally:
            gov.release(handle)

    def _do_get(self, tokens) -> StatementResult:
        record = _int_arg(tokens, 1, "record id")
        _exact_arity(tokens, 2)
        value, tid, auto = self._bank_op(
            record,
            lambda t, r: self.manager.bank.read_record(t, r, wait=False),
        )
        return StatementResult(
            kind="value",
            value=value,
            meta={"record": record, "txn": tid, "autocommit": auto},
        )

    def _do_add(self, tokens) -> StatementResult:
        record = _int_arg(tokens, 1, "record id")
        delta = _int_arg(tokens, 2, "delta")
        _exact_arity(tokens, 3)
        value, tid, auto = self._bank_op(
            record,
            lambda t, r: self.manager.bank.add_record(
                t, r, delta, wait=False
            ),
        )
        return StatementResult(
            kind="value",
            value=value,
            meta={"record": record, "txn": tid, "autocommit": auto},
        )

    def _do_set(self, tokens) -> StatementResult:
        record = _int_arg(tokens, 1, "record id")
        value = _int_arg(tokens, 2, "value")
        _exact_arity(tokens, 3)
        old, tid, auto = self._bank_op(
            record,
            lambda t, r: self.manager.bank.set_record(
                t, r, value, wait=False
            ),
        )
        return StatementResult(
            kind="value",
            value=old,
            meta={"record": record, "txn": tid, "autocommit": auto},
        )

    def _do_audit(self, tokens) -> StatementResult:
        _exact_arity(tokens, 1)
        return StatementResult(
            kind="value", value=self.manager.bank.audit_total()
        )

    def _do_flush(self, tokens) -> StatementResult:
        _exact_arity(tokens, 1)
        flushed = self.manager.bank.flush_now()
        return StatementResult(kind="ok", meta={"flushed": flushed})

    def _do_ping(self, tokens) -> StatementResult:
        _exact_arity(tokens, 1)
        return StatementResult(kind="ok", meta={"session": self.session_id})

    def _do_stats(self, tokens) -> StatementResult:
        _exact_arity(tokens, 1)
        value = dict(self.manager.manager_stats())
        value["session"] = self.info()
        return StatementResult(kind="value", value=value)

    # -- SQL ----------------------------------------------------------------------

    def _sql(self, stmt: str) -> StatementResult:
        mgr = self.manager
        db = mgr.db
        # The facade's counters are sharded: this thread's shard sees
        # exactly this statement's charges and the reuse cache keeps
        # per-thread tallies, so read-only SQL interleaves freely while
        # the per-statement deltas stay byte-exact.
        reuse = db.reuse
        before = db.counters.thread_snapshot()
        reuse_before = reuse.thread_stats() if reuse is not None else None
        rel = db.sql(stmt, timeout=mgr.statement_timeout)
        delta = db.counters.thread_snapshot() - before
        if reuse is not None:
            reuse_after = reuse.thread_stats()
            for key in STAT_KEYS:
                self.reuse_view[key] += reuse_after[key] - reuse_before[key]
        return StatementResult(
            kind="rows",
            columns=list(rel.schema.names),
            data=_snapshot(rel),
            counters=delta.as_dict(),
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self, reason: str = "disconnect") -> None:
        """End the session; an open transaction is rolled back with
        ``reason`` (the mid-transaction-disconnect guarantee)."""
        if self.closed:
            return
        self.closed = True
        tid, self.txn = self.txn, None
        if tid is not None:
            try:
                self.manager.bank.rollback(tid, reason)
            except SessionError:
                # Already dead (aborted by deadlock or lost in a crash).
                pass

    def info(self) -> Dict[str, Any]:
        return {
            "session": self.session_id,
            "txn": self.txn,
            "statements": self.statements,
            "autocommits": self.autocommits,
            "lock_parks": self.lock_parks,
            "retries": self.retries,
            "reuse_view": dict(self.reuse_view),
            "closed": self.closed,
        }

    _HANDLERS = {
        "BEGIN": _do_begin,
        "COMMIT": _do_commit,
        "ROLLBACK": _do_rollback,
        "ABORT": _do_rollback,
        "GET": _do_get,
        "ADD": _do_add,
        "SET": _do_set,
        "AUDIT": _do_audit,
        "FLUSH": _do_flush,
        "PING": _do_ping,
        "STATS": _do_stats,
    }

    def __repr__(self) -> str:
        return "Session(%d, txn=%s, %d statements)" % (
            self.session_id,
            self.txn,
            self.statements,
        )


class SessionManager:
    """The shared engine plus the registry of live sessions."""

    def __init__(
        self,
        db: Optional[MainMemoryDatabase] = None,
        bank: Optional[BankStore] = None,
        n_accounts: int = 64,
        initial_balance: int = 100,
        statement_timeout: float = 5.0,
        group_size: int = 8,
        group_delay: float = 0.002,
        lock_wait_timeout: float = 5.0,
        retry_policy: Optional[RetryPolicy] = None,
        auto_retry: bool = True,
    ) -> None:
        self.db = db if db is not None else MainMemoryDatabase()
        self.bank = (
            bank
            if bank is not None
            else BankStore(
                n_accounts,
                initial_balance=initial_balance,
                group_size=group_size,
                group_delay=group_delay,
                lock_wait_timeout=lock_wait_timeout,
            )
        )
        self.statement_timeout = statement_timeout
        #: Server-side retry of idempotent statements; None disables.
        self.retry_policy: Optional[RetryPolicy] = (
            retry_policy
            if retry_policy is not None
            else (RetryPolicy() if auto_retry else None)
        )
        self._mu = tracked_lock("repro.server.SessionManager._mu")
        self._sids = itertools.count(1)
        self._sessions: Dict[int, Session] = {}

    # -- session registry ---------------------------------------------------------

    def open_session(self) -> Session:
        with self._mu:
            sid = next(self._sids)
            session = Session(self, sid)
            self._sessions[sid] = session
            return session

    def session(self, session_id: int) -> Session:
        with self._mu:
            found = self._sessions.get(session_id)
        if found is None:
            raise SessionError("unknown session id %r" % (session_id,))
        return found

    def close_session(self, session_id: int, reason: str = "disconnect") -> bool:
        """Close (and deregister) a session, rolling back its open
        transaction.  Returns False when the id is unknown."""
        with self._mu:
            session = self._sessions.pop(session_id, None)
        if session is None:
            return False
        session.close(reason)
        return True

    def execute(self, session_id: int, stmt: str) -> StatementResult:
        """Convenience: run ``stmt`` on session ``session_id``."""
        return self.session(session_id).execute(stmt)

    def session_count(self) -> int:
        with self._mu:
            return len(self._sessions)

    # -- faults -------------------------------------------------------------------

    def crash(self) -> Dict[str, int]:
        """Crash the bank store and sever every session (their open
        transactions die with the volatile state)."""
        report = self.bank.crash()
        with self._mu:
            victims = list(self._sessions.values())
            self._sessions.clear()
        for session in victims:
            session.close("crash")
        report["closed_sessions"] = len(victims)
        return report

    def recover(self) -> Dict[str, Any]:
        return self.bank.recover()

    # -- reporting ----------------------------------------------------------------

    def manager_stats(self) -> Dict[str, Any]:
        with self._mu:
            sessions = [s.info() for s in self._sessions.values()]
        return {
            "sessions": sessions,
            "session_count": len(sessions),
            "bank": self.bank.bank_stats(),
            "governor": self.db.governor_stats(),
            "reuse": self.db.reuse_stats(),
            "concurrency": self.db.concurrency_stats(),
        }

    def close(self) -> None:
        """Close every session and stop the bank's flusher."""
        with self._mu:
            victims = list(self._sessions.values())
            self._sessions.clear()
        for session in victims:
            session.close("shutdown")
        self.bank.close()

    def __repr__(self) -> str:
        return "SessionManager(%d sessions)" % self.session_count()


__all__ = ["Session", "SessionManager", "StatementResult"]

"""The transactional record store behind the multi-session server.

This is the Section 5 machinery under *genuine* concurrency: the same
:class:`~repro.recovery.lock_table.LockTable` (holder / waiter /
pre-committed sets) the simulated engine uses, driven by real threads --
one per connected session -- instead of the discrete-event simulator.

A transaction's life here follows the paper's pre-commit protocol:

1. statements acquire record locks (S for reads, X for writes), blocking
   on the FIFO wait queue when incompatible; a wait-for cycle aborts the
   requester (the victim that closed the cycle), and every wait is
   bounded, so a session can stall but never hang;
2. COMMIT appends the commit record (with the transaction's accumulated
   pre-commit dependencies) to the log *buffer*, releases its locks into
   the pre-committed sets -- waking waiters, who inherit the dependency
   edge -- and joins the open **commit group**;
3. the group is sealed -- the whole log buffer moved to the durable log
   in one write, the group's locks finalized with one batched
   :meth:`~repro.recovery.lock_table.LockTable.finalize_batch` pass --
   by whoever makes it sealable: the committer that fills it
   (``group_size``, reason ``"fill"``), the transaction whose leaving
   ACTIVE (commit, rollback, abort) means nobody is still running who
   could join it (``"quiet"``), a ``FLUSH`` (``"barrier"``), or, as the
   upper bound on the wait, the flusher thread once the group is
   ``group_delay`` seconds old (``"timer"``).

Because the buffer is strictly append-ordered and flushes are whole-buffer
prefixes, a flushed dependent commit always implies its dependencies are
durable too -- the Section 5.3 ordering constraint for free.

:meth:`crash` models a power cut: the buffered (unflushed) log and every
in-flight transaction vanish; :meth:`recover` rebuilds the image by
redoing the durable log's committed updates from the initial state, which
the chaos tests check against the independent
:class:`~repro.chaos.ShadowDatabase` oracle.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.locks import tracked_lock
from repro.errors import (
    ConfigurationError,
    QueryTimeout,
    SessionError,
    StateError,
    TransactionAborted,
    WouldBlock,
)
from repro.recovery.lock_table import LockMode, LockTable

#: Log record tuples: ("begin", tid) / ("update", tid, rid, old, new) /
#: ("commit", tid, deps) / ("abort", tid).
LogRecord = Tuple[Any, ...]


class TxnState(enum.Enum):
    """ACTIVE while issuing statements, PRECOMMITTED once the commit
    record is buffered and locks are released, COMMITTED when the commit
    group is durable, ABORTED after rollback (voluntary or forced)."""

    ACTIVE = "active"
    PRECOMMITTED = "precommitted"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class BankTxn:
    """One server-side transaction's descriptor."""

    tid: int
    session_id: int
    state: TxnState = TxnState.ACTIVE
    #: Undo list of (record, old value), applied in reverse on rollback.
    undo: List[Tuple[int, Any]] = field(default_factory=list)
    #: Pre-committed transactions this one depends on (Section 5.2).
    dependencies: Set[int] = field(default_factory=set)
    #: Outstanding queued lock request, if a statement is blocked.
    waiting_for: Optional[Tuple[int, LockMode]] = None
    #: Why the transaction aborted (when it did).
    abort_reason: Optional[str] = None
    #: Size of the durable commit group this transaction rode in.
    group_size: int = 0
    statements: int = 0


class BankStore:
    """``n_accounts`` balances under strict 2PL and group commit."""

    def __init__(
        self,
        n_accounts: int,
        initial_balance: int = 100,
        group_size: int = 8,
        group_delay: float = 0.002,
        lock_wait_timeout: float = 5.0,
    ) -> None:
        if n_accounts < 1:
            raise ConfigurationError("bank needs at least one account")
        if group_size < 1:
            raise ConfigurationError("group_size must be >= 1")
        if group_delay < 0 or lock_wait_timeout <= 0:
            raise ConfigurationError(
                "group_delay must be >= 0 and lock_wait_timeout > 0"
            )
        self.n_accounts = n_accounts
        self.initial_balance = initial_balance
        self.group_size = group_size
        self.group_delay = group_delay
        self.lock_wait_timeout = lock_wait_timeout

        self._mu = tracked_lock("repro.server.BankStore._mu")
        self._cond = threading.Condition(self._mu)
        self.locks = LockTable()
        self.values: List[Any] = [initial_balance] * n_accounts
        self._txns: Dict[int, BankTxn] = {}
        self._tids = itertools.count(1)

        #: The durable log (survives :meth:`crash`) and the volatile
        #: buffer (lost by it).  Flushing moves buffer -> durable.
        self.log_durable: List[LogRecord] = []
        self._log_buffer: List[LogRecord] = []
        #: Pre-committed tids riding in the open (unsealed) commit group.
        self._group: List[int] = []
        self._group_opened_at = 0.0
        #: Transactions between BEGIN and pre-commit: the ones that could
        #: still join the open group, so the ones it is worth waiting for.
        self._active = 0

        # Statistics (all guarded by _mu).
        self.commits = 0
        self.aborts = 0
        self.deadlocks = 0
        self.lock_waits = 0
        self.lock_timeouts = 0
        self.groups_flushed = 0
        self.group_txns_flushed = 0
        self.flush_reasons: Dict[str, int] = {
            "fill": 0, "quiet": 0, "timer": 0, "barrier": 0
        }

        self._crashed = False
        self._stop = False
        self._flusher = threading.Thread(
            target=self._flusher_loop, name="bank-group-commit", daemon=True
        )
        self._flusher.start()

    # -- transaction lifecycle -------------------------------------------------

    def begin(self, session_id: int = 0) -> int:
        """Open a transaction; returns its tid."""
        with self._mu:
            self._check_up()
            tid = next(self._tids)
            self._txns[tid] = BankTxn(tid=tid, session_id=session_id)
            self._active += 1
            self._log_buffer.append(("begin", tid))
            return tid

    def read_record(self, tid: int, record: int, wait: bool = True) -> Any:
        """Read ``record`` under a shared lock."""
        with self._mu:
            txn = self._active_txn(tid)
            self._acquire_locked(txn, record, LockMode.SHARED, wait)
            txn.statements += 1
            return self.values[record]

    def add_record(self, tid: int, record: int, delta: Any, wait: bool = True) -> Any:
        """Add ``delta`` to ``record`` under an exclusive lock; returns
        the new value.  This is the transfer building block: taking X up
        front avoids the S->X upgrade that two read-modify-write
        transactions can hang on."""
        with self._mu:
            txn = self._active_txn(tid)
            self._acquire_locked(txn, record, LockMode.EXCLUSIVE, wait)
            old = self.values[record]
            new = old + delta
            self._apply_write_locked(txn, record, old, new)
            txn.statements += 1
            return new

    def set_record(self, tid: int, record: int, value: Any, wait: bool = True) -> Any:
        """Overwrite ``record`` under an exclusive lock; returns the old
        value."""
        with self._mu:
            txn = self._active_txn(tid)
            self._acquire_locked(txn, record, LockMode.EXCLUSIVE, wait)
            old = self.values[record]
            self._apply_write_locked(txn, record, old, value)
            txn.statements += 1
            return old

    def commit(self, tid: int) -> Dict[str, Any]:
        """Pre-commit ``tid`` (buffer the commit record, release locks to
        the pre-committed sets, wake waiters) and block until its commit
        group is durable.  Returns commit metadata, including the size of
        the group the transaction was flushed with."""
        with self._mu:
            txn = self._active_txn(tid)
            if txn.waiting_for is not None:
                raise StateError(
                    "transaction %d cannot commit with a queued lock "
                    "request outstanding" % tid
                )
            # A dependency imposes an order only while it still rides in
            # the open group (the paper: committed transactions are
            # removed from the dependency list).
            deps = tuple(sorted(txn.dependencies.intersection(self._group)))
            if not txn.undo and not deps:
                # Read-only, and everything it read is already durable:
                # there is nothing to log, so the commit completes
                # without joining a group (it must not wait out the
                # group-delay timer -- nor lose to a crash).
                txn.state = TxnState.COMMITTED
                notices = self.locks.precommit(tid)
                self._route_notices(notices)
                self.locks.finalize_batch([tid])
                self.commits += 1
                self._retire_active_locked(txn)
                return {"tid": tid, "group_size": 0, "dependencies": []}
            self._log_buffer.append(("commit", tid, deps))
            txn.state = TxnState.PRECOMMITTED
            notices = self.locks.precommit(tid)
            self._route_notices(notices)
            self._group.append(tid)
            self._active -= 1
            if len(self._group) >= self.group_size:
                self._flush_locked("fill")
            elif self._active == 0:
                # Nobody is running who could still join: waiting would
                # buy nothing but the timer.
                self._flush_locked("quiet")
            elif len(self._group) == 1:
                self._group_opened_at = time.monotonic()
                self._cond.notify_all()  # the flusher arms its deadline
            while txn.state is TxnState.PRECOMMITTED:
                self._cond.wait()
            if txn.state is not TxnState.COMMITTED:
                raise TransactionAborted(
                    "transaction %d pre-committed but its commit group "
                    "was lost in a crash" % tid,
                    reason=txn.abort_reason or "crash",
                )
            self.commits += 1
            return {
                "tid": tid,
                "group_size": txn.group_size,
                "dependencies": list(deps),
            }

    def await_grant(self, tid: int, timeout: Optional[float] = None) -> None:
        """Block until ``tid``'s queued lock request is granted.

        The admission-aware wait path: a statement that got
        :class:`~repro.errors.WouldBlock` parks its governor slot
        (``Governor.begin_wait``) and then waits *here*, consuming no
        admission capacity while blocked.  Returns once the grant
        arrived (the request's ``waiting_for`` marker stays set; the
        retried statement consumes it), returns immediately when there
        is no queued request.  Raises
        :class:`~repro.errors.TransactionAborted` if the transaction
        died while waiting (crash, disconnect rollback) and
        :class:`~repro.errors.QueryTimeout` -- after rolling the
        transaction back -- when the bounded wait expires, exactly like
        the in-line blocking mode.
        """
        with self._mu:
            txn = self._txns.get(tid)
            if txn is None:
                raise SessionError("unknown transaction id %r" % (tid,))
            if txn.state is not TxnState.ACTIVE:
                raise TransactionAborted(
                    "transaction %d was aborted while parked for a lock"
                    % tid,
                    reason=txn.abort_reason or "crash",
                )
            pending = txn.waiting_for
            if pending is None:
                return
            record, mode = pending
            bound = timeout if timeout is not None else self.lock_wait_timeout
            deadline = time.monotonic() + bound
            while not self._holds(tid, record, mode):
                if txn.state is not TxnState.ACTIVE:
                    raise TransactionAborted(
                        "transaction %d was aborted while parked for "
                        "record %d" % (tid, record),
                        reason=txn.abort_reason or "crash",
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.locks.cancel_wait(tid)
                    txn.waiting_for = None
                    self.lock_timeouts += 1
                    self._rollback_locked(txn, "lock-timeout")
                    raise QueryTimeout(
                        "transaction %d waited %.3gs for record %d; "
                        "aborted (lock waits are bounded, sessions "
                        "never hang)" % (tid, bound, record)
                    )
                self._cond.wait(remaining)

    def rollback(self, tid: int, reason: str = "requested") -> None:
        """Undo ``tid``'s writes and release its locks (no pre-commit)."""
        with self._mu:
            txn = self._txns.get(tid)
            if txn is None or txn.state is not TxnState.ACTIVE:
                raise SessionError(
                    "transaction %r is not active (state: %s)"
                    % (tid, txn.state.value if txn else "unknown")
                )
            if txn.waiting_for is not None:
                self.locks.cancel_wait(tid)
                txn.waiting_for = None
            self._rollback_locked(txn, reason)

    # -- internals (mutex held) ------------------------------------------------

    def _check_up(self) -> None:
        if self._crashed:
            raise SessionError("the bank store crashed; call recover() first")
        if self._stop:
            raise SessionError("the bank store is shut down")

    def _active_txn(self, tid: int) -> BankTxn:
        self._check_up()
        txn = self._txns.get(tid)
        if txn is None:
            raise SessionError("unknown transaction id %r" % (tid,))
        if txn.state is not TxnState.ACTIVE:
            raise SessionError(
                "transaction %d is %s, not active" % (tid, txn.state.value)
            )
        return txn

    def _holds(self, tid: int, record: int, mode: LockMode) -> bool:
        held = self.locks.holders(record).get(tid)
        if held is None:
            return False
        return held is LockMode.EXCLUSIVE or mode is LockMode.SHARED

    def _acquire_locked(
        self, txn: BankTxn, record: int, mode: LockMode, wait: bool
    ) -> None:
        if not 0 <= record < self.n_accounts:
            raise ConfigurationError(
                "record %d out of range [0, %d)" % (record, self.n_accounts)
            )
        if txn.waiting_for is not None:
            # Retry of a statement whose request is already queued
            # (wait=False mode): either the grant arrived, or we are
            # still in line.
            if txn.waiting_for != (record, mode):
                raise StateError(
                    "transaction %d retried %r while waiting for %r"
                    % (txn.tid, (record, mode), txn.waiting_for)
                )
            if self._holds(txn.tid, record, mode):
                txn.waiting_for = None
                return
        else:
            grant = self.locks.acquire(txn.tid, record, mode)
            if grant.granted:
                txn.dependencies.update(grant.dependencies)
                return
            txn.waiting_for = (record, mode)
            self.lock_waits += 1
        # The request is queued.  Deadlock is always checked by the
        # requester that (re)enters while blocked -- the closer of a
        # wait-for cycle finds it here and becomes the victim.
        cycle = self.locks.find_deadlock(txn.tid)
        if cycle is not None:
            self.locks.cancel_wait(txn.tid)
            txn.waiting_for = None
            self.deadlocks += 1
            self._rollback_locked(txn, "deadlock")
            raise TransactionAborted(
                "transaction %d aborted: wait-for cycle %s"
                % (txn.tid, " -> ".join(str(t) for t in cycle)),
                reason="deadlock",
            )
        if not wait:
            raise WouldBlock(
                "transaction %d queued for record %d (%s)"
                % (txn.tid, record, mode.value)
            )
        deadline = time.monotonic() + self.lock_wait_timeout
        while not self._holds(txn.tid, record, mode):
            if txn.state is not TxnState.ACTIVE:
                raise TransactionAborted(
                    "transaction %d was aborted while waiting for record %d"
                    % (txn.tid, record),
                    reason=txn.abort_reason or "crash",
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.locks.cancel_wait(txn.tid)
                txn.waiting_for = None
                self.lock_timeouts += 1
                self._rollback_locked(txn, "lock-timeout")
                raise QueryTimeout(
                    "transaction %d waited %.3gs for record %d; aborted "
                    "(lock waits are bounded, sessions never hang)"
                    % (txn.tid, self.lock_wait_timeout, record)
                )
            self._cond.wait(remaining)
        txn.waiting_for = None

    def _apply_write_locked(
        self, txn: BankTxn, record: int, old: Any, new: Any
    ) -> None:
        if self._crashed:
            # A crash while this writer waited on a record lock aborts
            # its transaction before it resumes; writing the lost memory
            # image here would corrupt recovery, so refuse loudly.
            raise SessionError(
                "the bank store crashed; call recover() first"
            )
        self._log_buffer.append(("update", txn.tid, record, old, new))
        self.values[record] = new
        txn.undo.append((record, old))

    def _rollback_locked(self, txn: BankTxn, reason: str) -> None:
        for record, old in reversed(txn.undo):
            self.values[record] = old
        self._log_buffer.append(("abort", txn.tid))
        txn.state = TxnState.ABORTED
        txn.abort_reason = reason
        self.aborts += 1
        notices = self.locks.abort(txn.tid)
        self._route_notices(notices)
        self._cond.notify_all()
        self._retire_active_locked(txn)

    def _retire_active_locked(self, txn: BankTxn) -> None:
        """``txn`` left ACTIVE without joining the group: its outcome is
        known, so its descriptor goes, and if it was the last one the
        open group could have been waiting for, it seals that group."""
        del self._txns[txn.tid]
        self._active -= 1
        if self._active == 0 and self._group:
            self._flush_locked("quiet")

    def _route_notices(self, notices) -> None:
        """Deliver grant notices: the grantee inherits the pre-committed
        dependencies and its blocked thread (if any) is woken."""
        for notice in notices:
            waiter = self._txns.get(notice.tid)
            if waiter is not None:
                waiter.dependencies.update(notice.dependencies)
        if notices:
            self._cond.notify_all()

    # -- the group-commit flusher ----------------------------------------------

    def _flusher_loop(self) -> None:
        """The upper bound on a commit's wait, nothing else: sleep until
        a group opens, then until exactly its deadline, and seal it if
        nobody else has by then."""
        with self._cond:
            while not self._stop:
                if not self._group:
                    self._cond.wait()
                    continue
                remaining = (
                    self._group_opened_at + self.group_delay - time.monotonic()
                )
                if remaining > 0:
                    self._cond.wait(remaining)
                else:
                    self._flush_locked("timer")

    def _flush_locked(self, reason: str) -> None:
        """Seal the open group: one durable log write, one batched lock
        finalization for the whole group."""
        if self._crashed:
            return  # a severed store must not write its durable log
        group = self._group
        self._group = []
        self.log_durable.extend(self._log_buffer)
        self._log_buffer = []
        self.locks.finalize_batch(group)
        for tid in group:
            txn = self._txns.pop(tid)
            txn.state = TxnState.COMMITTED
            txn.group_size = len(group)
        self.groups_flushed += 1
        self.group_txns_flushed += len(group)
        self.flush_reasons[reason] += 1
        self._cond.notify_all()

    def flush_now(self) -> int:
        """Seal the open commit group immediately (barrier flush);
        returns the number of transactions flushed."""
        with self._cond:
            if self._crashed or not self._group:
                return 0
            flushed = len(self._group)
            self._flush_locked("barrier")
            return flushed

    # -- faults and recovery ----------------------------------------------------

    def crash(self) -> Dict[str, int]:
        """Power cut: the buffered log, the open commit group, and every
        in-flight transaction are lost; the memory image is garbage.
        The durable log survives.  Returns what was lost."""
        with self._mu:
            lost_records = len(self._log_buffer)
            lost_group = len(self._group)
            self._log_buffer = []
            self._group = []
            killed = len(self._txns)
            for txn in self._txns.values():
                txn.state = TxnState.ABORTED
                txn.abort_reason = "crash"
                txn.waiting_for = None
            self._txns.clear()
            self._active = 0
            self.locks = LockTable()
            self._crashed = True
            self._cond.notify_all()
            return {
                "lost_log_records": lost_records,
                "lost_precommitted": lost_group,
                "killed_txns": killed,
            }

    def recover(self) -> Dict[str, Any]:
        """Restart after :meth:`crash`: redo the durable log's committed
        updates from the initial balances, exactly like the Section 5
        restart, then reopen for business."""
        with self._mu:
            if not self._crashed:
                raise SessionError("recover() without a crash")
            committed_order: List[int] = [
                rec[1] for rec in self.log_durable if rec[0] == "commit"
            ]
            committed = set(committed_order)
            values: List[Any] = [self.initial_balance] * self.n_accounts
            redone = 0
            for rec in self.log_durable:
                if rec[0] == "update" and rec[1] in committed:
                    values[rec[2]] = rec[4]
                    redone += 1
            self.values = values
            self._crashed = False
            self._cond.notify_all()
            return {
                "log_records_scanned": len(self.log_durable),
                "updates_redone": redone,
                "committed": len(committed),
                "commit_order": committed_order,
            }

    def commit_order(self) -> List[int]:
        """Durably committed tids in log (= serialization) order."""
        with self._mu:
            return [rec[1] for rec in self.log_durable if rec[0] == "commit"]

    # -- introspection -----------------------------------------------------------

    def audit_total(self) -> Any:
        """Sum of all balances right now (consistent only at quiescence:
        it reads under the mutex but takes no record locks)."""
        with self._mu:
            return sum(self.values)

    def balances(self) -> List[Any]:
        with self._mu:
            return list(self.values)

    def bank_stats(self) -> Dict[str, Any]:
        with self._mu:
            return {
                "n_accounts": self.n_accounts,
                "commits": self.commits,
                "aborts": self.aborts,
                "deadlocks": self.deadlocks,
                "lock_waits": self.lock_waits,
                "lock_timeouts": self.lock_timeouts,
                "groups_flushed": self.groups_flushed,
                "mean_group_size": (
                    self.group_txns_flushed / self.groups_flushed
                    if self.groups_flushed
                    else 0.0
                ),
                "flush_reasons": dict(self.flush_reasons),
                "durable_log_records": len(self.log_durable),
                "buffered_log_records": len(self._log_buffer),
                "crashed": self._crashed,
            }

    def close(self) -> None:
        """Flush the open group and stop the flusher thread."""
        with self._cond:
            if not self._crashed and self._group:
                self._flush_locked("barrier")
            self._stop = True
            self._cond.notify_all()
        self._flusher.join(timeout=5.0)

    def __repr__(self) -> str:
        return "BankStore(%d accounts, %d commits, %d aborts)" % (
            self.n_accounts,
            self.commits,
            self.aborts,
        )


__all__ = ["BankStore", "BankTxn", "LogRecord", "TxnState"]

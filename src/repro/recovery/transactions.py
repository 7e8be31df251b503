"""The transaction engine: scripts, locks, pre-commit, and commit groups.

A transaction is submitted as a *script* of read/write operations over the
record-array :class:`~repro.recovery.state.DatabaseState`.  CPU work is
instantaneous in simulated time (the database is memory resident; Section
5.2: transactions "no longer need to read or write data pages"), so the
only waits are lock queues and the log.  The engine executes a script until
it blocks on a lock, suspends it, and resumes it when the lock-table grant
arrives -- all inside the shared discrete-event simulation.

Commit path (the paper's pre-commit protocol):

1. the commit record goes to the log manager together with the transaction's
   accumulated dependency set (pre-committed former lock holders);
2. locks are released into the pre-committed sets, waking waiters, who
   inherit the dependency edge;
3. when the commit record's page (and every page it depends on) is durable,
   the transaction commits: locks finalize, the completion callback fires,
   and latency statistics are recorded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.recovery.lock_table import LockMode, LockTable
from repro.recovery.log_manager import LogManager
from repro.recovery.records import BeginRecord, UpdateRecord
from repro.recovery.state import DatabaseState, DirtyPageTable
from repro.sim.events import EventQueue
from repro.errors import ConfigurationError

#: A script step: ("read", record_id), ("write", record_id, new_value)
#: where new_value may be a callable old -> new (for transfers), or
#: ("pause", seconds) -- simulated think/computation time during which the
#: transaction keeps its locks (how long-running transactions exist in the
#: simulation).
Operation = Tuple[str, ...]


class TransactionState(enum.Enum):
    """Lifecycle: ACTIVE/WAITING while running, PRECOMMITTED once the
    commit record is buffered and locks are released, COMMITTED when it
    is durable, ABORTED after rollback."""

    ACTIVE = "active"
    WAITING = "waiting"
    PRECOMMITTED = "precommitted"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    tid: int
    script: List[Operation]
    state: TransactionState = TransactionState.ACTIVE
    step: int = 0
    reads: Dict[int, Any] = field(default_factory=dict)
    undo: List[Tuple[int, Any]] = field(default_factory=list)
    #: Last value this transaction wrote per record (after-images for the
    #: version manager).
    writes: Dict[int, Any] = field(default_factory=dict)
    #: Pre-committed transactions this one depends on (Section 5.2's
    #: dependency list in the transaction descriptor).
    dependencies: Set[int] = field(default_factory=set)
    started_at: float = 0.0
    committed_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        if self.committed_at is None:
            return None
        return self.committed_at - self.started_at


class TransactionEngine:
    """Drives transaction scripts against state, locks, and the log."""

    def __init__(
        self,
        state: DatabaseState,
        queue: EventQueue,
        log_manager: LogManager,
        on_committed: Optional[Callable[[Transaction], None]] = None,
    ) -> None:
        self.state = state
        self.queue = queue
        self.log = log_manager
        self.locks = LockTable()
        self.on_committed = on_committed
        self.dirty_table = DirtyPageTable()

        self._next_tid = 1
        self.transactions: Dict[int, Transaction] = {}
        self.committed: List[Transaction] = []
        self.aborted: List[Transaction] = []
        self._in_precommit: Set[int] = set()
        self._early_durable: Set[int] = set()
        self.deadlocks_resolved = 0
        #: Optional multi-version read layer (repro.recovery.versioning).
        self.versions = None

        # The log manager reports durable commits back to us, a whole
        # commit group per callback: the engine finalizes a page of
        # transactions per durable page write.
        assert self.log.on_commit is None, (
            "log manager already has a commit listener"
        )
        assert self.log.on_commit_batch is None, (
            "log manager already has a batch commit listener"
        )
        self.log.on_commit_batch = self._on_durable_commit_batch

    # -- submission ------------------------------------------------------------------

    def submit(self, script: Sequence[Operation]) -> Transaction:
        """Begin a transaction and run its script as far as it can go."""
        txn = Transaction(
            tid=self._next_tid,
            script=list(script),
            started_at=self.queue.clock.now,
        )
        self._next_tid += 1
        self.transactions[txn.tid] = txn
        self.log.append(BeginRecord(tid=txn.tid))
        self._run(txn)
        return txn

    def submit_at(self, delay: float, script: Sequence[Operation]) -> None:
        """Schedule a submission ``delay`` seconds from now."""
        self.queue.schedule(
            delay, lambda: self.submit(script), label="txn arrival"
        )

    # -- script execution ---------------------------------------------------------------

    def _run(self, txn: Transaction) -> None:
        """Execute ``txn`` from its current step until block or pre-commit."""
        while txn.step < len(txn.script):
            op = txn.script[txn.step]
            kind = op[0]
            if kind == "pause":
                # Simulated think time: hold locks, resume later.
                txn.step += 1
                self.queue.schedule(
                    float(op[1]),
                    lambda t=txn: self._resume_paused(t),
                    label="txn think time",
                )
                return
            record_id = op[1]
            mode = LockMode.SHARED if kind == "read" else LockMode.EXCLUSIVE
            grant = self.locks.acquire(txn.tid, record_id, mode)
            if not grant.granted:
                cycle = self.locks.find_deadlock(txn.tid)
                if cycle is not None:
                    # Victim policy: abort the requester -- it closed the
                    # cycle, has done the least work of anyone in it by
                    # construction of FIFO queues, and aborting it is
                    # always safe (it cannot be pre-committed).
                    self.locks.cancel_wait(txn.tid)
                    self.deadlocks_resolved += 1
                    self.abort(txn)
                    return
                txn.state = TransactionState.WAITING
                return
            txn.dependencies.update(grant.dependencies)

            if kind == "read":
                txn.reads[record_id] = self.state.read(record_id)
            elif kind == "write":
                self._apply_write(txn, record_id, op[2])
            else:
                raise ConfigurationError("unknown operation %r" % (kind,))
            txn.step += 1
        self._precommit(txn)

    def _resume_paused(self, txn: Transaction) -> None:
        """Continue a transaction after its simulated think time."""
        if txn.state is TransactionState.ACTIVE:
            self._run(txn)

    def _apply_write(self, txn: Transaction, record_id: int, value: Any) -> None:
        old = self.state.read(record_id)
        new = value(old) if callable(value) else value
        lsn = self.log.next_lsn()
        record = UpdateRecord(
            tid=txn.tid, record_id=record_id, old_value=old, new_value=new
        )
        self.log.append(record)
        self.state.write(record_id, new, record.lsn)
        txn.undo.append((record_id, old))
        txn.writes[record_id] = new
        self.dirty_table.note(self.state.page_of(record_id), record.lsn)

    # -- commit path ----------------------------------------------------------------------

    def _precommit(self, txn: Transaction) -> None:
        txn.state = TransactionState.PRECOMMITTED
        # Discard dependencies that already committed (the paper: "the
        # committed transactions in its dependency list are removed").
        txn.dependencies -= self.log.durable_tids
        # The commit record is appended *before* locks are released, so a
        # dependent transaction's commit record always follows ours in the
        # log.  Under the stable-memory policy the durable callback fires
        # synchronously inside append_commit -- before the locks move to
        # the pre-committed sets -- so completion is deferred until after.
        self._in_precommit.add(txn.tid)
        commit_lsn = self.log.append_commit(txn.tid, txn.dependencies)
        if self.versions is not None:
            # Publish after-images the moment the commit record exists:
            # snapshots order by commit LSN, the 2PL serialization order.
            self.versions.record(txn, commit_lsn)
        granted = self.locks.precommit(txn.tid)
        self._in_precommit.discard(txn.tid)
        if txn.tid in self._early_durable:
            self._early_durable.discard(txn.tid)
            self._complete_commit(txn)
        self._resume_granted(granted)

    def _on_durable_commit_batch(self, tids: Sequence[int]) -> None:
        """A durable commit group: complete its transactions together.

        Lock finalization is batched -- one
        :meth:`~repro.recovery.lock_table.LockTable.finalize_batch` pass
        over the whole group instead of one table walk per transaction.
        Completion callbacks still fire per transaction, in commit order.
        """
        ready: List[Transaction] = []
        for tid in tids:
            txn = self.transactions.get(tid)
            if txn is None:
                continue
            if tid in self._in_precommit:
                # Synchronous durability (stable memory): finish
                # pre-commit first, then complete.
                self._early_durable.add(tid)
                continue
            ready.append(txn)
        if not ready:
            return
        self.locks.finalize_batch([t.tid for t in ready])
        for txn in ready:
            self._complete_commit(txn, finalized=True)

    def _complete_commit(
        self, txn: Transaction, finalized: bool = False
    ) -> None:
        txn.state = TransactionState.COMMITTED
        txn.committed_at = self.queue.clock.now
        if not finalized:
            self.locks.finalize(txn.tid)
        self.committed.append(txn)
        if self.on_committed is not None:
            self.on_committed(txn)

    def abort(self, txn: Transaction) -> None:
        """Roll back an *active* transaction (pre-committed never abort)."""
        if txn.state not in (TransactionState.ACTIVE, TransactionState.WAITING):
            raise ConfigurationError(
                "cannot abort a %s transaction (the paper's pre-commit "
                "contract: only a crash kills a pre-committed transaction)"
                % txn.state.value
            )
        for record_id, old in reversed(txn.undo):
            record = UpdateRecord(
                tid=txn.tid,
                record_id=record_id,
                old_value=self.state.read(record_id),
                new_value=old,
            )
            self.log.append(record)
            self.state.write(record_id, old, record.lsn)
            self.dirty_table.note(self.state.page_of(record_id), record.lsn)
        self.log.append_abort(txn.tid)
        txn.state = TransactionState.ABORTED
        self.aborted.append(txn)
        granted = self.locks.abort(txn.tid)
        self._resume_granted(granted)

    def _resume_granted(self, notices) -> None:
        for notice in notices:
            waiter = self.transactions.get(notice.tid)
            if waiter is None or waiter.state is not TransactionState.WAITING:
                continue
            waiter.dependencies.update(notice.dependencies)
            waiter.state = TransactionState.ACTIVE
            # The operation that blocked re-acquires; acquire() is
            # idempotent for a lock already held.
            self._run(waiter)

    # -- statistics --------------------------------------------------------------------------

    @property
    def committed_count(self) -> int:
        return len(self.committed)

    def throughput(self, horizon: float) -> float:
        """Committed transactions per second of simulated time."""
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        return len(self.committed) / horizon

    def mean_commit_latency(self) -> float:
        latencies = [t.latency for t in self.committed if t.latency is not None]
        return sum(latencies) / len(latencies) if latencies else 0.0


__all__ = ["Operation", "Transaction", "TransactionEngine", "TransactionState"]

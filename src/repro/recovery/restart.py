"""Crash simulation and restart recovery -- Sections 5.1 and 5.5.

``crash()`` freezes what would survive a power failure: the disk snapshot,
the durable portion of the log (completed page writes plus anything in
battery-backed stable memory), and the stable dirty-page table.  Volatile
state -- the in-memory database image, the log buffer, every active or
pre-committed transaction -- is gone.

``recover()`` is the paper's "reload the snapshot on disk, and then apply
the transaction log":

1. reload the snapshot into a fresh database image (sequential page reads);
2. *undo pass* (backward): remove loser updates the fuzzy snapshot may have
   absorbed, using the old values (the reason full logging keeps them);
3. *redo pass* (forward): reapply committed updates newer than each page's
   snapshot LSN, starting from the dirty-page table's minimum first-update
   LSN -- the Section 5.5 bound that makes checkpointing pay off.

The returned outcome carries both the recovered state and the *simulated*
recovery time, so the checkpoint-interval benchmark can sweep the paper's
trade-off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ReproError
from repro.recovery.checkpoint import Checkpointer
from repro.recovery.records import (
    AbortRecord,
    CommitRecord,
    LogRecord,
    RecordSizing,
    UpdateRecord,
)
from repro.recovery.state import DatabaseState, DiskSnapshot
from repro.recovery.transactions import TransactionEngine

#: Wall-clock timer behind the restart phase timings in
#: ``RecoveryOutcome.phase_seconds``.  The timings are observability
#: (how long the *host* took), never charged to the analytic model, so
#: the one escape from the determinism rule is aliased here where the
#: justification can live next to it.
_wall_clock = time.perf_counter  # repro-lint: disable=determinism

#: Cost model for the recovery pass itself.
PAGE_READ_TIME = 0.010       # sequential reload of snapshot / log pages
RECORD_APPLY_TIME = 0.00005  # CPU to interpret and apply one log record


class RecoveryError(ReproError, RuntimeError):
    """The durable state is structurally inconsistent: the log or the
    snapshot references pages outside the disk image being rebuilt.

    Raised instead of letting a bare ``KeyError``/``IndexError`` escape
    from deep inside the redo/undo passes, so callers can distinguish
    "the crash state is corrupt" from a bug in recovery itself."""


@dataclass
class CrashState:
    """Everything that survives the failure."""

    snapshot: DiskSnapshot
    durable_log: List[LogRecord]
    n_records: int
    records_per_page: int
    sizing: RecordSizing
    crashed_at: float
    #: Stable dirty-page table (page -> first-update LSN), including
    #: entries for checkpoint copies that were still in flight.
    dirty_first_lsn: Dict[int, int] = field(default_factory=dict)

    @property
    def committed_tids(self) -> Set[int]:
        return {
            r.tid for r in self.durable_log if isinstance(r, CommitRecord)
        }

    @property
    def resolved_abort_tids(self) -> Set[int]:
        """Transactions whose abort record is durable: their rollback
        history is complete on the log, so recovery *redoes* it rather
        than undoing the transaction."""
        return {
            r.tid for r in self.durable_log if isinstance(r, AbortRecord)
        }


@dataclass
class RecoveryOutcome:
    """The recovered image plus the simulated cost of producing it.

    ``seconds`` is the deterministic simulated cost: the sequential
    reload-and-replay time for one worker, or the straggler stream's
    share of it when parallel redo spreads the partitioned log and the
    snapshot pages over ``workers`` recovery streams (Section 5.5's
    multi-disk restart).  Every other statistic -- values, counters,
    committed set -- is identical for any worker count.
    ``phase_seconds`` is measured wall-clock per phase: analysis
    (validation, snapshot reload, bucketing), commit_resolution (winner
    derivation from the durable log), undo, and redo."""

    state: DatabaseState
    seconds: float
    pages_reloaded: int
    log_records_scanned: int
    updates_redone: int
    updates_undone: int
    committed_tids: Set[int]
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    workers: int = 1
    #: Pages whose snapshot copy already covered every logged update --
    #: skipped in bulk by the parallel path (always 0 on the serial path,
    #: which filters per record instead).
    pages_skipped_clean: int = 0


def crash(
    engine: TransactionEngine, checkpointer: Optional[Checkpointer] = None
) -> CrashState:
    """Capture the durable state at this instant; volatile state is lost."""
    log = engine.log
    snapshot = checkpointer.snapshot if checkpointer is not None else DiskSnapshot()
    dirty = dict(engine.dirty_table.first_update_lsn)
    if checkpointer is not None:
        # Copies dispatched but not completed never reached the snapshot:
        # their pre-dispatch first-update LSNs still bound redo.
        for page_id, lsns in checkpointer.in_flight.items():
            oldest = min(lsns)
            dirty[page_id] = min(oldest, dirty.get(page_id, oldest))
    return CrashState(
        snapshot=snapshot,
        durable_log=log.durable_log(),
        n_records=engine.state.n_records,
        records_per_page=engine.state.records_per_page,
        sizing=log.sizing,
        crashed_at=engine.queue.clock.now,
        dirty_first_lsn=dirty,
    )


def _validate(crash_state: CrashState, state: DatabaseState) -> None:
    """Reject structurally corrupt durable state (shared by both paths)."""
    for page_id in crash_state.snapshot.pages:
        if not 0 <= page_id < state.page_count:
            raise RecoveryError(
                "snapshot holds page %d, outside the %d-page disk image"
                % (page_id, state.page_count)
            )
    for record in crash_state.durable_log:
        if isinstance(record, UpdateRecord) and not (
            0 <= record.record_id < crash_state.n_records
        ):
            raise RecoveryError(
                "log record lsn=%d references record %d, absent from the "
                "%d-record disk image (page %d does not exist in the "
                "snapshot's universe)"
                % (
                    record.lsn,
                    record.record_id,
                    crash_state.n_records,
                    record.record_id // crash_state.records_per_page,
                )
            )


def _redo_start(crash_state: CrashState, use_dirty_page_table: bool) -> int:
    log = crash_state.durable_log
    if use_dirty_page_table and crash_state.dirty_first_lsn:
        return min(crash_state.dirty_first_lsn.values())
    if use_dirty_page_table and not crash_state.dirty_first_lsn:
        # Nothing dirty at crash time: the snapshot covers everything
        # durable, so no redo is needed at all.
        return len(log) and (log[-1].lsn + 1)
    return 0


def _simulated_seconds(
    crash_state: CrashState,
    scanned: int,
    undone: int,
    use_dirty_page_table: bool,
    streams: int = 1,
) -> float:
    # The undo pass also reads the log (backwards); charge the full scan
    # when the table is not in use, the bounded scan when it is.
    #
    # ``streams`` models Section 5.5's parallel restart: k recovery
    # workers, each owning one log partition (the partitioned log keeps
    # sealed groups on independent devices) and an equal share of the
    # snapshot pages, reload and replay concurrently.  Every term of the
    # sequential cost divides by k, rounded up to the straggler's share;
    # one stream is exactly the sequential formula.
    log = crash_state.durable_log
    effective_scan = scanned if use_dirty_page_table else len(log)
    log_bytes = sum(r.size(crash_state.sizing) for r in log[-effective_scan:] if effective_scan)
    log_pages = (log_bytes + crash_state.sizing.page_bytes - 1) // crash_state.sizing.page_bytes
    k = max(1, streams)
    return (
        -(-crash_state.snapshot.page_count // k) * PAGE_READ_TIME
        + -(-log_pages // k) * PAGE_READ_TIME
        + -(-(scanned + undone) // k) * RECORD_APPLY_TIME
    )


def recover(
    crash_state: CrashState,
    initial_value: object = 0,
    use_dirty_page_table: bool = True,
    workers: int = 1,
    injector: object = None,
    governor: object = None,
) -> RecoveryOutcome:
    """Rebuild a consistent database image from the crash state.

    ``workers`` > 1 selects the batched, page-partitioned path
    (:mod:`repro.recovery.parallel_restart`) with ``workers`` modelled
    recovery streams: byte-identical image and statistics, and the
    straggler stream's share of the simulated restart time.
    ``injector`` threads a chaos :class:`~repro.chaos.FaultInjector`
    through that path's partition-dispatch and end-of-redo seams.
    ``governor`` (a :class:`~repro.governor.Governor`) accounts the
    rebuilt image's pages against the memory grant budget for the
    duration of the restart.
    """
    from repro.recovery.parallel_restart import validate_workers

    workers = validate_workers(workers)
    page_count = (
        crash_state.n_records + crash_state.records_per_page - 1
    ) // crash_state.records_per_page
    handle = None
    if governor is not None:
        handle = governor.admit(page_count, qid="restart")
    try:
        if workers > 1:
            return _recover_batched(
                crash_state, initial_value, use_dirty_page_table,
                workers, injector,
            )
        return _recover_serial(crash_state, initial_value, use_dirty_page_table)
    finally:
        if handle is not None:
            governor.release(handle)


def _recover_serial(
    crash_state: CrashState,
    initial_value: object,
    use_dirty_page_table: bool,
) -> RecoveryOutcome:
    """The record-at-a-time reference path (the seed implementation, with
    wall-clock phase timers around the existing passes)."""
    phases: Dict[str, float] = {}
    t0 = _wall_clock()
    state = DatabaseState(
        crash_state.n_records,
        crash_state.records_per_page,
        initial_value=initial_value,
    )
    _validate(crash_state, state)
    crash_state.snapshot.load_into(state)
    snapshot_lsn = list(state.page_lsn)  # per-page LSN as of the snapshot
    phases["analysis"] = _wall_clock() - t0

    t0 = _wall_clock()
    committed = crash_state.committed_tids
    # Winners are redone; losers are undone.  A durably-aborted transaction
    # is a winner: its forward history (updates + compensations) nets to
    # identity, exactly like ARIES CLRs.
    winners = committed | crash_state.resolved_abort_tids
    log = crash_state.durable_log
    phases["commit_resolution"] = _wall_clock() - t0

    # ---- undo pass: strip loser updates the fuzzy snapshot absorbed. ----
    t0 = _wall_clock()
    undone = 0
    for record in reversed(log):
        if not isinstance(record, UpdateRecord) or record.tid in winners:
            continue
        page = state.page_of(record.record_id)
        if record.lsn <= snapshot_lsn[page]:
            state.values[record.record_id] = record.old_value
            undone += 1
    phases["undo"] = _wall_clock() - t0

    # ---- redo pass: reapply committed work missing from the snapshot. ----
    t0 = _wall_clock()
    redo_start = _redo_start(crash_state, use_dirty_page_table)
    scanned = 0
    redone = 0
    for record in log:
        if record.lsn < redo_start:
            continue
        scanned += 1
        if not isinstance(record, UpdateRecord) or record.tid not in winners:
            continue
        page = state.page_of(record.record_id)
        if record.lsn > snapshot_lsn[page]:
            state.values[record.record_id] = record.new_value
            state.page_lsn[page] = record.lsn
            redone += 1
    phases["redo"] = _wall_clock() - t0

    return RecoveryOutcome(
        state=state,
        seconds=_simulated_seconds(
            crash_state, scanned, undone, use_dirty_page_table
        ),
        pages_reloaded=crash_state.snapshot.page_count,
        log_records_scanned=scanned,
        updates_redone=redone,
        updates_undone=undone,
        committed_tids=committed,
        phase_seconds=phases,
        workers=1,
    )


def _recover_batched(
    crash_state: CrashState,
    initial_value: object,
    use_dirty_page_table: bool,
    workers: int,
    injector: object,
) -> RecoveryOutcome:
    """The page-partitioned path: same contract, batched execution."""
    from repro.recovery.parallel_restart import parallel_redo

    phases: Dict[str, float] = {}
    t0 = _wall_clock()
    state = DatabaseState(
        crash_state.n_records,
        crash_state.records_per_page,
        initial_value=initial_value,
    )
    _validate(crash_state, state)
    crash_state.snapshot.load_into(state)
    snapshot_lsn = list(state.page_lsn)
    redo_start = _redo_start(crash_state, use_dirty_page_table)
    phases["analysis"] = _wall_clock() - t0

    t0 = _wall_clock()
    committed = crash_state.committed_tids
    winners = committed | crash_state.resolved_abort_tids
    phases["commit_resolution"] = _wall_clock() - t0

    # Undo and redo are fused in the partition replay (per page: undo
    # backward, then redo forward -- the serial rules exactly); both
    # phases' wall-clock therefore lands under "redo", and "undo" is 0.
    t0 = _wall_clock()
    scanned, redone, undone, skipped = parallel_redo(
        state,
        crash_state.durable_log,
        winners,
        snapshot_lsn,
        redo_start,
        workers,
        injector=injector,
    )
    phases["undo"] = 0.0
    phases["redo"] = _wall_clock() - t0

    return RecoveryOutcome(
        state=state,
        seconds=_simulated_seconds(
            crash_state, scanned, undone, use_dirty_page_table,
            streams=workers,
        ),
        pages_reloaded=crash_state.snapshot.page_count,
        log_records_scanned=scanned,
        updates_redone=redone,
        updates_undone=undone,
        committed_tids=committed,
        phase_seconds=phases,
        workers=workers,
        pages_skipped_clean=skipped,
    )


def replay_committed(
    crash_state: CrashState, initial_value: object = 0
) -> DatabaseState:
    """Reference implementation for tests: rebuild the database by applying
    every committed update, in LSN order, to a fresh image (no snapshot).

    Recovery is correct iff its values equal this oracle's.
    """
    state = DatabaseState(
        crash_state.n_records,
        crash_state.records_per_page,
        initial_value=initial_value,
    )
    winners = crash_state.committed_tids | crash_state.resolved_abort_tids
    for record in crash_state.durable_log:
        if isinstance(record, UpdateRecord) and record.tid in winners:
            state.values[record.record_id] = record.new_value
            state.page_lsn[state.page_of(record.record_id)] = record.lsn
    return state


__all__ = [
    "CrashState",
    "PAGE_READ_TIME",
    "RECORD_APPLY_TIME",
    "RecoveryError",
    "RecoveryOutcome",
    "crash",
    "recover",
    "replay_committed",
]

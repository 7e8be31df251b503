"""Partitioned-log redo -- the batched restart hot path.

The serial :func:`repro.recovery.restart.recover` interprets the log one
record at a time: per record it classifies the type, looks up the winner
set, maps the record to its page, and compares LSNs.  This module replays
the same log as *batches over page partitions*:

* one sweep **buckets** the relevant update records by page, dropping
  whole pages whose snapshot copy already covers every logged update
  (the bulk clean-page skip the stable dirty-page table enables);
* pages are dealt round-robin into one **partition** per recovery
  stream, and each partition is replayed in turn: per page, undo
  qualifying loser updates backward then redo winner updates forward --
  exactly the serial per-record rules, restricted to that page.  Pages
  are disjoint (a record lives on one page; per-page LSN guards are
  per-page state), so each partition writes straight into the image and
  no merge step is needed.

The streams are *modelled*, not forked: the layout is the one the
simulated multi-stream restart cost (§5.5) is computed from, and the
replay runs in the calling thread.  The recovered image and every
statistic except the modelled parallel restart time are byte-identical
to the serial path for any crash state and any stream count --
including structurally corrupt states, which raise the same
:class:`~repro.recovery.restart.RecoveryError`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.recovery.records import UpdateRecord


def validate_workers(workers: Any) -> int:
    """Normalise a worker count: coerce integral floats, reject garbage.

    ``0`` and ``1`` both mean serial execution.  Negative counts, booleans,
    non-integral floats, and non-numbers raise
    :class:`~repro.errors.ConfigurationError` instead of being silently
    clamped -- a negative worker count is a caller bug, not a preference.
    """
    if isinstance(workers, bool):
        raise ConfigurationError(
            "workers must be an integer count, got the boolean %r" % (workers,)
        )
    if isinstance(workers, float):
        if not workers.is_integer():
            raise ConfigurationError(
                "workers must be a whole number, got %r" % (workers,)
            )
        workers = int(workers)
    if not isinstance(workers, int):
        raise ConfigurationError(
            "workers must be an integer count, got %r" % (workers,)
        )
    if workers < 0:
        raise ConfigurationError(
            "workers cannot be negative, got %d" % workers
        )
    return max(1, workers)


def _replay_pages(
    pages: List[int],
    undo_by_page: Dict[int, List[UpdateRecord]],
    redo_by_page: Dict[int, List[UpdateRecord]],
    snapshot_lsn: List[int],
    state,
) -> Tuple[int, int]:
    """Replay one partition into ``state``: per page, undo backward then
    redo forward.  Returns ``(redone, undone)``."""
    values = state.values
    page_lsn = state.page_lsn
    redone = 0
    undone = 0
    for page in pages:
        losers = undo_by_page.get(page)
        if losers:
            # Backward: the earliest qualifying old value wins, and every
            # application counts (the serial pass applies each one).
            for record in reversed(losers):
                values[record.record_id] = record.old_value
            undone += len(losers)
        winners = redo_by_page.get(page)
        if winners:
            floor = snapshot_lsn[page]
            for record in winners:
                if record.lsn > floor:
                    values[record.record_id] = record.new_value
                    page_lsn[page] = record.lsn
                    redone += 1
    return redone, undone


def parallel_redo(
    state,
    log,
    winners,
    snapshot_lsn: List[int],
    redo_start: int,
    workers: int,
    injector=None,
) -> Tuple[int, int, int, int]:
    """Batched undo + redo of ``log`` into ``state`` as ``workers``
    partitions, replayed in turn.

    Returns ``(scanned, redone, undone, pages_skipped_clean)``.  The
    caller (:func:`repro.recovery.restart.recover`) has already validated
    the crash state, loaded the snapshot, and resolved winners.
    """
    # ---- bucket the log by page, one sweep (the analysis tail). ----
    rpp = state.records_per_page
    # Loser updates the fuzzy snapshot may have absorbed: qualify by the
    # page's snapshot LSN now so partitions never see a non-applying
    # loser record.
    undo_by_page: Dict[int, List[UpdateRecord]] = {}
    redo_by_page: Dict[int, List[UpdateRecord]] = {}
    scanned = 0
    for record in log:
        in_suffix = record.lsn >= redo_start
        if in_suffix:
            scanned += 1
        if not isinstance(record, UpdateRecord):
            continue
        page = record.record_id // rpp
        if record.tid in winners:
            if in_suffix:
                redo_by_page.setdefault(page, []).append(record)
        elif record.lsn <= snapshot_lsn[page]:
            undo_by_page.setdefault(page, []).append(record)

    # ---- bulk clean-page skip: a page whose logged updates are all ----
    # ---- covered by its snapshot copy never reaches a partition.   ----
    pages_skipped_clean = 0
    for page in list(redo_by_page):
        records = redo_by_page[page]
        if max(r.lsn for r in records) <= snapshot_lsn[page]:
            del redo_by_page[page]
            pages_skipped_clean += 1

    touched = sorted(set(undo_by_page) | set(redo_by_page))
    if not touched:
        return scanned, 0, 0, pages_skipped_clean

    # ---- partition pages round-robin and replay. ----
    workers = max(1, min(workers, len(touched)))
    partitions: List[List[int]] = [
        touched[i::workers] for i in range(workers)
    ]
    redone = 0
    undone = 0
    for idx, pages in enumerate(partitions):
        if injector is not None:
            injector.point("redo partition %d dispatch" % idx)
        part_redone, part_undone = _replay_pages(
            pages, undo_by_page, redo_by_page, snapshot_lsn, state
        )
        redone += part_redone
        undone += part_undone
    # Partitions are disjoint, so there is nothing to merge; the point
    # marks the end of redo for crash-during-restart schedules.
    if injector is not None:
        injector.point("parallel redo merge")
    return scanned, redone, undone, pages_skipped_clean


__all__ = ["parallel_redo", "validate_workers"]

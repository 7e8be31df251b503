"""Parallel partitioned-log redo -- the batched restart hot path.

The serial :func:`repro.recovery.restart.recover` interprets the log one
record at a time: per record it classifies the type, looks up the winner
set, maps the record to its page, and compares LSNs.  This module replays
the same log as *batches over page partitions*:

* the **coordinator** buckets the relevant update records by page in one
  sweep, dropping whole pages whose snapshot copy already covers every
  logged update (the bulk clean-page skip the stable dirty-page table
  enables);
* **partitions** of pages are replayed independently: per page, undo
  qualifying loser updates backward then redo winner updates forward --
  exactly the serial per-record rules, restricted to that page.  Pages
  are disjoint (a record lives on one page; per-page LSN guards are
  per-page state), so partitions replay without coordination;
* when a fork pool is worth it -- multiple cores and enough bucketed
  records to amortize the fork + pickle round trip -- partitions go to
  worker processes which pickle back only the
  applied deltas, and the coordinator **merges** them.  Partitions are
  disjoint and each worker applied its records in log order, so the
  merge preserves the topological commit ordering the commit-group
  lattice wrote the log in.  Otherwise the identical partition tasks run
  inline, writing deltas straight into the image -- same result and
  statistics for any worker count, and the layout the *simulated*
  multi-stream restart cost is modelled on.

Workers inherit the bucketed log through the fork (module-global
:data:`_CTX`); only a partition index is pickled in and only the applied
deltas are pickled out.

The recovered image and every statistic except the modelled parallel
restart time are byte-identical to the serial path for any crash state
-- including structurally corrupt ones, which raise the same
:class:`~repro.recovery.restart.RecoveryError`.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.recovery.records import UpdateRecord

#: Bucketed work inherited by forked workers: (undo_by_page, redo_by_page,
#: snapshot_lsn).  Set only for the duration of the pool's lifetime; the
#: per-call task argument is just a list of page ids.
_CTX: Optional[Tuple[Dict, Dict, List[int]]] = None

#: Below this many bucketed update records the fork + pickle round trip
#: costs more than the replay it distributes; the partition tasks then
#: run inline.  Forking also never pays on a single-core host, however
#: large the log.
MIN_RECORDS_FOR_POOL = 65536


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


def make_pool(workers: int) -> Optional[Any]:
    """A fork-context pool, or ``None`` for serial execution.

    Returns ``None`` when ``workers <= 1`` or when the platform has no
    ``fork`` start method (workers inherit the bucketed log through
    :data:`_CTX`, which only a fork gives them).  Invalid counts raise
    :class:`~repro.errors.ConfigurationError` via :func:`validate_workers`.
    """
    workers = validate_workers(workers)
    if workers <= 1:
        return None
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return None
    return ctx.Pool(processes=workers)


def _replay_pages(
    pages: List[int],
    undo_by_page: Dict[int, List[UpdateRecord]],
    redo_by_page: Dict[int, List[UpdateRecord]],
    snapshot_lsn: List[int],
    values,
    page_lsn,
) -> Tuple[int, int]:
    """Replay one partition into ``values``/``page_lsn``: per page, undo
    backward then redo forward.  The output containers only need item
    assignment, so the inline path passes the image's own arrays and the
    pool task passes delta dicts.  Returns ``(redone, undone)``."""
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


def _partition_task(
    pages: List[int],
) -> Tuple[Dict[int, Any], Dict[int, int], int, int]:
    """Pool task: replay the pages of one partition from the forked
    context.  Pure CPU over inherited memory; nothing global mutates."""
    assert _CTX is not None
    undo_by_page, redo_by_page, snapshot_lsn = _CTX
    values: Dict[int, Any] = {}
    page_lsn: Dict[int, int] = {}
    redone, undone = _replay_pages(
        pages, undo_by_page, redo_by_page, snapshot_lsn, values, page_lsn
    )
    return values, page_lsn, redone, undone


def parallel_redo(
    state,
    log,
    winners,
    snapshot_lsn: List[int],
    redo_start: int,
    workers: int,
    injector=None,
) -> Tuple[int, int, int, int]:
    """Batched undo + redo of ``log`` into ``state`` across ``workers``.

    Returns ``(scanned, redone, undone, pages_skipped_clean)``.  The
    caller (:func:`repro.recovery.restart.recover`) has already validated
    the crash state, loaded the snapshot, and resolved winners.
    """
    global _CTX

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
    total_records = sum(len(v) for v in undo_by_page.values()) + sum(
        len(v) for v in redo_by_page.values()
    )
    pool = None
    if (
        workers > 1
        and total_records >= MIN_RECORDS_FOR_POOL
        and (os.cpu_count() or 1) > 1
    ):
        _CTX = (undo_by_page, redo_by_page, snapshot_lsn)
        pool = make_pool(workers)

    redone = 0
    undone = 0
    if pool is not None:
        try:
            if injector is not None:
                for idx in range(len(partitions)):
                    injector.point("redo partition %d dispatch" % idx)
            results = pool.map(_partition_task, partitions)
        finally:
            pool.terminate()
            pool.join()
            _CTX = None
        # ---- coordinator merge: disjoint partitions, log order ----
        # ---- within each page, so commit order is preserved.   ----
        if injector is not None:
            injector.point("parallel redo merge")
        values = state.values
        lsns = state.page_lsn
        for part_values, part_lsn, part_redone, part_undone in results:
            for record_id, value in part_values.items():
                values[record_id] = value
            for page, lsn in part_lsn.items():
                lsns[page] = lsn
            redone += part_redone
            undone += part_undone
    else:
        # Inline: the same partition tasks, writing deltas straight into
        # the image (partitions are disjoint, so no merge is needed).
        for idx, pages in enumerate(partitions):
            if injector is not None:
                injector.point("redo partition %d dispatch" % idx)
            part_redone, part_undone = _replay_pages(
                pages,
                undo_by_page,
                redo_by_page,
                snapshot_lsn,
                state.values,
                state.page_lsn,
            )
            redone += part_redone
            undone += part_undone
        # Keep the chaos-point schedule identical to the pool path.
        if injector is not None:
            injector.point("parallel redo merge")
    return scanned, redone, undone, pages_skipped_clean


__all__ = [
    "MIN_RECORDS_FOR_POOL",
    "make_pool",
    "parallel_redo",
    "validate_workers",
]

"""The log manager: conventional WAL, group commit, and stable memory.

Section 5.2's arithmetic, implemented:

* **Conventional** -- every commit forces the current (usually nearly
  empty) log page to disk and waits 10 ms: at most ~100 commits/second on
  one device.
* **Group commit** -- the commit record is appended and the transaction
  *pre-commits*; the page is written when full, so ~10 "typical" (400-byte)
  transactions share one 10 ms write: ~1000 commits/second.
* **Stable memory** -- the commit record lands in battery-backed memory
  and the transaction is durable immediately; pages drain to disk in the
  background, optionally compressed to new-values-only (Section 5.4),
  which stretches the same drain bandwidth over ~1.8x the transactions.

With several log devices, commit groups form the paper's *topological
lattice*: a group may not reach disk before every group it depends on
(through pre-committed lock hand-offs) is durable; independent roots write
simultaneously.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.recovery.log_device import PartitionedLog
from repro.recovery.records import (
    DEFAULT_SIZING,
    CommitRecord,
    LogRecord,
    RecordSizing,
    pack_pages,
)
from repro.recovery.stable_memory import StableMemory
from repro.sim.events import EventQueue
from repro.errors import ConfigurationError


class CommitPolicy(enum.Enum):
    """The three Section 5 commit disciplines (see module docstring)."""

    CONVENTIONAL = "conventional"
    GROUP = "group"
    STABLE = "stable"


@dataclass
class _CommitGroup:
    """The transactions sharing one log page, plus its dependency edges."""

    group_id: int
    stream: int = 0
    records: List[LogRecord] = field(default_factory=list)
    bytes_used: int = 0
    commit_tids: List[int] = field(default_factory=list)
    #: Commit groups that must be durable before this page may be written.
    depends_on: Set[int] = field(default_factory=set)
    sealed: bool = False
    dispatched: bool = False
    #: A group-commit timer is pending for this group.  One timer per
    #: group: the first commit arms it, later commits ride the same bound.
    timer_armed: bool = False


class LogManager:
    """Appends records, packs pages, and enforces commit ordering."""

    def __init__(
        self,
        queue: EventQueue,
        policy: CommitPolicy = CommitPolicy.GROUP,
        devices: int = 1,
        sizing: RecordSizing = DEFAULT_SIZING,
        page_write_time: float = 0.010,
        stable: Optional[StableMemory] = None,
        compress: bool = False,
        on_commit: Optional[Callable[[int], None]] = None,
        max_commit_delay: Optional[float] = None,
        pipeline: bool = False,
    ) -> None:
        """``max_commit_delay`` bounds group-commit latency: a page holding
        a commit record is force-sealed that many seconds after the commit
        was appended even if it never fills -- the timer real group-commit
        implementations add so a lone transaction on an idle system is not
        stranded in the buffer.

        ``pipeline`` pins each commit stream to its own log device, so a
        stream's sealed groups queue FIFO on one device while other
        streams flush concurrently -- instead of every group racing to the
        momentarily least-busy device and the streams advancing in
        lockstep.  Off by default (least-busy dispatch, the seed
        behaviour)."""
        if policy is CommitPolicy.STABLE and stable is None:
            stable = StableMemory()
        if compress and policy is not CommitPolicy.STABLE:
            raise ConfigurationError(
                "new-value-only compression needs the stable-memory policy: "
                "old values may only be dropped once the transaction is "
                "durably committed (Section 5.4)"
            )
        self.queue = queue
        self.policy = policy
        self.sizing = sizing
        self.stable = stable
        self.compress = compress
        self.on_commit = on_commit
        #: Optional batch completion hook: called once per durable commit
        #: group with the list of newly durable tids (in commit order).
        #: When set it replaces ``on_commit``; the engine uses it to
        #: finalize a whole page of transactions per call.
        self.on_commit_batch: Optional[Callable[[List[int]], None]] = None
        self.max_commit_delay = max_commit_delay
        self.pipeline = pipeline
        self.log = PartitionedLog(queue, devices, page_write_time)
        #: Optional :class:`repro.chaos.FaultInjector`; group seals are
        #: schedulable points so crash sweeps can land mid-group.
        self.fault_injector = None

        self._next_lsn = 0
        self._next_group = 0
        # One open commit group per device ("stream"): transactions are
        # assigned to streams by tid, so independent transactions fill
        # independent pages that can be written simultaneously -- the
        # parallelism Section 5.2's partitioned log is after.  A single
        # device degenerates to the classic single append stream.
        self._groups: Dict[int, _CommitGroup] = {}
        self._open_groups: List[_CommitGroup] = [
            self._new_open_group(stream) for stream in range(devices)
        ]
        self._parked: Deque[int] = deque()  # sealed groups awaiting deps
        self._durable_groups: Set[int] = set()
        #: tid -> group carrying its commit/abort record (dependency target).
        self._group_of_tid: Dict[int, int] = {}
        #: tid -> groups carrying any of its records.  A transaction's
        #: commit (or abort) group depends on all of them: the WAL rule
        #: that a commit record may not be durable before the updates it
        #: covers, generalised to the partitioned-log lattice.
        self._record_groups: Dict[int, Set[int]] = {}

        self.durable_tids: Set[int] = set()
        self._drain_cursor = 0  # stable records currently in flight
        #: Full (uncompressed) bytes of stable records not yet dispatched
        #: to disk -- an O(1) drain trigger in place of re-summing the
        #: pending tail on every append.  Full-size accounting is safe:
        #: it can only fire the check *early*, and a non-forced drain
        #: writes nothing unless a genuinely full page has formed.
        self._undrained_full_bytes = 0
        self.committed_count = 0
        self.bytes_appended = 0
        self.bytes_written_to_disk = 0
        # Group-commit statistics (the Section 5.2 batching, measured).
        self.groups_sealed = 0
        self._group_records_total = 0
        self._group_bytes_total = 0
        self._group_commits_total = 0
        self.flush_reasons: Dict[str, int] = {}
        self.compression_savings_bytes = 0
        #: Records durable on the disk log OR in stable memory, in LSN
        #: order -- what restart recovery reads.
        self._durable_records: List[LogRecord] = []

    # -- bookkeeping -------------------------------------------------------------

    def _alloc_group(self) -> int:
        gid = self._next_group
        self._next_group += 1
        return gid

    def _new_open_group(self, stream: int = 0) -> _CommitGroup:
        group = _CommitGroup(group_id=self._alloc_group(), stream=stream)
        self._groups[group.group_id] = group
        return group

    def _stream_of(self, tid: int) -> int:
        return tid % len(self._open_groups)

    def _open_for(self, tid: int) -> _CommitGroup:
        return self._open_groups[self._stream_of(tid)]

    def next_lsn(self) -> int:
        return self._next_lsn

    # -- appends -----------------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        """Assign an LSN and buffer ``record``; returns the LSN."""
        record.lsn = self._next_lsn
        self._next_lsn += 1
        self.bytes_appended += record.size(self.sizing)

        if self.policy is CommitPolicy.STABLE:
            assert self.stable is not None
            self.stable.append_record(record, self.sizing)
            self._undrained_full_bytes += record.size(self.sizing)
            self._maybe_drain_stable()
            return record.lsn

        size = record.size(self.sizing)
        stream = self._stream_of(record.tid)
        if self._open_groups[stream].bytes_used + size > self.sizing.page_bytes:
            self._seal_open_group(stream, reason="fill")
        group = self._open_groups[stream]
        group.records.append(record)
        group.bytes_used += size
        self._record_groups.setdefault(record.tid, set()).add(group.group_id)
        return record.lsn

    def append_commit(
        self, tid: int, dependencies: Set[int] = frozenset()
    ) -> int:
        """Append ``tid``'s commit record; wire its group dependencies.

        ``dependencies`` are the pre-committed transactions ``tid`` picked
        up through the lock table; the commit group inherits the commit
        groups of any that are not yet durable.
        """
        record = CommitRecord(tid=tid)
        lsn = self.append(record)

        if self.policy is CommitPolicy.STABLE:
            # Durable the instant it is in stable memory.
            self._mark_durable_tid(tid)
            return lsn

        group = self._open_for(tid)
        group.commit_tids.append(tid)
        self._group_of_tid[tid] = group.group_id
        # WAL: every group holding this transaction's own records must be
        # durable first.
        for gid in self._record_groups.get(tid, ()):
            if gid != group.group_id:
                group.depends_on.add(gid)
        # Pre-commit ordering: every not-yet-durable dependency's commit
        # (or abort) group must be durable first.  A dependency whose
        # group is still open gets sealed *now*: edges must always point
        # to already-sealed groups, which makes the lattice a DAG by
        # construction (otherwise two streams could park on each other).
        for dep in dependencies:
            if dep in self.durable_tids:
                continue
            dep_gid = self._group_of_tid.get(dep)
            if dep_gid is None or dep_gid == group.group_id:
                continue
            dep_group = self._groups.get(dep_gid)
            if dep_group is not None and not dep_group.sealed:
                self._seal_open_group(dep_group.stream, reason="dependency")
            group.depends_on.add(dep_gid)

        if self.policy is CommitPolicy.CONVENTIONAL:
            # Force the log: the page goes out now, mostly empty.
            self._seal_open_group(self._stream_of(tid), reason="force")
        elif group.bytes_used >= self.sizing.page_bytes:
            self._seal_open_group(self._stream_of(tid), reason="fill")
        elif self.max_commit_delay is not None and not group.timer_armed:
            # Group-commit timer: make sure this commit's page goes out
            # within the latency bound even if traffic stops.  One timer
            # per group -- the first commit arms it; re-arming on every
            # commit would only schedule no-op events behind it.
            group.timer_armed = True
            gid = group.group_id
            self.queue.schedule(
                self.max_commit_delay,
                lambda: self._seal_if_still_open(gid),
                label="group commit timer",
            )
        return lsn

    def _seal_if_still_open(self, group_id: int) -> None:
        for stream, group in enumerate(self._open_groups):
            if group.group_id == group_id and group.records:
                self._seal_open_group(stream, reason="timer")
                return

    def append_abort(self, tid: int) -> int:
        """Append ``tid``'s abort record, wired like a commit group.

        The abort group depends on the groups carrying the transaction's
        updates and compensations, so a durable abort record certifies the
        whole rollback history is durable -- recovery then *redoes* the
        compensations rather than undoing the transaction.
        """
        from repro.recovery.records import AbortRecord

        record = AbortRecord(tid=tid)
        lsn = self.append(record)
        if self.policy is CommitPolicy.STABLE:
            return lsn
        group = self._open_for(tid)
        self._group_of_tid[tid] = group.group_id
        for gid in self._record_groups.get(tid, ()):
            if gid != group.group_id:
                group.depends_on.add(gid)
        return lsn

    def flush(self) -> None:
        """Seal and dispatch the open page (end of run / idle timeout)."""
        if self.policy is CommitPolicy.STABLE:
            self._drain_stable(force=True)
            return
        for stream, group in enumerate(self._open_groups):
            if group.records:
                self._seal_open_group(stream, reason="flush")

    def commit_barrier(self) -> int:
        """Explicit barrier: seal every open group *now*, ahead of both the
        fill and timer triggers (the third arm of the adaptive policy --
        checkpointers and shutdown paths use it to bound what a crash can
        strand in the buffer).  Returns how many non-empty groups sealed;
        under the stable policy it instead forces a full drain."""
        if self.policy is CommitPolicy.STABLE:
            self._drain_stable(force=True)
            return 0
        sealed = 0
        for stream, group in enumerate(self._open_groups):
            if group.records:
                self._seal_open_group(stream, reason="barrier")
                sealed += 1
        return sealed

    # -- group sealing and dispatch ---------------------------------------------------

    def _note_group(
        self, reason: str, n_records: int, disk_bytes: int, n_commits: int
    ) -> None:
        self.groups_sealed += 1
        self._group_records_total += n_records
        self._group_bytes_total += disk_bytes
        self._group_commits_total += n_commits
        self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1

    def _seal_open_group(self, stream: int, reason: str = "fill") -> None:
        group = self._open_groups[stream]
        if group.records and self.fault_injector is not None:
            # Mid-group crash point: the group is about to leave the
            # buffer; a crash here strands exactly this page's records.
            self.fault_injector.point(
                "group seal g%d %s" % (group.group_id, reason)
            )
        group.sealed = True
        self._open_groups[stream] = self._new_open_group(stream)
        if group.records:
            self._note_group(
                reason, len(group.records), group.bytes_used,
                len(group.commit_tids),
            )
            self._parked.append(group.group_id)
            self._dispatch_ready()
        else:
            # Empty page: trivially durable.
            self._durable_groups.add(group.group_id)
            self._groups.pop(group.group_id, None)

    def _dispatch_ready(self) -> None:
        """Write every parked group whose dependencies are durable.

        "The roots of the topological lattice can be written to disk
        simultaneously" -- each eligible group goes to the least busy
        device.
        """
        still_parked: Deque[int] = deque()
        while self._parked:
            gid = self._parked.popleft()
            group = self._groups[gid]
            if group.dispatched:
                continue
            if group.depends_on - self._durable_groups:
                still_parked.append(gid)
                continue
            group.dispatched = True
            self._write_group(group)
        self._parked = still_parked

    def _write_group(self, group: _CommitGroup) -> None:
        if self.pipeline:
            # Stream affinity: this stream's pages queue FIFO on its own
            # device; other streams' groups flush concurrently on theirs.
            device = self.log.device_for(group.stream)
        else:
            device = self.log.least_busy()

        self.bytes_written_to_disk += group.bytes_used

        def complete(_page) -> None:
            self._durable_groups.add(group.group_id)
            # The group's records are durable; drop the group object so the
            # horizon scan stays proportional to in-flight pages.
            self._groups.pop(group.group_id, None)
            self._durable_records.extend(group.records)
            self._mark_durable_group(group.commit_tids)
            self._dispatch_ready()

        device.write_page(list(group.records), complete)

    def _mark_durable_tid(self, tid: int) -> None:
        self._mark_durable_group([tid])

    def _mark_durable_group(self, tids: List[int]) -> None:
        """The whole group's commits became durable at once: record them
        and notify -- one batch callback when the engine installed one,
        else one ``on_commit`` per tid (seed behaviour)."""
        newly = [t for t in tids if t not in self.durable_tids]
        if not newly:
            return
        self.durable_tids.update(newly)
        self.committed_count += len(newly)
        if self.on_commit_batch is not None:
            self.on_commit_batch(newly)
        elif self.on_commit is not None:
            for tid in newly:
                self.on_commit(tid)

    # -- stable-memory drain ------------------------------------------------------------

    def _maybe_drain_stable(self) -> None:
        # O(1) trigger: a full page cannot have formed while even the
        # *uncompressed* undrained bytes are below one page.
        if self._undrained_full_bytes >= self.sizing.page_bytes:
            self._drain_stable(force=False)

    def _drain_stable(self, force: bool) -> None:
        """Pack pending stable records into pages and write them out.

        Records stay in stable memory until the disk write *completes*
        (releasing them at dispatch would lose them to a crash that lands
        mid-write); ``_drain_cursor`` marks how many are already in
        flight.  The whole undrained tail is encoded in one
        :func:`~repro.recovery.records.pack_pages` pass -- compression
        (Section 5.4, new values only for durably committed transactions)
        is applied per group, not re-derived per record per poke.
        """
        assert self.stable is not None
        compressible = self.durable_tids if self.compress else None
        for page_records, used, closed in pack_pages(
            self.stable.iter_pending(self._drain_cursor),
            self.sizing,
            compressible,
        ):
            if not closed and not force:
                return  # wait for a full page's worth
            full = sum(r.size(self.sizing) for r in page_records)
            self._drain_cursor += len(page_records)
            self._undrained_full_bytes -= full
            self.bytes_written_to_disk += used
            self.compression_savings_bytes += full - used
            n_commits = sum(
                1 for r in page_records if isinstance(r, CommitRecord)
            )
            self._note_group("drain", len(page_records), used, n_commits)
            durable = list(page_records)

            def complete(_page, records=durable) -> None:
                self._durable_records.extend(records)
                self.stable.release_records(len(records), self.sizing)
                self._drain_cursor -= len(records)

            self.log.least_busy().write_page(durable, complete)
            if not force:
                # One page per poke; the next append re-checks.
                return

    def durable_lsn_horizon(self) -> int:
        """Largest LSN L such that every record with lsn <= L is durable.

        The WAL bound the checkpointer needs: a data page may only be
        written to the snapshot disk once the log covering its updates is
        safe.  Stable-memory records are durable the moment they are
        appended, so under that policy the horizon is simply the last
        assigned LSN.
        """
        if self.policy is CommitPolicy.STABLE:
            return self._next_lsn - 1
        horizon = self._next_lsn - 1
        for group in self._groups.values():
            if group.group_id in self._durable_groups or not group.records:
                continue
            first = group.records[0].lsn
            horizon = min(horizon, first - 1)
        return horizon

    # -- recovery interface ---------------------------------------------------------------

    def durable_log(self) -> List[LogRecord]:
        """Every record recovery can see, in LSN order.

        Disk pages plus -- because it survives the crash -- whatever is
        still buffered in stable memory.
        """
        by_lsn: Dict[int, LogRecord] = {r.lsn: r for r in self._durable_records}
        if self.stable is not None:
            # In-flight drains leave records both dispatched and stable;
            # keying by LSN deduplicates them.
            for record in self.stable.pending_records():
                by_lsn[record.lsn] = record
        return [by_lsn[lsn] for lsn in sorted(by_lsn)]

    def truncate_before(self, lsn: int) -> int:
        """Discard durable records with ``lsn < lsn`` -- log space
        management (Section 5.4's theme): once a checkpoint guarantees
        recovery never reads below the dirty-page-table minimum, the
        prefix can be reclaimed.  Returns how many records were dropped.

        Callers are responsible for passing a safe bound (the recovery
        redo start, i.e. ``min`` of the stable dirty-page table, and no
        later than the oldest active transaction's begin record).
        """
        before = len(self._durable_records)
        self._durable_records = [
            r for r in self._durable_records if r.lsn >= lsn
        ]
        dropped = before - len(self._durable_records)
        self.records_truncated = getattr(self, "records_truncated", 0) + dropped
        return dropped

    def stats(self) -> Dict[str, float]:
        return {
            "committed": self.committed_count,
            "pages_written": self.log.pages_written,
            "bytes_appended": self.bytes_appended,
            "bytes_written_to_disk": self.bytes_written_to_disk,
            "groups_sealed": self.groups_sealed,
        }

    def group_commit_stats(self) -> Dict[str, object]:
        """The batching the adaptive flush policy actually achieved:
        groups sealed, mean group size (records / bytes / commits), a
        histogram of why each group left the buffer, and the bytes the
        new-value-only compression fast path saved."""
        sealed = self.groups_sealed
        return {
            "groups_sealed": sealed,
            "mean_group_records": (
                self._group_records_total / sealed if sealed else 0.0
            ),
            "mean_group_bytes": (
                self._group_bytes_total / sealed if sealed else 0.0
            ),
            "mean_commits_per_group": (
                self._group_commits_total / sealed if sealed else 0.0
            ),
            "flush_reasons": dict(self.flush_reasons),
            "compression_savings_bytes": self.compression_savings_bytes,
        }


__all__ = ["CommitPolicy", "LogManager"]

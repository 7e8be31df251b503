"""Deterministic fault injection over the discrete-event simulation.

The recovery stack's correctness claim -- Section 5's "reload the snapshot
and apply the log" survives *any* crash -- is only as strong as the crash
points it has been tested at.  :class:`FaultInjector` turns every place
durable state can change into a **schedulable point**:

* every event boundary in :class:`~repro.sim.events.EventQueue` (arrivals,
  log-page completions, checkpoint installs, timers);
* every log-page dispatch in :class:`~repro.recovery.log_device.LogDevice`
  (a commit group leaving the buffer);
* every synchronous append to
  :class:`~repro.recovery.stable_memory.StableMemory` (durable the moment
  it happens -- no event involved);
* every checkpoint copy dispatch in
  :class:`~repro.recovery.checkpoint.Checkpointer`;
* every :class:`~repro.storage.buffer.BufferPool` fault and every
  :class:`~repro.core.database.MainMemoryDatabase` statement (the query
  side of the house).

Points are numbered in execution order, which is deterministic (the event
queue breaks ties by insertion sequence), so "crash at point k" names an
exact machine state and every failure is replayable from ``(config, plan)``
alone.  Beyond crashes the injector can stretch individual device writes
(slow sectors reordering completion *across* devices while preserving each
device's FIFO), drop checkpoint installs (failed snapshot writes), and --
at crash time -- tear in-flight log pages so only a prefix survives, the
way a real sector-checksummed log loses the partially-written tail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

# Deliberately NOT a ReproError: a crash signal must never be swallowed by
# an `except ReproError` recovery path -- only the harness may catch it.
class CrashSignal(Exception):  # repro-lint: disable=exception-base
    """Raised at an injected crash point to freeze the simulation.

    Carries the point index and label so failures replay exactly.  The
    harness catches it, captures the durable state with
    :func:`repro.recovery.restart.crash`, and runs recovery.
    """

    def __init__(self, point: int, label: str) -> None:
        super().__init__("injected crash at point %d (%s)" % (point, label))
        self.point = point
        self.label = label


@dataclass
class FaultPlan:
    """A deterministic recipe of faults for one simulation run.

    The same plan against the same scenario produces the same execution,
    which is what makes every chaos failure a replayable seed.
    """

    #: Crash when the point counter reaches this index (None = never).
    crash_at_point: Optional[int] = None
    #: Per-write probability of stretching a device write.
    write_delay_prob: float = 0.0
    #: Maximum stretch, seconds (actual is uniform in (0, max]).
    write_delay_max: float = 0.0
    #: Per-page probability, at crash time, that an in-flight log page
    #: survives as a torn prefix rather than vanishing.
    tear_prob: float = 0.0
    #: Per-install probability that a checkpoint copy is dropped.
    drop_checkpoint_prob: float = 0.0
    #: Seed for every sampled decision above.
    seed: int = 0
    # -- executor seams (the query side of the house; see docs/ROBUSTNESS.md).
    #: Cancel the running query's token at this executor checkpoint.
    cancel_at_page: Optional[int] = None
    #: Revoke the running query's memory grant at this checkpoint ...
    revoke_at_page: Optional[int] = None
    #: ... down to this many pages.
    revoke_to_pages: int = 2

    def describe(self) -> str:
        parts = ["crash@%s" % self.crash_at_point]
        if self.cancel_at_page is not None:
            parts.append("cancel@page%d" % self.cancel_at_page)
        if self.revoke_at_page is not None:
            parts.append(
                "revoke@page%d->%dp" % (self.revoke_at_page, self.revoke_to_pages)
            )
        if self.write_delay_prob:
            parts.append(
                "delay(p=%.2f,max=%gs)" % (self.write_delay_prob, self.write_delay_max)
            )
        if self.tear_prob:
            parts.append("tear(p=%.2f)" % self.tear_prob)
        if self.drop_checkpoint_prob:
            parts.append("drop-ckpt(p=%.2f)" % self.drop_checkpoint_prob)
        parts.append("seed=%d" % self.seed)
        return " ".join(parts)


class FaultInjector:
    """Counts schedulable points and executes a :class:`FaultPlan`.

    With the default (empty) plan the injector only *counts* -- a profiling
    run uses that to learn how many crash points a scenario has, so sweeps
    can enumerate them exhaustively or sample them uniformly.
    """

    #: How many recent point labels to keep for failure reports.
    TRACE_DEPTH = 20

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._rng = random.Random(self.plan.seed)
        self.points = 0
        self.crashed = False
        self.delays_injected = 0
        self.checkpoint_writes_dropped = 0
        self.pages_torn = 0
        self.trace: List[str] = []
        # Executor-seam tallies (see executor_page).
        self.exec_pages = 0
        self.queries_cancelled = 0
        self.grants_revoked = 0

    # -- constructors ------------------------------------------------------------

    @classmethod
    def counting(cls) -> "FaultInjector":
        """Profiling mode: count points, inject nothing."""
        return cls(FaultPlan())

    @classmethod
    def crash_at(cls, point: int) -> "FaultInjector":
        """Exhaustive-sweep mode: a clean crash at exactly ``point``."""
        return cls(FaultPlan(crash_at_point=point))

    @classmethod
    def seeded(cls, seed: int, max_point: int) -> "FaultInjector":
        """Sampled mode: derive a full fault schedule from one seed.

        The crash point is uniform over ``[0, max_point * 1.25]`` -- the
        slack lets some schedules crash after the workload settles (a
        crash on an idle system) or not at all, both worth covering.
        Delay, tear, and drop probabilities are themselves sampled so
        different seeds explore different fault mixes.
        """
        rng = random.Random(seed)
        slack = int(max_point * 1.25) + 1
        plan = FaultPlan(
            crash_at_point=rng.randrange(0, slack),
            write_delay_prob=rng.uniform(0.0, 0.35),
            write_delay_max=rng.uniform(0.001, 0.03),
            tear_prob=rng.uniform(0.0, 0.8),
            drop_checkpoint_prob=rng.uniform(0.0, 0.25),
            seed=seed,
        )
        return cls(plan)

    @classmethod
    def seeded_executor(cls, seed: int, max_pages: int) -> "FaultInjector":
        """A seeded executor fault schedule (query side of the house).

        Mirrors :meth:`seeded` for the governor's seams: the seed fully
        determines whether/where the schedule cancels the query and
        revokes its memory grant, and how deep the revocation cuts.
        The 1.25 slack means some schedules fire after the query finished
        -- a no-op run, worth covering like the recovery sweep's
        crash-on-idle case.
        """
        rng = random.Random(seed ^ 0xE8EC)
        slack = int(max_pages * 1.25) + 1
        cancel = rng.randrange(0, slack) if rng.random() < 0.35 else None
        revoke = rng.randrange(0, slack) if rng.random() < 0.6 else None
        plan = FaultPlan(
            cancel_at_page=cancel,
            revoke_at_page=revoke,
            revoke_to_pages=rng.randrange(2, 8),
            seed=seed,
        )
        return cls(plan)

    # -- wiring ------------------------------------------------------------------

    def attach(
        self,
        queue=None,
        log_manager=None,
        checkpointer=None,
        buffer_pool=None,
        database=None,
    ) -> "FaultInjector":
        """Hook this injector into the given components' chaos seams."""
        if queue is not None:
            queue.fault_injector = self
        if log_manager is not None:
            log_manager.fault_injector = self  # group-seal points
            log_manager.log.attach_fault_injector(self)
            if log_manager.stable is not None:
                log_manager.stable.on_append = self._on_stable_append
        if checkpointer is not None:
            checkpointer.fault_injector = self
        if buffer_pool is not None:
            buffer_pool.fault_injector = self
        if database is not None:
            database.attach_chaos(self)
        return self

    # -- the point counter -------------------------------------------------------

    def point(self, label: str) -> None:
        """Tick one schedulable point; crash here if the plan says so."""
        index = self.points
        self.points += 1
        self.trace.append(label)
        if len(self.trace) > self.TRACE_DEPTH:
            del self.trace[0]
        if (
            not self.crashed
            and self.plan.crash_at_point is not None
            and index >= self.plan.crash_at_point
        ):
            self.crashed = True
            raise CrashSignal(index, label)

    def on_event(self, event) -> None:
        """EventQueue seam: each event boundary is a point."""
        self.point("event:%s" % (event.label or "?"))

    def _on_stable_append(self, record) -> None:
        self.point("stable append lsn=%d" % record.lsn)

    # -- sampled faults ----------------------------------------------------------

    def write_delay(self, device_id: int) -> float:
        """Extra seconds to add to one device write (0.0 = healthy)."""
        if self.plan.write_delay_prob <= 0.0:
            return 0.0
        if self._rng.random() >= self.plan.write_delay_prob:
            return 0.0
        self.delays_injected += 1
        return self._rng.uniform(0.0, self.plan.write_delay_max) or (
            self.plan.write_delay_max / 2.0
        )

    def drop_checkpoint_write(self, page_id: int) -> bool:
        """Whether to lose this checkpoint install entirely."""
        if self.plan.drop_checkpoint_prob <= 0.0:
            return False
        if self._rng.random() >= self.plan.drop_checkpoint_prob:
            return False
        self.checkpoint_writes_dropped += 1
        return True

    # -- executor seam (governor) ------------------------------------------------

    def executor_page(self, token=None, grant=None) -> None:
        """Tick one executor checkpoint; fire cancel/revoke if scheduled.

        Wired as ``CancellationToken.on_check`` by
        :meth:`repro.governor.Governor.attach_chaos`, so it fires exactly
        once per page of query work -- the same deterministic numbering
        that makes crash points replayable makes these faults replayable.
        """
        idx = self.exec_pages
        self.exec_pages += 1
        if token is not None and self.plan.cancel_at_page == idx:
            token.cancel()
            self.queries_cancelled += 1
        if grant is not None and self.plan.revoke_at_page == idx:
            grant.revoke(self.plan.revoke_to_pages)
            self.grants_revoked += 1

    # -- torn pages --------------------------------------------------------------

    def torn_records(self, log_manager) -> List[object]:
        """Sample, at crash time, which in-flight log pages survive torn.

        A page write the crash caught mid-transfer normally vanishes; with
        probability ``tear_prob`` a *prefix* of its records made it to the
        platter before power failed (the trailing partial record is
        discarded by the page checksum, so tears always land on record
        boundaries).  Returns the surviving records; the harness merges
        them into the crash state's durable log by LSN.
        """
        if self.plan.tear_prob <= 0.0:
            return []
        survivors: List[object] = []
        for device_id, page_number, payload in log_manager.log.in_flight_writes():
            if not payload or self._rng.random() >= self.plan.tear_prob:
                continue
            keep = self._rng.randrange(0, len(payload) + 1)
            if keep == 0:
                continue
            self.pages_torn += 1
            survivors.extend(payload[:keep])
        return survivors

    def __repr__(self) -> str:
        return "FaultInjector(points=%d, crashed=%s, plan=%s)" % (
            self.points,
            self.crashed,
            self.plan.describe(),
        )


__all__ = [
    "CrashSignal",
    "FaultInjector",
    "FaultPlan",
]

"""Crash-point sweeps: enumerate or sample every way the system can die.

The scenario is the Section 5 recovery stack end to end -- banking
transactions through the lock table, a commit policy, a partitioned log,
the fuzzy checkpointer -- driven deterministically by the discrete-event
queue.  A **profiling run** (no faults) counts the scenario's schedulable
points; the **exhaustive sweep** then re-runs the scenario once per point
with a clean crash injected exactly there, and the **seeded sweep** draws
whole fault schedules (crash point + write delays + torn pages + dropped
checkpoint installs) from single integer seeds.  After every crash the
:class:`~repro.chaos.invariants.InvariantChecker` recovers and verifies
the contract, including the dict-backed differential oracle.

Every failure is reported as a replayable key: the crash-point index for
exhaustive mode, the schedule seed for sampled mode.  ``pytest
tests/chaos --chaos-seed <n>`` replays one schedule under the debugger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.chaos.injector import CrashSignal, FaultInjector
from repro.chaos.invariants import (
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
)
from repro.recovery.checkpoint import Checkpointer
from repro.recovery.log_manager import CommitPolicy, LogManager
from repro.recovery.restart import CrashState, crash
from repro.recovery.stable_memory import StableMemory
from repro.recovery.state import DatabaseState, DiskSnapshot
from repro.recovery.transactions import TransactionEngine, TransactionState
from repro.sim.clock import SimulatedClock
from repro.sim.events import EventQueue
from repro.workload.banking import BankingWorkload
from repro.errors import StateError


@dataclass(frozen=True)
class ScenarioConfig:
    """One deterministic recovery scenario (workload + stack shape)."""

    n_accounts: int = 40
    records_per_page: int = 8
    initial_balance: int = 100
    n_transactions: int = 20
    arrival: float = 0.002
    policy: CommitPolicy = CommitPolicy.GROUP
    devices: int = 1
    checkpoint_interval: float = 0.05
    transfer_fraction: float = 0.7
    deposit_fraction: float = 0.2
    workload_seed: int = 1984
    stable_capacity: int = 1 << 20
    #: Slack after the last arrival before the first forced flush.
    settle: float = 0.2

    def describe(self) -> str:
        return (
            "%s x%d dev, %d txns over %d accounts (seed %d)"
            % (
                self.policy.value,
                self.devices,
                self.n_transactions,
                self.n_accounts,
                self.workload_seed,
            )
        )


@dataclass
class ScenarioRun:
    """A live (possibly crashed) instance of the scenario."""

    config: ScenarioConfig
    injector: FaultInjector
    queue: EventQueue
    state: DatabaseState
    log_manager: LogManager
    engine: TransactionEngine
    checkpointer: Checkpointer
    scripts_by_tid: Dict[int, Sequence[Tuple]]
    deposit_by_tid: Dict[int, int]
    crashed: bool = False
    crash_signal: Optional[CrashSignal] = None

    @property
    def acked_tids(self) -> Set[int]:
        """Transactions whose commit was acknowledged before the crash."""
        return {t.tid for t in self.engine.committed}

    @property
    def active_tids(self) -> Set[int]:
        """Transactions still running (neither pre-committed nor aborted)."""
        return {
            tid
            for tid, t in self.engine.transactions.items()
            if t.state in (TransactionState.ACTIVE, TransactionState.WAITING)
        }


@dataclass
class ChaosFailure:
    """One invariant violation, keyed for exact replay."""

    mode: str          # "exhaustive" or "seeded"
    key: int           # crash-point index or schedule seed
    invariant: str
    detail: str
    plan: str
    trace: List[str] = field(default_factory=list)

    def replay_hint(self) -> str:
        if self.mode == "seeded":
            return (
                "replay: pytest tests/chaos --chaos-seed %d  (plan: %s)"
                % (self.key, self.plan)
            )
        return (
            "replay: run_scenario(config, FaultInjector.crash_at(%d))"
            % self.key
        )

    def __str__(self) -> str:
        return "[%s %s] %s -- %s | %s" % (
            self.mode,
            self.key,
            self.invariant,
            self.detail,
            self.replay_hint(),
        )


@dataclass
class SweepReport:
    """Aggregate result of a sweep."""

    config: ScenarioConfig
    mode: str
    total_points: int
    runs: int = 0
    crashes: int = 0
    invariants_checked: int = 0
    pages_torn: int = 0
    delays_injected: int = 0
    checkpoint_writes_dropped: int = 0
    failures: List[ChaosFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            "chaos sweep [%s] over %s" % (self.mode, self.config.describe()),
            "  %d runs, %d crashes, %d schedulable points, %d invariant "
            "checks" % (self.runs, self.crashes, self.total_points,
                        self.invariants_checked),
            "  faults: %d delayed writes, %d torn pages, %d dropped "
            "checkpoint installs" % (self.delays_injected, self.pages_torn,
                                     self.checkpoint_writes_dropped),
        ]
        if self.failures:
            lines.append("  FAILURES (%d):" % len(self.failures))
            lines.extend("    %s" % f for f in self.failures)
        else:
            lines.append("  all invariants held")
        return "\n".join(lines)


# -- scenario construction and driving ---------------------------------------------


def build_scenario(config: ScenarioConfig, injector: FaultInjector) -> ScenarioRun:
    """Construct the full stack with the injector wired into every seam."""
    queue = EventQueue(SimulatedClock())
    state = DatabaseState(
        config.n_accounts,
        config.records_per_page,
        initial_value=config.initial_balance,
    )
    stable = (
        StableMemory(config.stable_capacity)
        if config.policy is CommitPolicy.STABLE
        else None
    )
    log_manager = LogManager(
        queue, policy=config.policy, devices=config.devices, stable=stable
    )
    engine = TransactionEngine(state, queue, log_manager)
    checkpointer = Checkpointer(
        engine, DiskSnapshot(), interval=config.checkpoint_interval
    )
    injector.attach(queue=queue, log_manager=log_manager, checkpointer=checkpointer)

    bank = BankingWorkload(
        config.n_accounts,
        initial_balance=config.initial_balance,
        transfer_fraction=config.transfer_fraction,
        deposit_fraction=config.deposit_fraction,
        seed=config.workload_seed,
    )
    scripts = [bank.next_script() for _ in range(config.n_transactions)]
    # Submission order is deterministic (strictly increasing arrival
    # times), so the i-th script always becomes tid i+1.
    scripts_by_tid = {i + 1: script for i, (script, _) in enumerate(scripts)}
    deposit_by_tid = {i + 1: amount for i, (_, amount) in enumerate(scripts)}

    return ScenarioRun(
        config=config,
        injector=injector,
        queue=queue,
        state=state,
        log_manager=log_manager,
        engine=engine,
        checkpointer=checkpointer,
        scripts_by_tid=scripts_by_tid,
        deposit_by_tid=deposit_by_tid,
    )


def run_scenario(config: ScenarioConfig, injector: FaultInjector) -> ScenarioRun:
    """Drive the scenario to completion or to its injected crash."""
    run = build_scenario(config, injector)
    try:
        run.checkpointer.start()
        for i, tid in enumerate(sorted(run.scripts_by_tid)):
            run.engine.submit_at(i * config.arrival, run.scripts_by_tid[tid])
        settle = config.n_transactions * config.arrival + config.settle
        run.queue.run_until(settle)
        # Two flush rounds: the first seals open commit groups, the second
        # catches pages sealed by completions of the first.
        run.log_manager.flush()
        run.queue.run_until(settle + 0.5)
        run.log_manager.flush()
        run.queue.run_until(settle + 1.0)
    except CrashSignal as signal:
        run.crashed = True
        run.crash_signal = signal
    return run


def profile_points(config: ScenarioConfig) -> int:
    """Count the scenario's schedulable points with a fault-free run."""
    run = run_scenario(config, FaultInjector.counting())
    if run.crashed:
        raise StateError("profiling run crashed without a fault plan")
    laggards = [
        tid
        for tid, t in run.engine.transactions.items()
        if t.state
        not in (TransactionState.COMMITTED, TransactionState.ABORTED)
    ]
    if laggards:
        raise StateError(
            "profiling run left transactions unresolved: %s -- raise "
            "ScenarioConfig.settle" % laggards
        )
    return run.injector.points


def capture(run: ScenarioRun) -> CrashState:
    """Freeze the durable state, merging any torn-page survivors."""
    crash_state = crash(run.engine, run.checkpointer)
    torn = run.injector.torn_records(run.log_manager)
    if torn:
        by_lsn = {r.lsn: r for r in crash_state.durable_log}
        for record in torn:
            by_lsn.setdefault(record.lsn, record)
        crash_state.durable_log = [by_lsn[lsn] for lsn in sorted(by_lsn)]
    return crash_state


def check_run(
    run: ScenarioRun, redo_workers: Optional[int] = None
) -> InvariantReport:
    """Capture, recover, and verify one crashed (or settled) run.

    ``redo_workers`` additionally verifies the parallel partitioned-log
    recovery path against the serial one on the same crash state."""
    checker = InvariantChecker(
        initial_value=run.config.initial_balance,
        scripts_by_tid=run.scripts_by_tid,
        deposit_by_tid=run.deposit_by_tid,
        redo_workers=redo_workers,
    )
    return checker.check(capture(run), run.acked_tids, run.active_tids)


# -- sweeps -------------------------------------------------------------------------


def exhaustive_sweep(
    config: ScenarioConfig,
    stride: int = 1,
    points: Optional[int] = None,
    redo_workers: Optional[int] = None,
) -> SweepReport:
    """Crash at every ``stride``-th schedulable point and verify.

    ``points`` skips the profiling run when the caller already knows the
    count (the benchmark reuses it across configurations).
    ``redo_workers`` additionally checks parallel-redo equivalence on
    every crash state (one extra invariant per verified run).
    """
    if points is None:
        points = profile_points(config)
    report = SweepReport(config=config, mode="exhaustive", total_points=points)
    for target in range(0, points, stride):
        injector = FaultInjector.crash_at(target)
        run = run_scenario(config, injector)
        report.runs += 1
        if not run.crashed:
            report.failures.append(
                ChaosFailure(
                    mode="exhaustive",
                    key=target,
                    invariant="determinism",
                    detail="crash point %d < profiled %d never fired"
                    % (target, points),
                    plan=injector.plan.describe(),
                    trace=list(injector.trace),
                )
            )
            continue
        report.crashes += 1
        _verify(report, run, "exhaustive", target, redo_workers)
    return report


def seeded_sweep(
    config: ScenarioConfig,
    seeds: Iterable[int],
    redo_workers: Optional[int] = None,
) -> SweepReport:
    """Run one full fault schedule per seed and verify each crash."""
    points = profile_points(config)
    report = SweepReport(config=config, mode="seeded", total_points=points)
    for seed in seeds:
        injector = FaultInjector.seeded(seed, points)
        run = run_scenario(config, injector)
        report.runs += 1
        if run.crashed:
            report.crashes += 1
        # A schedule whose crash point lies beyond the actual run still
        # verifies recovery of the settled end state -- a crash on an
        # idle, fully-durable system must be a no-op.
        _verify(report, run, "seeded", seed, redo_workers)
        report.pages_torn += injector.pages_torn
        report.delays_injected += injector.delays_injected
        report.checkpoint_writes_dropped += injector.checkpoint_writes_dropped
    return report


def _verify(
    report: SweepReport,
    run: ScenarioRun,
    mode: str,
    key: int,
    redo_workers: Optional[int] = None,
) -> None:
    try:
        result = check_run(run, redo_workers=redo_workers)
        report.invariants_checked += result.invariants_checked
    except InvariantViolation as violation:
        report.failures.append(
            ChaosFailure(
                mode=mode,
                key=key,
                invariant=violation.invariant,
                detail=violation.detail,
                plan=run.injector.plan.describe(),
                trace=list(run.injector.trace),
            )
        )


__all__ = [
    "ChaosFailure",
    "ScenarioConfig",
    "ScenarioRun",
    "SweepReport",
    "build_scenario",
    "capture",
    "check_run",
    "exhaustive_sweep",
    "profile_points",
    "run_scenario",
    "seeded_sweep",
]

"""Deterministic fault injection for the Section 5 recovery stack.

The paper's throughput ladder (WAL -> group commit -> partitioned logs ->
stable memory) is only worth climbing if recovery is correct under
*arbitrary* crash points.  This package makes that a sweep, not a hope:

* :mod:`repro.chaos.injector` -- :class:`FaultInjector`: every durable
  state change is a numbered, schedulable point; plans inject crashes,
  slow writes, torn log pages, and dropped checkpoint installs, all
  derived deterministically from one seed.
* :mod:`repro.chaos.invariants` -- :class:`InvariantChecker`: after each
  crash, recovery must satisfy durability of acknowledged commits,
  atomicity of losers, redo bounded by the stable dirty-page table, and
  idempotency.
* :mod:`repro.chaos.oracle` -- :class:`ShadowDatabase`: a dict-backed
  re-execution of the committed workload that the recovered image must
  match byte-for-byte.
* :mod:`repro.chaos.harness` -- exhaustive and seeded crash-point sweeps
  with replayable failure reports.

See ``docs/CHAOS.md`` for the injection-point map and replay workflow.
"""

from repro.chaos.executor import (
    ExecutorChaosFailure,
    ExecutorScenario,
    ExecutorSweepReport,
    capture_baseline,
    executor_sweep,
    run_executor_seed,
)
from repro.chaos.injector import (
    CrashSignal,
    FaultInjector,
    FaultPlan,
)
from repro.chaos.invariants import (
    DegradedRunOracle,
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
)
from repro.chaos.oracle import ShadowDatabase
from repro.chaos.harness import (
    ChaosFailure,
    ScenarioConfig,
    ScenarioRun,
    SweepReport,
    build_scenario,
    capture,
    check_run,
    exhaustive_sweep,
    profile_points,
    run_scenario,
    seeded_sweep,
)

__all__ = [
    "ChaosFailure",
    "CrashSignal",
    "DegradedRunOracle",
    "ExecutorChaosFailure",
    "ExecutorScenario",
    "ExecutorSweepReport",
    "FaultInjector",
    "FaultPlan",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "ScenarioConfig",
    "ScenarioRun",
    "ShadowDatabase",
    "SweepReport",
    "build_scenario",
    "capture",
    "capture_baseline",
    "check_run",
    "executor_sweep",
    "exhaustive_sweep",
    "profile_points",
    "run_executor_seed",
    "run_scenario",
    "seeded_sweep",
]

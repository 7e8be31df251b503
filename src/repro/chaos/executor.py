"""Seeded chaos sweeps over the governed query executor.

The recovery sweeps (:mod:`repro.chaos.harness`) attack the durability
stack; this module attacks the *query* stack with the governor's two
fault seams (docs/ROBUSTNESS.md):

* **cancel** -- the running query's token is cancelled at an exact page
  boundary (``FaultPlan.cancel_at_page``);
* **revoke** -- the running query's memory grant is revoked down to a few
  pages at an exact page boundary, forcing hybrid hash to demote its
  resident partition toward pure GRACE.

The contract checked after each seeded run is the
:class:`~repro.chaos.invariants.DegradedRunOracle`: every query either
returns rows identical to the undisturbed run or raises a typed governor
error, and when no cancellation or revocation actually fired the
operation counters must match the undisturbed run exactly.

Everything derives deterministically from ``(scenario, seed)`` -- a
failing seed replays with ``pytest tests/chaos --chaos-seed N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.chaos.injector import FaultInjector
from repro.chaos.invariants import DegradedRunOracle, InvariantViolation
from repro.core.database import MainMemoryDatabase
from repro.operators.aggregate import AggregateFunction, AggregateSpec
from repro.operators.selection import Comparison
from repro.planner.query import JoinClause, Query
from repro.storage.tuples import DataType


@dataclass
class ExecutorScenario:
    """A deterministic workload shape for one executor sweep."""

    emp_rows: int = 360
    dept_rows: int = 12
    #: Small enough that the join spills into buckets (hybrid phase 2).
    memory_pages: int = 4
    page_bytes: int = 256
    batch: bool = True


def build_database(scenario: ExecutorScenario) -> MainMemoryDatabase:
    """The scenario's database, built identically on every call."""
    db = MainMemoryDatabase(
        memory_pages=scenario.memory_pages,
        page_bytes=scenario.page_bytes,
        batch=scenario.batch,
    )
    db.create_table(
        "emp",
        [
            ("emp_id", DataType.INTEGER),
            ("dept", DataType.INTEGER),
            ("salary", DataType.INTEGER),
        ],
    )
    db.create_table(
        "dept", [("dept_id", DataType.INTEGER), ("floor", DataType.INTEGER)]
    )
    # proj is as large as emp, so emp |><| proj has an over-memory build
    # side: hybrid hash spills into buckets and phase 2 actually runs.
    db.create_table(
        "proj", [("proj_id", DataType.INTEGER), ("owner", DataType.INTEGER)]
    )
    for i in range(scenario.emp_rows):
        db.insert("emp", (i, i % scenario.dept_rows, 1000 + (i * 37) % 500))
    for d in range(scenario.dept_rows):
        db.insert("dept", (d, d % 3))
    for p in range(scenario.emp_rows):
        db.insert("proj", (p, (p * 13) % scenario.emp_rows))
    db.analyze()
    return db


def scenario_queries() -> List[Tuple[str, Query]]:
    """The query mix each run executes, in order."""
    return [
        (
            "filter",
            Query(
                tables=["emp"],
                predicates=[("emp", Comparison("salary", ">", 1100))],
            ),
        ),
        (
            "join",
            Query(
                tables=["emp", "dept"],
                joins=[JoinClause("emp", "dept", "dept", "dept_id")],
            ),
        ),
        (
            "spill-join",
            Query(
                tables=["emp", "proj"],
                joins=[JoinClause("emp", "emp_id", "proj", "owner")],
            ),
        ),
        (
            "aggregate",
            Query(
                tables=["emp"],
                group_by=["dept"],
                aggregates=[AggregateSpec(AggregateFunction.SUM, "salary")],
            ),
        ),
    ]


@dataclass
class ExecutorBaseline:
    """The undisturbed run: per-query rows plus the seam geometry."""

    rows: Dict[str, List[Any]]
    counter_snapshot: Any
    #: Token checkpoints the whole run passed -- the cancel/revoke domain.
    exec_pages: int


def capture_baseline(scenario: ExecutorScenario) -> ExecutorBaseline:
    """Run the workload once with a counting injector attached."""
    injector = FaultInjector.counting()
    db = build_database(scenario).attach_chaos(injector)
    rows: Dict[str, List[Any]] = {}
    for label, query in scenario_queries():
        rows[label] = sorted(db.execute(query), key=repr)
    return ExecutorBaseline(
        rows=rows,
        counter_snapshot=db.counters.snapshot(),
        exec_pages=injector.exec_pages,
    )


@dataclass
class ExecutorChaosFailure:
    """One oracle violation, replayable from its seed."""

    seed: int
    plan: str
    query: str
    violation: str

    def __str__(self) -> str:
        return "seed %d [%s] query %s: %s" % (
            self.seed,
            self.plan,
            self.query,
            self.violation,
        )


@dataclass
class ExecutorSweepReport:
    """Aggregate outcome of a seeded executor sweep."""

    runs: int = 0
    queries_cancelled: int = 0
    grants_revoked: int = 0
    failures: List[ExecutorChaosFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            "%d runs: %d cancels, %d revocations, %d failures%s"
            % (
                self.runs,
                self.queries_cancelled,
                self.grants_revoked,
                len(self.failures),
                "".join("\n  " + str(f) for f in self.failures[:10]),
            )
        )


def run_executor_seed(
    scenario: ExecutorScenario,
    baseline: ExecutorBaseline,
    seed: int,
) -> Tuple[FaultInjector, List[ExecutorChaosFailure]]:
    """One seeded disturbed run, checked against the baseline."""
    injector = FaultInjector.seeded_executor(
        seed, max_pages=baseline.exec_pages
    )
    db = build_database(scenario).attach_chaos(injector)
    oracle = DegradedRunOracle()
    failures: List[ExecutorChaosFailure] = []
    described = injector.plan.describe()
    for label, query in scenario_queries():
        rows: Optional[List[Any]] = None
        error: Optional[BaseException] = None
        try:
            rows = list(db.execute(query))
        except BaseException as exc:  # the oracle types every failure
            error = exc
        try:
            oracle.check_query(label, baseline.rows[label], rows, error)
        except InvariantViolation as violation:
            failures.append(
                ExecutorChaosFailure(seed, described, label, str(violation))
            )
    try:
        oracle.check_counters(
            baseline.counter_snapshot, db.counters.snapshot(), injector
        )
    except InvariantViolation as violation:
        failures.append(
            ExecutorChaosFailure(seed, described, "<counters>", str(violation))
        )
    return injector, failures


def executor_sweep(
    seeds: Iterable[int],
    scenario: Optional[ExecutorScenario] = None,
) -> ExecutorSweepReport:
    """Verify the degraded-run contract across many seeded schedules."""
    scenario = scenario or ExecutorScenario()
    baseline = capture_baseline(scenario)
    report = ExecutorSweepReport()
    for seed in seeds:
        injector, failures = run_executor_seed(scenario, baseline, seed)
        report.runs += 1
        report.queries_cancelled += injector.queries_cancelled
        report.grants_revoked += injector.grants_revoked
        report.failures.extend(failures)
    return report


__all__ = [
    "ExecutorBaseline",
    "ExecutorChaosFailure",
    "ExecutorScenario",
    "ExecutorSweepReport",
    "build_database",
    "capture_baseline",
    "executor_sweep",
    "run_executor_seed",
    "scenario_queries",
]

"""The recovery contract, checked after every injected crash.

Four invariants (plus a workload-level conservation check) must hold no
matter where the crash landed or which device faults preceded it:

1. **Durability** -- every transaction that was *acknowledged* committed
   before the crash (its completion callback fired, i.e. its commit group
   and all dependencies were durable) is in the recovered committed set.
   Pre-committed-but-unacknowledged transactions may legally go either
   way; merely active ones must be losers.
2. **Atomicity** -- the recovered image equals a winners-only replay of
   the durable log: no partial effect of any loser survives, every effect
   of every winner does.
3. **Bounded redo** -- recovering with the stable dirty-page table scans
   no more log than recovering without it, and produces the identical
   image: the Section 5.5 bound is an optimization, never a correctness
   leak.
4. **Idempotency** -- running recovery twice over the same crash state
   yields the identical image and statistics: recovery never mutates the
   durable state it reads, so a crash *during* recovery just means running
   it again.

Finally the **differential oracle**: a dict-backed shadow database
re-executes the committed workload scripts in commit-LSN order and must
match the recovered image byte-for-byte (see :mod:`repro.chaos.oracle`).

Constructing the checker with ``redo_workers`` opts in a seventh
invariant: the batched parallel-redo path must recover the identical
image and statistics as the serial interpreter (timings excepted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError

from repro.chaos.oracle import ShadowDatabase
from repro.recovery.records import CommitRecord
from repro.recovery.restart import CrashState, RecoveryOutcome, recover, replay_committed


class InvariantViolation(ReproError, AssertionError):
    """One recovery invariant failed; carries the name and the evidence."""

    def __init__(self, invariant: str, detail: str) -> None:
        super().__init__("%s: %s" % (invariant, detail))
        self.invariant = invariant
        self.detail = detail


@dataclass
class InvariantReport:
    """What one post-crash check verified."""

    outcome: RecoveryOutcome
    acked_tids: Set[int] = field(default_factory=set)
    invariants_checked: int = 0


class InvariantChecker:
    """Runs recovery on a crash state and asserts the contract."""

    def __init__(
        self,
        initial_value: Any = 0,
        scripts_by_tid: Optional[Dict[int, Sequence[Tuple]]] = None,
        deposit_by_tid: Optional[Dict[int, int]] = None,
        redo_workers: Optional[int] = None,
    ) -> None:
        """``redo_workers`` opts in a seventh invariant: recovering the
        same crash state through the parallel partitioned-log path with
        that many workers must reproduce the serial image and statistics
        exactly (timings excepted)."""
        self.initial_value = initial_value
        self.scripts_by_tid = scripts_by_tid or {}
        self.deposit_by_tid = deposit_by_tid or {}
        self.redo_workers = redo_workers

    def check(
        self,
        crash_state: CrashState,
        acked_tids: Set[int],
        active_tids: Set[int] = frozenset(),
    ) -> InvariantReport:
        """Recover and verify; raises :class:`InvariantViolation`.

        ``acked_tids`` are transactions whose commit completion callback
        fired before the crash; ``active_tids`` are transactions that had
        neither pre-committed nor aborted (still holding locks mid-script)
        and therefore must not be recovered as winners.
        """
        outcome = recover(crash_state, initial_value=self.initial_value)
        checked = 0

        # 1 -- durability of acknowledged commits.
        missing = acked_tids - outcome.committed_tids
        if missing:
            raise InvariantViolation(
                "durability",
                "acknowledged transactions %s missing from the recovered "
                "committed set %s"
                % (sorted(missing), sorted(outcome.committed_tids)),
            )
        phantom = outcome.committed_tids & active_tids
        if phantom:
            raise InvariantViolation(
                "durability",
                "still-active transactions %s recovered as committed"
                % sorted(phantom),
            )
        checked += 1

        # 2 -- atomicity: winners-only replay of the durable log.
        log_oracle = replay_committed(crash_state, initial_value=self.initial_value)
        if outcome.state.values != log_oracle.values:
            raise InvariantViolation(
                "atomicity",
                "recovered image differs from winners-only log replay at "
                "records %s"
                % _first_diffs(log_oracle.values, outcome.state.values),
            )
        checked += 1

        # 3 -- redo bounded by the stable dirty-page table.
        unbounded = recover(
            crash_state,
            initial_value=self.initial_value,
            use_dirty_page_table=False,
        )
        if outcome.state.values != unbounded.state.values:
            raise InvariantViolation(
                "bounded-redo",
                "dirty-page-table recovery differs from full-scan recovery "
                "at records %s"
                % _first_diffs(unbounded.state.values, outcome.state.values),
            )
        if outcome.log_records_scanned > unbounded.log_records_scanned:
            raise InvariantViolation(
                "bounded-redo",
                "table-bounded scan read %d records, more than the full "
                "scan's %d"
                % (outcome.log_records_scanned, unbounded.log_records_scanned),
            )
        if crash_state.dirty_first_lsn:
            floor = min(crash_state.dirty_first_lsn.values())
            budget = sum(
                1 for r in crash_state.durable_log if r.lsn >= floor
            )
            if outcome.log_records_scanned > budget:
                raise InvariantViolation(
                    "bounded-redo",
                    "scanned %d records but only %d have lsn >= the "
                    "dirty-page-table minimum %d"
                    % (outcome.log_records_scanned, budget, floor),
                )
        checked += 1

        # 4 -- idempotency: recovery is a pure function of the crash state.
        again = recover(crash_state, initial_value=self.initial_value)
        if (
            again.state.values != outcome.state.values
            or again.committed_tids != outcome.committed_tids
            or again.updates_redone != outcome.updates_redone
            or again.updates_undone != outcome.updates_undone
        ):
            raise InvariantViolation(
                "idempotency",
                "second recovery over the same crash state diverged "
                "(first redo/undo %d/%d, second %d/%d)"
                % (
                    outcome.updates_redone,
                    outcome.updates_undone,
                    again.updates_redone,
                    again.updates_undone,
                ),
            )
        checked += 1

        # 5 -- differential oracle: shadow re-execution of the committed
        # workload, in commit-LSN order.
        if self.scripts_by_tid:
            commit_order = [
                r.tid
                for r in crash_state.durable_log
                if isinstance(r, CommitRecord)
            ]
            shadow = ShadowDatabase(
                crash_state.n_records, initial_value=self.initial_value
            )
            shadow.replay(self.scripts_by_tid, commit_order)
            mismatches = shadow.diff(outcome.state)
            if mismatches:
                raise InvariantViolation(
                    "differential-oracle",
                    "recovered image differs from the shadow database at "
                    "(record, shadow, recovered): %s" % mismatches,
                )
            checked += 1

        # 6 -- conservation: balances total the initial money plus the
        # deposits of recovered-committed transactions (transfers move
        # money, they never mint it).
        if self.deposit_by_tid is not None and self.scripts_by_tid:
            expected_total = crash_state.n_records * self.initial_value + sum(
                self.deposit_by_tid.get(tid, 0)
                for tid in outcome.committed_tids
            )
            actual_total = outcome.state.total_balance()
            if actual_total != expected_total:
                raise InvariantViolation(
                    "conservation",
                    "recovered balances total %s, expected %s"
                    % (actual_total, expected_total),
                )
            checked += 1

        # 7 (opt-in) -- parallel-redo equivalence: the batched
        # partitioned-log path is a drop-in replacement for the serial
        # interpreter on this exact crash state.
        if self.redo_workers is not None and self.redo_workers > 1:
            parallel = recover(
                crash_state,
                initial_value=self.initial_value,
                workers=self.redo_workers,
            )
            if parallel.state.values != outcome.state.values:
                raise InvariantViolation(
                    "parallel-redo",
                    "parallel recovery (workers=%d) differs from serial at "
                    "records %s"
                    % (
                        self.redo_workers,
                        _first_diffs(outcome.state.values, parallel.state.values),
                    ),
                )
            if parallel.state.page_lsn != outcome.state.page_lsn:
                raise InvariantViolation(
                    "parallel-redo",
                    "parallel recovery (workers=%d) left different page LSNs "
                    "%s" % (
                        self.redo_workers,
                        _first_diffs(
                            outcome.state.page_lsn, parallel.state.page_lsn
                        ),
                    ),
                )
            if (
                parallel.committed_tids != outcome.committed_tids
                or parallel.log_records_scanned != outcome.log_records_scanned
                or parallel.updates_redone != outcome.updates_redone
                or parallel.updates_undone != outcome.updates_undone
            ):
                raise InvariantViolation(
                    "parallel-redo",
                    "parallel recovery statistics diverged: serial "
                    "scanned/redone/undone %d/%d/%d, parallel %d/%d/%d"
                    % (
                        outcome.log_records_scanned,
                        outcome.updates_redone,
                        outcome.updates_undone,
                        parallel.log_records_scanned,
                        parallel.updates_redone,
                        parallel.updates_undone,
                    ),
                )
            checked += 1

        return InvariantReport(
            outcome=outcome, acked_tids=set(acked_tids), invariants_checked=checked
        )


class DegradedRunOracle:
    """The degraded-execution contract for governed queries.

    A query that runs under the governor while chaos cancels tokens or
    revokes grants must satisfy:

    1. **All-or-typed-error** -- the query either returns its rows or
       raises a typed governor error (:class:`~repro.errors.GovernorError`
       subclass); bare exceptions and silent partial results are
       violations.
    2. **Row fidelity** -- when the query completes, its rows are the
       exact multiset the undisturbed run produced.  Degradation may cost
       more, it may never change the answer.
    3. **Counter fidelity** -- when no degradation actually fired (no
       cancellation and no grant revocation), the operation counters
       must match the undisturbed run exactly.
    """

    def check_query(
        self,
        label: str,
        baseline_rows: List[Any],
        rows: Optional[List[Any]],
        error: Optional[BaseException],
    ) -> None:
        """Verify one query's outcome against the undisturbed baseline."""
        from repro.errors import GovernorError

        if error is not None:
            if not isinstance(error, GovernorError):
                raise InvariantViolation(
                    "typed-errors",
                    "query %s raised untyped %s: %s"
                    % (label, type(error).__name__, error),
                )
            return
        if rows is None:
            raise InvariantViolation(
                "all-or-typed-error",
                "query %s neither returned rows nor raised" % label,
            )
        if sorted(rows, key=repr) != sorted(baseline_rows, key=repr):
            raise InvariantViolation(
                "row-fidelity",
                "query %s returned %d rows under degradation, undisturbed "
                "run produced %d (first diffs: %s)"
                % (
                    label,
                    len(rows),
                    len(baseline_rows),
                    _first_diffs(
                        sorted(baseline_rows, key=repr), sorted(rows, key=repr)
                    ),
                ),
            )

    def check_counters(
        self,
        baseline_snapshot: Any,
        snapshot: Any,
        injector: Any,
    ) -> None:
        """Verify counter fidelity when the run was effectively healthy."""
        degraded = (
            getattr(injector, "queries_cancelled", 0)
            or getattr(injector, "grants_revoked", 0)
        )
        if degraded:
            return
        if snapshot != baseline_snapshot:
            raise InvariantViolation(
                "counter-fidelity",
                "no cancellation or revocation fired but the counters "
                "diverged from the undisturbed run",
            )


def _first_diffs(expected: List[Any], actual: List[Any], limit: int = 10):
    diffs = [
        (i, e, a)
        for i, (e, a) in enumerate(zip(expected, actual))
        if e != a
    ]
    return diffs[:limit]


__all__ = [
    "DegradedRunOracle",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
]

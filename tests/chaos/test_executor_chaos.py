"""Seeded chaos sweeps over the governed query executor.

Mirrors the recovery sweeps for the query side of the house: integer
seeds fully determine where queries are cancelled and where (and how
deep) memory grants are revoked.  Every run must satisfy the
DegradedRunOracle -- rows identical to the undisturbed run or a typed
governor error, and counter-identical when no degradation actually fired.

Replay one failing schedule with ``pytest tests/chaos --chaos-seed N``.
"""

from __future__ import annotations

from repro.chaos import (
    ExecutorScenario,
    capture_baseline,
    executor_sweep,
    run_executor_seed,
)


class TestSeededSerialSweep:
    def test_sweep_passes_the_degraded_run_oracle(self, chaos_seeds):
        report = executor_sweep(chaos_seeds)
        assert report.ok, report.summary()
        assert report.runs == len(chaos_seeds)
        if len(chaos_seeds) >= 20:
            # The seed distribution must actually exercise both seams.
            assert report.queries_cancelled > 0
            assert report.grants_revoked > 0

    def test_runs_are_replayable(self):
        scenario = ExecutorScenario()
        baseline = capture_baseline(scenario)
        first, fails_a = run_executor_seed(scenario, baseline, seed=2)
        second, fails_b = run_executor_seed(scenario, baseline, seed=2)
        assert not fails_a and not fails_b
        assert first.plan.describe() == second.plan.describe()
        assert (first.queries_cancelled, first.grants_revoked) == (
            second.queries_cancelled,
            second.grants_revoked,
        )

"""Property-based crash sweeps: recovery is correct at *every* point.

Exhaustive mode crashes a 20-transaction banking workload at every
schedulable point (event boundaries, log dispatches, stable appends,
checkpoint dispatches) and checks the full recovery contract after each:
durability of acknowledged commits, atomicity of losers, redo bounded by
the stable dirty-page table, idempotent double recovery, and the
dict-backed differential oracle.

Seeded mode draws whole fault schedules (crash point + slow writes + torn
log pages + dropped checkpoint installs) from integer seeds; a failure
prints the seed, replayable with ``pytest tests/chaos --chaos-seed N``.
No hypothesis dependency: the seeds *are* the shrunk examples.
"""

import pytest

from repro.chaos import (
    FaultInjector,
    ScenarioConfig,
    check_run,
    exhaustive_sweep,
    profile_points,
    run_scenario,
    seeded_sweep,
)
from repro.recovery.log_manager import CommitPolicy

#: The stack shapes the sweep covers: every commit discipline, plus the
#: partitioned log where group ordering is the subtle part.
STACKS = [
    pytest.param(CommitPolicy.CONVENTIONAL, 1, id="conventional"),
    pytest.param(CommitPolicy.GROUP, 1, id="group"),
    pytest.param(CommitPolicy.GROUP, 3, id="group-3dev"),
    pytest.param(CommitPolicy.STABLE, 1, id="stable"),
]


def config_for(policy, devices, **overrides):
    return ScenarioConfig(policy=policy, devices=devices, **overrides)


class TestExhaustiveSweep:
    @pytest.mark.parametrize("policy,devices", STACKS)
    def test_every_crash_point_recovers_correctly(self, policy, devices):
        """The acceptance sweep: >= 20 transactions, every point, all
        invariants including the differential oracle."""
        config = config_for(policy, devices)
        assert config.n_transactions >= 20
        report = exhaustive_sweep(config)
        assert report.ok, report.summary()
        # Every enumerated point actually crashed and was verified.
        assert report.crashes == report.runs == report.total_points
        assert report.total_points > 0
        # All six invariants ran at every crash point.
        assert report.invariants_checked == 6 * report.crashes

    def test_point_counts_follow_the_commit_ladder(self):
        """Forcing the log at every commit makes more dispatch points than
        group commit's shared pages (Section 5.2's 100 -> 1000 arithmetic,
        seen through the crash-point counter), and each synchronous
        stable-memory append is a durability transition of its own.  The
        count is a pure function of the scenario."""
        points = {
            name: profile_points(config_for(policy, 1))
            for name, policy in (
                ("conventional", CommitPolicy.CONVENTIONAL),
                ("group", CommitPolicy.GROUP),
                ("stable", CommitPolicy.STABLE),
            )
        }
        assert points["conventional"] > points["group"]
        assert points["stable"] > points["group"]
        assert profile_points(config_for(CommitPolicy.GROUP, 1)) == points["group"] > 0

    def test_points_cover_more_than_event_boundaries(self):
        """The stable policy's durable appends are synchronous, so its
        sweep must expose points that no event boundary reaches."""
        config = config_for(CommitPolicy.STABLE, 1)
        run = run_scenario(config, FaultInjector.counting())
        labels = run.injector.trace  # last TRACE_DEPTH labels
        assert run.injector.points > 0
        # The full run ends with flush/drain activity; profile a crash in
        # the middle instead to inspect a mixed label window.
        mid = run.injector.points // 2
        crashed = run_scenario(config, FaultInjector.crash_at(mid))
        assert crashed.crashed
        kinds = {label.split()[0] for label in crashed.injector.trace}
        assert "stable" in kinds or "event:txn" in kinds

    def test_deposit_heavy_workload(self):
        """Money injection (deposits) exercises the conservation check."""
        config = config_for(
            CommitPolicy.GROUP,
            1,
            transfer_fraction=0.3,
            deposit_fraction=0.6,
            workload_seed=7,
        )
        report = exhaustive_sweep(config)
        assert report.ok, report.summary()

    def test_transfer_only_conserves_total(self):
        config = config_for(
            CommitPolicy.GROUP,
            1,
            transfer_fraction=1.0,
            deposit_fraction=0.0,
            workload_seed=11,
        )
        report = exhaustive_sweep(config)
        assert report.ok, report.summary()

    def test_tight_checkpoint_cadence(self):
        """Sweeping with near-continuous checkpointing maximizes the
        in-flight-copy window the dirty-page-table merge must cover."""
        config = config_for(
            CommitPolicy.GROUP, 1, checkpoint_interval=0.005
        )
        report = exhaustive_sweep(config)
        assert report.ok, report.summary()


class TestSeededSweep:
    @pytest.mark.parametrize("policy,devices", STACKS)
    def test_random_fault_schedules(self, policy, devices, chaos_seeds):
        """>= 100 seeded schedules by default (``--chaos-seeds``); any
        failure reports its seed for ``--chaos-seed`` replay."""
        config = config_for(policy, devices)
        report = seeded_sweep(config, chaos_seeds)
        assert report.ok, report.summary()
        assert report.runs == len(chaos_seeds)
        # Schedules must actually exercise the fault arsenal, not only
        # clean crashes (sanity that sampling probabilities are alive).
        if len(chaos_seeds) >= 50:
            assert report.delays_injected > 0
            assert report.checkpoint_writes_dropped > 0

    def test_seeded_schedule_is_deterministic(self):
        """The same seed yields the identical crash point and fault mix --
        the property replayability rests on."""
        config = config_for(CommitPolicy.CONVENTIONAL, 1)
        points = profile_points(config)
        a = run_scenario(config, FaultInjector.seeded(3, points))
        b = run_scenario(config, FaultInjector.seeded(3, points))
        assert a.crashed == b.crashed
        assert a.injector.points == b.injector.points
        assert a.injector.trace == b.injector.trace
        assert a.injector.plan == b.injector.plan
        check_run(a)
        check_run(b)

    def test_torn_pages_reach_the_sweep(self):
        """Across enough seeds, some crash points must catch pages in
        flight and tear them -- otherwise the torn-page path is dead code
        and the sweep's coverage claim is hollow."""
        config = config_for(CommitPolicy.CONVENTIONAL, 1)
        report = seeded_sweep(config, range(60))
        assert report.ok, report.summary()
        assert report.pages_torn > 0


class TestSweepReporting:
    def test_failure_carries_replay_hint(self):
        from repro.chaos import ChaosFailure

        failure = ChaosFailure(
            mode="seeded",
            key=42,
            invariant="durability",
            detail="tid 7 lost",
            plan="crash@10 seed=42",
        )
        assert "--chaos-seed 42" in failure.replay_hint()
        assert "durability" in str(failure)

    def test_summary_counts(self):
        config = config_for(CommitPolicy.GROUP, 1, n_transactions=20)
        report = exhaustive_sweep(config, stride=7)
        assert report.ok
        text = report.summary()
        assert "all invariants held" in text
        assert str(report.runs) in text

"""Tests for checkpointing, crash, and restart recovery -- the Section 5
correctness core.  The oracle: recovery must reproduce exactly the state
obtained by replaying every durably-committed transaction in LSN order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.recovery.checkpoint import Checkpointer
from repro.recovery.log_manager import CommitPolicy, LogManager
from repro.recovery.restart import crash, recover, replay_committed
from repro.recovery.state import DatabaseState, DiskSnapshot
from repro.recovery.stable_memory import StableMemory
from repro.recovery.transactions import TransactionEngine
from repro.sim.clock import SimulatedClock
from repro.sim.events import EventQueue
from repro.workload.banking import BankingWorkload


def build_engine(policy=CommitPolicy.GROUP, devices=1, n_records=200,
                 records_per_page=16, initial=100, compress=False):
    queue = EventQueue(SimulatedClock())
    state = DatabaseState(n_records, records_per_page, initial_value=initial)
    stable = StableMemory(4 * 1024 * 1024) if policy is CommitPolicy.STABLE else None
    lm = LogManager(queue, policy=policy, devices=devices, stable=stable,
                    compress=compress)
    engine = TransactionEngine(state, queue, lm)
    return queue, state, lm, engine


def run_banking(engine, queue, horizon, arrival=0.002, seed=5,
                n_accounts=200):
    bank = BankingWorkload(n_accounts, seed=seed)
    t = 0.0
    while t < horizon:
        script, _ = bank.next_script()
        engine.submit_at(t, script)
        t += arrival
    queue.run_until(horizon)


class TestCheckpointer:
    def test_sweep_copies_dirty_pages(self):
        queue, state, lm, engine = build_engine()
        snap = DiskSnapshot()
        ck = Checkpointer(engine, snap, interval=0.1)
        engine.submit([("write", 0, 1)])
        engine.submit([("write", 50, 2)])
        lm.flush()
        queue.run_until(0.05)  # log durable
        ck.checkpoint_now()
        queue.run_until(1.0)
        assert snap.page_count == 2

    def test_wal_rule_defers_install_until_log_durable(self):
        queue, state, lm, engine = build_engine()
        snap = DiskSnapshot()
        ck = Checkpointer(engine, snap, interval=0.1)
        engine.submit([("write", 0, 1)])
        # Log record still buffered: the sweep dispatches the copy but
        # forces the log, and the install waits for durability.
        assert ck.checkpoint_now() == 1
        queue.run_until(0.005)
        assert snap.page_count == 0  # before the log page lands: nothing
        queue.run_until(1.0)
        assert snap.page_count == 1
        assert lm.durable_lsn_horizon() >= snap.pages[0].page_lsn

    def test_periodic_sweeps(self):
        queue, state, lm, engine = build_engine()
        snap = DiskSnapshot()
        ck = Checkpointer(engine, snap, interval=0.2)
        ck.start()
        run_banking(engine, queue, horizon=1.0)
        assert ck.sweeps >= 4

    def test_validation(self):
        queue, state, lm, engine = build_engine()
        with pytest.raises(ValueError):
            Checkpointer(engine, DiskSnapshot(), interval=0)

    def test_stop_halts_sweeping(self):
        queue, state, lm, engine = build_engine()
        ck = Checkpointer(engine, DiskSnapshot(), interval=0.1)
        ck.start()
        ck.stop()
        queue.run_until(1.0)
        assert ck.sweeps == 0


class TestCrashCapture:
    def test_volatile_state_excluded(self):
        queue, state, lm, engine = build_engine()
        engine.submit([("write", 0, 42)])
        # No flush: the update is only in the volatile log buffer.
        cs = crash(engine)
        assert cs.durable_log == []
        assert cs.committed_tids == set()

    def test_durable_log_included(self):
        queue, state, lm, engine = build_engine()
        engine.submit([("write", 0, 42)])
        lm.flush()
        queue.run_to_completion()
        cs = crash(engine)
        assert 1 in cs.committed_tids

    def test_in_flight_checkpoint_bounds_merged(self):
        queue, state, lm, engine = build_engine()
        snap = DiskSnapshot()
        ck = Checkpointer(engine, snap, interval=10.0)
        engine.submit([("write", 0, 42)])
        lm.flush()
        queue.run_to_completion()
        ck.checkpoint_now()  # dispatched, never installed (no queue run)
        cs = crash(engine, ck)
        assert 0 in cs.dirty_first_lsn


class TestRecoveryBasics:
    def test_recovers_committed_update(self):
        queue, state, lm, engine = build_engine()
        engine.submit([("write", 0, 42)])
        lm.flush()
        queue.run_to_completion()
        out = recover(crash(engine), initial_value=100)
        assert out.state.read(0) == 42

    def test_uncommitted_update_discarded(self):
        queue, state, lm, engine = build_engine()
        engine.submit([("write", 0, 42)])  # commit record never durable
        out = recover(crash(engine), initial_value=100)
        assert out.state.read(0) == 100

    def test_snapshot_shortens_redo(self):
        queue, state, lm, engine = build_engine()
        snap = DiskSnapshot()
        ck = Checkpointer(engine, snap, interval=0.05)
        ck.start()
        run_banking(engine, queue, horizon=1.0)
        lm.flush()
        # A started checkpointer reschedules itself forever, so settle the
        # log and the final sweep with bounded runs instead of draining.
        queue.run_until(queue.clock.now + 1.0)
        ck.checkpoint_now()
        queue.run_until(queue.clock.now + 60)
        cs = crash(engine, ck)
        with_table = recover(cs, initial_value=100)
        without_table = recover(cs, initial_value=100, use_dirty_page_table=False)
        assert with_table.state.values == without_table.state.values
        assert with_table.log_records_scanned <= without_table.log_records_scanned

    def test_recovery_time_components(self):
        queue, state, lm, engine = build_engine()
        run_banking(engine, queue, horizon=0.5)
        lm.flush()
        queue.run_to_completion()
        out = recover(crash(engine), initial_value=100)
        assert out.seconds > 0
        assert out.pages_reloaded == 0  # never checkpointed


class TestRecoveryOracle:
    @pytest.mark.parametrize("policy,devices,compress", [
        (CommitPolicy.CONVENTIONAL, 1, False),
        (CommitPolicy.GROUP, 1, False),
        (CommitPolicy.GROUP, 3, False),
        (CommitPolicy.STABLE, 1, False),
        (CommitPolicy.STABLE, 1, True),
    ])
    def test_matches_replay_oracle(self, policy, devices, compress):
        queue, state, lm, engine = build_engine(
            policy=policy, devices=devices, compress=compress
        )
        snap = DiskSnapshot()
        ck = Checkpointer(engine, snap, interval=0.13)
        ck.start()
        run_banking(engine, queue, horizon=1.5, arrival=0.001)
        cs = crash(engine, ck)
        out = recover(cs, initial_value=100)
        oracle = replay_committed(cs, initial_value=100)
        assert out.state.values == oracle.values

    def test_crash_at_many_points_always_consistent(self):
        """Crash at several horizons: the recovered bank always balances
        (transfers conserve money; only committed deposits add)."""
        for horizon in (0.05, 0.21, 0.48, 0.97, 1.33):
            queue, state, lm, engine = build_engine()
            snap = DiskSnapshot()
            ck = Checkpointer(engine, snap, interval=0.09)
            ck.start()
            bank = BankingWorkload(200, transfer_fraction=1.0,
                                   deposit_fraction=0.0, seed=8)
            t = 0.0
            while t < horizon:
                script, _ = bank.next_script()
                engine.submit_at(t, script)
                t += 0.0015
            queue.run_until(horizon)
            cs = crash(engine, ck)
            out = recover(cs, initial_value=100)
            assert out.state.total_balance() == 200 * 100, horizon
            oracle = replay_committed(cs, initial_value=100)
            assert out.state.values == oracle.values


class TestAbortRecovery:
    def test_durably_aborted_txn_nets_to_identity(self):
        queue, state, lm, engine = build_engine()
        from repro.recovery.lock_table import LockMode

        engine.locks.acquire(999, 5, LockMode.EXCLUSIVE)
        txn = engine.submit([("write", 0, 77), ("write", 5, 1)])
        engine.abort(txn)
        lm.flush()
        queue.run_to_completion()
        cs = crash(engine)
        assert txn.tid in cs.resolved_abort_tids
        out = recover(cs, initial_value=100)
        assert out.state.read(0) == 100

    def test_committed_after_abort_on_same_record(self):
        queue, state, lm, engine = build_engine()
        from repro.recovery.lock_table import LockMode

        engine.locks.acquire(999, 5, LockMode.EXCLUSIVE)
        victim = engine.submit([("write", 0, 77), ("write", 5, 1)])
        engine.abort(victim)
        winner = engine.submit([("write", 0, 55)])
        lm.flush()
        queue.run_to_completion()
        cs = crash(engine)
        out = recover(cs, initial_value=100)
        assert out.state.read(0) == 55


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    horizon=st.floats(0.02, 0.8),
    interval=st.floats(0.03, 0.3),
    policy=st.sampled_from([CommitPolicy.CONVENTIONAL, CommitPolicy.GROUP,
                            CommitPolicy.STABLE]),
    devices=st.integers(1, 3),
)
def test_property_recovery_equals_oracle(seed, horizon, interval, policy,
                                         devices):
    """For arbitrary workloads, crash points, checkpoint cadences, commit
    policies, and device counts: recovery == replay-committed oracle."""
    if policy is CommitPolicy.STABLE:
        devices = 1
    queue, state, lm, engine = build_engine(policy=policy, devices=devices,
                                            n_records=80)
    snap = DiskSnapshot()
    ck = Checkpointer(engine, snap, interval=interval)
    ck.start()
    bank = BankingWorkload(80, seed=seed)
    t = 0.0
    while t < horizon:
        script, _ = bank.next_script()
        engine.submit_at(t, script)
        t += 0.002
    queue.run_until(horizon)
    cs = crash(engine, ck)
    out = recover(cs, initial_value=100)
    oracle = replay_committed(cs, initial_value=100)
    assert out.state.values == oracle.values


def crashed_banking_history(horizon, interval, seed):
    """Banking at ~1000 tps over a 32-page database, crashed at
    ``horizon``; ``interval=None`` never checkpoints."""
    queue = EventQueue(SimulatedClock())
    state = DatabaseState(2000, records_per_page=64, initial_value=100)
    lm = LogManager(queue, policy=CommitPolicy.GROUP)
    engine = TransactionEngine(state, queue, lm)
    ck = Checkpointer(engine, DiskSnapshot(), interval=interval or 1.0)
    if interval is not None:
        ck.start()
    bank = BankingWorkload(2000, seed=seed)
    for i in range(int(horizon * 1000)):
        script, _ = bank.next_script()
        engine.submit_at(i * 0.001, script)
    queue.run_until(horizon)
    return crash(engine, ck)


class TestCheckpointCadence:
    """E8: fuzzy checkpoints plus the stable dirty-page table bound redo;
    sweeping faster than the snapshot disk absorbs (32 pages x 10 ms =
    0.32 s a sweep) queues copies and loosens the bound again."""

    def test_interval_sweep(self):
        runs = {}
        for interval in (None, 1.0, 0.5, 0.1):
            cs = crashed_banking_history(2.0, interval, seed=31)
            out = recover(cs, initial_value=100)
            assert out.state.values == replay_committed(cs, initial_value=100).values
            runs[interval] = (cs.snapshot.page_count, out.log_records_scanned, out.updates_redone)
        never, coarse, frequent, saturated = (runs[i] for i in (None, 1.0, 0.5, 0.1))
        assert never[0] == 0
        assert never[1] >= coarse[1] >= frequent[1]
        assert frequent[1] < 0.35 * never[1]
        assert frequent[2] < never[2]
        assert frequent[1] <= saturated[1] <= never[1]

    def test_dirty_page_table_is_where_redo_starts(self):
        cs = crashed_banking_history(2.0, 0.2, seed=33)
        with_table = recover(cs, initial_value=100)
        without = recover(cs, initial_value=100, use_dirty_page_table=False)
        assert with_table.state.values == without.state.values
        assert with_table.log_records_scanned < without.log_records_scanned
        assert with_table.seconds <= without.seconds

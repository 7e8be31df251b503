"""Edge-case tests for crash capture and restart recovery."""

import pytest

from repro.recovery.checkpoint import Checkpointer
from repro.recovery.log_manager import CommitPolicy, LogManager
from repro.recovery.restart import (
    CrashState,
    RecoveryError,
    crash,
    recover,
    replay_committed,
)
from repro.recovery.records import RecordSizing
from repro.recovery.state import DatabaseState, DiskSnapshot
from repro.recovery.transactions import TransactionEngine
from repro.sim.clock import SimulatedClock
from repro.sim.events import EventQueue


def fresh_engine(n_records=40, initial=9):
    queue = EventQueue(SimulatedClock())
    state = DatabaseState(n_records, records_per_page=8, initial_value=initial)
    lm = LogManager(queue, policy=CommitPolicy.GROUP)
    return queue, state, lm, TransactionEngine(state, queue, lm)


class TestEmptyAndTrivialCrashes:
    def test_crash_before_any_work(self):
        queue, state, lm, engine = fresh_engine()
        out = recover(crash(engine), initial_value=9)
        assert out.state.values == [9] * 40
        assert out.seconds >= 0
        assert out.log_records_scanned == 0

    def test_crash_with_only_reads(self):
        queue, state, lm, engine = fresh_engine()
        engine.submit([("read", 0), ("read", 1)])
        lm.flush()
        queue.run_to_completion()
        out = recover(crash(engine), initial_value=9)
        assert out.state.values == [9] * 40
        assert out.updates_redone == 0

    def test_double_crash_same_state(self):
        queue, state, lm, engine = fresh_engine()
        engine.submit([("write", 3, 77)])
        lm.flush()
        queue.run_to_completion()
        a = recover(crash(engine), initial_value=9)
        b = recover(crash(engine), initial_value=9)
        assert a.state.values == b.state.values


class TestSnapshotInteraction:
    def test_recovery_with_snapshot_only_no_log(self):
        """Checkpoint everything, truncate the entire durable log: the
        snapshot alone restores the committed state."""
        queue, state, lm, engine = fresh_engine()
        snap = DiskSnapshot()
        ck = Checkpointer(engine, snap, interval=10.0)
        engine.submit([("write", 0, 1)])
        engine.submit([("write", 20, 2)])
        lm.flush()
        queue.run_to_completion()
        ck.checkpoint_now()
        queue.run_until(queue.clock.now + 10)
        cs = crash(engine, ck)
        bound = min(cs.dirty_first_lsn.values()) if cs.dirty_first_lsn else (
            lm.next_lsn()
        )
        lm.truncate_before(bound)
        cs2 = crash(engine, ck)
        out = recover(cs2, initial_value=9)
        assert out.state.read(0) == 1
        assert out.state.read(20) == 2

    def test_snapshot_newer_than_log_suffix(self):
        """Pages checkpointed after the last durable log record: recovery
        must not 'redo' anything below the snapshot LSNs."""
        queue, state, lm, engine = fresh_engine()
        snap = DiskSnapshot()
        ck = Checkpointer(engine, snap, interval=10.0)
        for v in (5, 6, 7):
            engine.submit([("write", 0, v)])
        lm.flush()
        queue.run_to_completion()
        ck.checkpoint_now()
        queue.run_until(queue.clock.now + 10)
        out = recover(crash(engine, ck), initial_value=9)
        assert out.state.read(0) == 7
        assert out.updates_redone == 0  # snapshot already covers them

    def test_without_checkpointer_snapshot_is_empty(self):
        queue, state, lm, engine = fresh_engine()
        engine.submit([("write", 0, 1)])
        lm.flush()
        queue.run_to_completion()
        cs = crash(engine)  # no checkpointer passed
        assert cs.snapshot.page_count == 0
        out = recover(cs, initial_value=9)
        assert out.state.read(0) == 1


class TestRecoveryErrorOnCorruptState:
    """Regression: a log or snapshot referencing pages outside the disk
    image used to surface as a bare ``KeyError``/``IndexError`` from deep
    inside the redo pass; it must be a typed :class:`RecoveryError`."""

    def crashed_state(self):
        queue, state, lm, engine = fresh_engine()
        engine.submit([("write", 3, 77)])
        lm.flush()
        queue.run_to_completion()
        return crash(engine)

    def test_log_record_beyond_disk_image(self):
        cs = self.crashed_state()
        update = next(r for r in cs.durable_log if hasattr(r, "record_id"))
        update.record_id = cs.n_records + 12  # page does not exist
        with pytest.raises(RecoveryError) as exc:
            recover(cs, initial_value=9)
        assert "references record" in str(exc.value)
        assert "lsn=%d" % update.lsn in str(exc.value)

    def test_negative_record_id_rejected(self):
        cs = self.crashed_state()
        update = next(r for r in cs.durable_log if hasattr(r, "record_id"))
        update.record_id = -1
        with pytest.raises(RecoveryError):
            recover(cs, initial_value=9)

    def test_rogue_snapshot_page(self):
        from repro.recovery.state import PageImage

        cs = self.crashed_state()
        pages = cs.n_records // cs.records_per_page
        cs.snapshot.install(
            PageImage(page_id=pages + 3, page_lsn=0, values=[0] * 8),
            timestamp=0.0,
        )
        with pytest.raises(RecoveryError) as exc:
            recover(cs, initial_value=9)
        assert "snapshot holds page" in str(exc.value)

    def test_recovery_error_is_a_runtime_error(self):
        # Callers that caught RuntimeError keep working.
        assert issubclass(RecoveryError, RuntimeError)
        assert not issubclass(RecoveryError, KeyError)

    def test_valid_state_still_recovers(self):
        cs = self.crashed_state()
        out = recover(cs, initial_value=9)
        assert out.state.read(3) == 77


class TestCrashStateIntrospection:
    def test_committed_and_aborted_sets(self):
        queue, state, lm, engine = fresh_engine()
        from repro.recovery.lock_table import LockMode

        ok = engine.submit([("write", 0, 1)])
        engine.locks.acquire(999, 5, LockMode.EXCLUSIVE)
        bad = engine.submit([("write", 1, 2), ("write", 5, 0)])
        engine.abort(bad)
        lm.flush()
        queue.run_to_completion()
        cs = crash(engine)
        assert ok.tid in cs.committed_tids
        assert bad.tid in cs.resolved_abort_tids
        assert bad.tid not in cs.committed_tids

    def test_crash_state_is_self_contained(self):
        """Recovery must work from the CrashState alone (a fresh process
        could deserialize it)."""
        queue, state, lm, engine = fresh_engine()
        engine.submit([("write", 7, 70)])
        lm.flush()
        queue.run_to_completion()
        cs = crash(engine)
        rebuilt = CrashState(
            snapshot=cs.snapshot,
            durable_log=list(cs.durable_log),
            n_records=cs.n_records,
            records_per_page=cs.records_per_page,
            sizing=RecordSizing(),
            crashed_at=cs.crashed_at,
            dirty_first_lsn=dict(cs.dirty_first_lsn),
        )
        out = recover(rebuilt, initial_value=9)
        assert out.state.read(7) == 70
        assert out.state.values == replay_committed(cs, initial_value=9).values


class TestParallelRedo:
    """The batched partitioned-log path must be a drop-in replacement for
    the serial interpreter: identical image, page LSNs, committed set, and
    counters for any worker count -- only the modelled restart time
    shrinks.  Partitions replay pages independently, so these tests lean
    on workloads where the commit (topological) order matters within and
    across pages."""

    def assert_equivalent(self, serial, parallel):
        assert parallel.state.values == serial.state.values
        assert parallel.state.page_lsn == serial.state.page_lsn
        assert parallel.committed_tids == serial.committed_tids
        assert parallel.log_records_scanned == serial.log_records_scanned
        assert parallel.updates_redone == serial.updates_redone
        assert parallel.updates_undone == serial.updates_undone
        assert parallel.pages_reloaded == serial.pages_reloaded

    def rich_crash(self):
        """Overlapping winners across all five pages, a fuzzy checkpoint
        that absorbs two still-blocked writers (one later aborted, one
        still active at the crash), and a stranded unflushed tail."""
        import random

        from repro.recovery.lock_table import LockMode

        queue, state, lm, engine = fresh_engine(n_records=40, initial=9)
        snap = DiskSnapshot()
        ck = Checkpointer(engine, snap, interval=10.0)
        rng = random.Random(1984)
        for step in range(12):
            script = [
                ("write", rng.randrange(40), 100 + step) for _ in range(3)
            ]
            engine.submit(script)
        # Two victims block mid-script on a rogue lock holder; their first
        # writes are applied, logged, and then absorbed by the snapshot.
        engine.locks.acquire(999, 5, LockMode.EXCLUSIVE)
        blocked_active = engine.submit([("write", 8, 41), ("write", 5, 42)])
        blocked_abort = engine.submit([("write", 16, 51), ("write", 5, 52)])
        lm.flush()
        queue.run_to_completion()
        ck.checkpoint_now()
        queue.run_until(queue.clock.now + 10)
        engine.abort(blocked_abort)
        for step in range(6):
            script = [
                ("write", rng.randrange(40), 200 + step) for _ in range(2)
            ]
            engine.submit(script)
        lm.flush()
        queue.run_to_completion()
        # Stranded tail: appended after the last flush, never durable.
        engine.submit([("write", 24, 61)])
        return crash(engine, ck)

    def test_worker_counts_agree_with_serial(self):
        cs = self.rich_crash()
        serial = recover(cs, initial_value=9)
        # The workload must actually exercise both passes.
        assert serial.updates_redone > 0
        assert serial.updates_undone > 0
        for workers in (2, 4):
            parallel = recover(cs, initial_value=9, workers=workers)
            self.assert_equivalent(serial, parallel)
            assert parallel.workers == workers

    def test_full_scan_mode_agrees(self):
        cs = self.rich_crash()
        serial = recover(cs, initial_value=9, use_dirty_page_table=False)
        parallel = recover(
            cs, initial_value=9, use_dirty_page_table=False, workers=4
        )
        self.assert_equivalent(serial, parallel)

    def test_interleaved_same_page_order_preserved(self):
        """Winner updates to one record interleave with a loser's in the
        log: forward redo in LSN order must leave the *last* winner value,
        regardless of how pages land in partitions."""
        from repro.recovery.records import (
            BeginRecord,
            CommitRecord,
            UpdateRecord,
        )

        log = []

        def add(record):
            record.lsn = len(log)
            log.append(record)

        for tid in (1, 2, 3):
            add(BeginRecord(tid=tid))
        add(UpdateRecord(tid=1, record_id=0, old_value=9, new_value=10))
        add(UpdateRecord(tid=2, record_id=0, old_value=10, new_value=66))
        add(UpdateRecord(tid=3, record_id=0, old_value=66, new_value=30))
        add(UpdateRecord(tid=1, record_id=1, old_value=9, new_value=11))
        add(CommitRecord(tid=1))
        add(CommitRecord(tid=3))  # tid 2 never commits: loser
        cs = CrashState(
            snapshot=DiskSnapshot(),
            durable_log=log,
            n_records=8,
            records_per_page=8,
            sizing=RecordSizing(),
            crashed_at=1.0,
            dirty_first_lsn={0: 0},  # page 0 dirty since the first update
        )
        serial = recover(cs, initial_value=9)
        parallel = recover(cs, initial_value=9, workers=4)
        self.assert_equivalent(serial, parallel)
        assert parallel.state.read(0) == 30
        assert parallel.state.read(1) == 11

    def test_workers_exceed_touched_pages(self):
        """More workers than pages: partitions clamp, results agree."""
        queue, state, lm, engine = fresh_engine()
        engine.submit([("write", 3, 77)])
        lm.flush()
        queue.run_to_completion()
        cs = crash(engine)
        serial = recover(cs, initial_value=9)
        parallel = recover(cs, initial_value=9, workers=8)
        self.assert_equivalent(serial, parallel)
        assert parallel.state.read(3) == 77
        assert parallel.workers == 8

    def test_corrupt_state_raises_same_error(self):
        """Validation runs before partitioning: the parallel path rejects
        a corrupt log with the identical typed error."""
        queue, state, lm, engine = fresh_engine()
        engine.submit([("write", 3, 77)])
        lm.flush()
        queue.run_to_completion()
        cs = crash(engine)
        update = next(r for r in cs.durable_log if hasattr(r, "record_id"))
        update.record_id = cs.n_records + 12
        with pytest.raises(RecoveryError) as serial_exc:
            recover(cs, initial_value=9)
        with pytest.raises(RecoveryError) as parallel_exc:
            recover(cs, initial_value=9, workers=4)
        assert str(parallel_exc.value) == str(serial_exc.value)

    def test_clean_page_bulk_skip(self):
        """A page whose snapshot copy covers every logged update is
        dropped whole before partitioning, while a dirty page elsewhere
        keeps the redo start low enough to rescan it."""
        from repro.recovery.records import (
            BeginRecord,
            CommitRecord,
            UpdateRecord,
        )
        from repro.recovery.state import PageImage

        log = []

        def add(record):
            record.lsn = len(log)
            log.append(record)

        add(BeginRecord(tid=1))
        add(UpdateRecord(tid=1, record_id=8, old_value=9, new_value=50))
        add(UpdateRecord(tid=1, record_id=0, old_value=9, new_value=55))
        add(CommitRecord(tid=1))
        snap = DiskSnapshot()
        # Page 0 checkpointed after the lsn=2 update: clean.
        snap.install(
            PageImage(page_id=0, page_lsn=2, values=[55] + [9] * 7),
            timestamp=0.5,
        )
        cs = CrashState(
            snapshot=snap,
            durable_log=log,
            n_records=16,
            records_per_page=8,
            sizing=RecordSizing(),
            crashed_at=1.0,
            dirty_first_lsn={1: 1},  # page 1 still dirty from lsn 1 on
        )
        serial = recover(cs, initial_value=9)
        parallel = recover(cs, initial_value=9, workers=2)
        self.assert_equivalent(serial, parallel)
        assert parallel.state.read(0) == 55
        assert parallel.state.read(8) == 50
        assert serial.pages_skipped_clean == 0  # serial filters per record
        assert parallel.pages_skipped_clean == 1

    def test_simulated_time_shrinks_with_workers(self):
        """The modelled restart cost is the straggler stream's share:
        monotone non-increasing in the worker count, and exactly the
        sequential formula at one worker."""
        cs = self.rich_crash()
        serial = recover(cs, initial_value=9)
        w2 = recover(cs, initial_value=9, workers=2)
        w4 = recover(cs, initial_value=9, workers=4)
        assert serial.workers == 1
        assert w4.seconds <= w2.seconds <= serial.seconds
        assert w4.seconds < serial.seconds

    def test_four_streams_halve_a_banking_restart(self):
        """E20: on a Section 5 banking history crashed mid-sweep, four
        modelled redo streams restart in at most half the serial
        simulated seconds, with the same recovered image."""
        from tests.test_checkpoint_restart import crashed_banking_history

        cs = crashed_banking_history(1.0, 0.5, seed=41)
        serial = recover(cs, initial_value=100)
        parallel = recover(cs, initial_value=100, workers=4)
        self.assert_equivalent(serial, parallel)
        assert serial.seconds >= 2.0 * parallel.seconds

    def test_phase_timings_reported(self):
        cs = self.rich_crash()
        serial = recover(cs, initial_value=9)
        parallel = recover(cs, initial_value=9, workers=4)
        for outcome in (serial, parallel):
            assert set(outcome.phase_seconds) == {
                "analysis",
                "commit_resolution",
                "undo",
                "redo",
            }
            assert all(t >= 0 for t in outcome.phase_seconds.values())
        # The batched path fuses undo into the partition replay.
        assert parallel.phase_seconds["undo"] == 0.0

    def test_stream_count_moves_only_the_modelled_time(self):
        """One crashed history recovered as 1, 2, 4 and 8 streams: the
        image, page LSNs, winner set and redo / undo counts are identical;
        every batched run skips the same clean pages and fires the same
        chaos points in the same order -- one dispatch per partition, then
        the end-of-redo point -- so dropping the fork pool changed no
        schedule.  The history has 16 pages: the four written last are
        checkpointed clean, the rest stay dirty from early LSNs, and the
        checkpoint of page 0 absorbed a loser's write."""
        from repro.chaos import FaultInjector
        from repro.recovery.lock_table import LockMode

        queue, state, lm, engine = fresh_engine(n_records=128, initial=9)
        snap = DiskSnapshot()
        ck = Checkpointer(engine, snap, interval=10.0)
        for record in range(0, 128, 4):
            engine.submit([("write", record, 100 + record)])
        engine.locks.acquire(999, 3, LockMode.EXCLUSIVE)
        engine.submit([("write", 1, 41), ("write", 3, 42)])  # blocks: loser
        lm.flush()
        queue.run_to_completion()
        ck.checkpoint_now(pages=[0, 12, 13, 14, 15])
        queue.run_until(queue.clock.now + 10)
        cs = crash(engine, ck)

        outcomes = {}
        traces = {}
        for workers in (1, 2, 4, 8):
            injector = FaultInjector.counting()
            outcomes[workers] = recover(
                cs, initial_value=9, workers=workers, injector=injector
            )
            traces[workers] = list(injector.trace)
        serial = outcomes[1]
        assert serial.updates_redone > 0 and serial.updates_undone > 0
        for workers in (2, 4, 8):
            outcome = outcomes[workers]
            self.assert_equivalent(serial, outcome)
            assert outcome.pages_skipped_clean == 4
            assert traces[workers] == [
                "redo partition %d dispatch" % i for i in range(workers)
            ] + ["parallel redo merge"]
            assert outcome.seconds <= serial.seconds
        # The serial interpreter filters per record and has no seams.
        assert serial.pages_skipped_clean == 0
        assert traces[1] == []
        again = FaultInjector.counting()
        recover(cs, initial_value=9, workers=4, injector=again)
        assert again.trace == traces[4]

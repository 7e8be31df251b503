"""Tests for the log manager's three commit disciplines."""

import pytest

from repro.recovery.log_manager import CommitPolicy, LogManager
from repro.recovery.records import (
    BeginRecord,
    CommitRecord,
    RecordSizing,
    UpdateRecord,
)
from repro.recovery.stable_memory import StableMemory
from repro.sim.clock import SimulatedClock
from repro.sim.events import EventQueue


@pytest.fixture
def queue():
    return EventQueue(SimulatedClock())


def manager(queue, policy=CommitPolicy.GROUP, **kw):
    return LogManager(queue, policy=policy, **kw)


def typical_txn(lm, tid, updates=3, deps=frozenset()):
    lm.append(BeginRecord(tid=tid))
    for i in range(updates):
        lm.append(UpdateRecord(tid=tid, record_id=i, old_value=0, new_value=1))
    lm.append_commit(tid, deps)


class TestLSN:
    def test_lsns_monotone(self, queue):
        lm = manager(queue)
        lsns = [lm.append(BeginRecord(tid=i)) for i in range(5)]
        assert lsns == [0, 1, 2, 3, 4]
        assert lm.next_lsn() == 5


class TestConventional:
    def test_one_page_per_commit(self, queue):
        lm = manager(queue, CommitPolicy.CONVENTIONAL)
        for tid in range(5):
            typical_txn(lm, tid)
        queue.run_to_completion()
        assert lm.log.pages_written == 5
        assert lm.committed_count == 5

    def test_serialized_commit_latency(self, queue):
        """Five forced commits on one device: 50 ms of log time -- the
        100 tps ceiling."""
        lm = manager(queue, CommitPolicy.CONVENTIONAL)
        for tid in range(5):
            typical_txn(lm, tid)
        queue.run_to_completion()
        assert queue.clock.now == pytest.approx(0.050)


class TestGroupCommit:
    def test_commits_batch_per_page(self, queue):
        lm = manager(queue)
        for tid in range(10):  # 10 x 472B > 4096B: seals one full page
            typical_txn(lm, tid)
        queue.run_to_completion()
        # Eight 472-byte transactions fill the first page; the rest wait
        # in the open group.
        assert lm.log.pages_written == 1
        assert lm.committed_count == 8

    def test_flush_drains_stragglers(self, queue):
        lm = manager(queue)
        for tid in range(3):
            typical_txn(lm, tid)
        lm.flush()
        queue.run_to_completion()
        assert lm.committed_count == 3

    def test_on_commit_callback(self, queue):
        seen = []
        lm = manager(queue, on_commit=seen.append)
        for tid in range(10):
            typical_txn(lm, tid)
        queue.run_to_completion()
        assert seen == list(range(8))

    def test_commit_record_before_dependents(self, queue):
        """Appending A's commit before B's (B depends on A) keeps A's
        record at a lower LSN; a single FIFO device then guarantees the
        paper's write ordering."""
        lm = manager(queue)
        typical_txn(lm, 1)
        typical_txn(lm, 2, deps={1})
        lm.flush()
        queue.run_to_completion()
        records = lm.durable_log()
        commit_lsns = {
            r.tid: r.lsn for r in records if isinstance(r, CommitRecord)
        }
        assert commit_lsns[1] < commit_lsns[2]


class TestPartitionedOrdering:
    def test_dependent_group_waits(self, queue):
        """With two devices, the dependent's page must not complete before
        the dependency's page."""
        lm = manager(queue, devices=2)
        # tid 2 -> stream 0, tid 3 -> stream 1 (tid % devices).
        typical_txn(lm, 2)
        typical_txn(lm, 3, deps={2})
        lm.flush()
        queue.run_to_completion()
        assert lm.committed_count == 2
        # Reconstruct durability times from the devices.
        times = {}
        for device in lm.log.devices:
            for page in device.pages:
                for rec in page.payload:
                    if isinstance(rec, CommitRecord):
                        times[rec.tid] = page.completed_at
        assert times[2] <= times[3]

    def test_independent_groups_parallel(self, queue):
        lm = manager(queue, devices=2)
        typical_txn(lm, 2)   # stream 0
        typical_txn(lm, 3)   # stream 1, independent
        lm.flush()
        queue.run_to_completion()
        assert queue.clock.now == pytest.approx(0.010)  # overlapped

    def test_wal_rule_across_streams(self, queue):
        """A transaction's commit group depends on the groups holding its
        earlier records, even within a stream across page boundaries."""
        lm = manager(queue, devices=1)
        # Fill most of a page, then let one transaction straddle it.
        big = RecordSizing()
        filler = 0
        while lm._open_groups[0].bytes_used < big.page_bytes - 200:
            lm.append(UpdateRecord(tid=0, record_id=filler))
            filler += 1
        lm.append(UpdateRecord(tid=1, record_id=0))  # fits
        lm.append(UpdateRecord(tid=1, record_id=1))  # seals, next group
        lm.append_commit(1)
        lm.flush()
        queue.run_to_completion()
        assert 1 in lm.durable_tids


class TestStablePolicy:
    def test_instant_durability(self, queue):
        lm = manager(queue, CommitPolicy.STABLE)
        typical_txn(lm, 1)
        assert 1 in lm.durable_tids  # before any disk IO at all
        assert lm.committed_count == 1

    def test_drain_writes_full_pages(self, queue):
        lm = manager(queue, CommitPolicy.STABLE)
        for tid in range(20):
            typical_txn(lm, tid)
        queue.run_to_completion()
        assert lm.log.pages_written >= 2

    def test_stable_survivors_visible_to_recovery(self, queue):
        lm = manager(queue, CommitPolicy.STABLE)
        typical_txn(lm, 1)
        # No queue processing: nothing drained to disk, yet the records
        # are durable because stable memory survives the crash.
        log = lm.durable_log()
        assert any(isinstance(r, CommitRecord) and r.tid == 1 for r in log)

    def test_flush_forces_partial_page(self, queue):
        lm = manager(queue, CommitPolicy.STABLE)
        typical_txn(lm, 1)
        lm.flush()
        queue.run_to_completion()
        assert lm.log.pages_written == 1
        assert lm.stable.pending_records() == []

    def test_compression_reduces_disk_bytes(self, queue):
        plain = manager(EventQueue(SimulatedClock()), CommitPolicy.STABLE)
        packed = manager(
            EventQueue(SimulatedClock()), CommitPolicy.STABLE, compress=True
        )
        for lm in (plain, packed):
            for tid in range(50):
                typical_txn(lm, tid)
            lm.flush()
            lm.queue.run_to_completion()
        assert packed.bytes_written_to_disk < plain.bytes_written_to_disk
        ratio = packed.bytes_written_to_disk / plain.bytes_written_to_disk
        # Old values are ~38% of the typical transaction's bytes.
        assert 0.55 < ratio < 0.75

    def test_compression_requires_stable(self, queue):
        with pytest.raises(ValueError):
            manager(queue, CommitPolicy.GROUP, compress=True)


class TestDurableLog:
    def test_in_lsn_order(self, queue):
        lm = manager(queue, devices=2)
        for tid in range(10):
            typical_txn(lm, tid)
        lm.flush()
        queue.run_to_completion()
        log = lm.durable_log()
        assert [r.lsn for r in log] == sorted(r.lsn for r in log)

    def test_unflushed_records_invisible(self, queue):
        lm = manager(queue)
        typical_txn(lm, 1)
        # Page not full, never flushed, queue never ran: nothing durable.
        assert lm.durable_log() == []
        assert lm.committed_count == 0

    def test_horizon_tracks_durability(self, queue):
        lm = manager(queue)
        typical_txn(lm, 1)
        assert lm.durable_lsn_horizon() < lm.next_lsn() - 1
        lm.flush()
        queue.run_to_completion()
        assert lm.durable_lsn_horizon() == lm.next_lsn() - 1

    def test_stable_horizon_is_everything(self, queue):
        lm = manager(queue, CommitPolicy.STABLE)
        typical_txn(lm, 1)
        assert lm.durable_lsn_horizon() == lm.next_lsn() - 1


class TestAdaptiveFlushRaces:
    """The three arms of the adaptive flush policy -- group fill, latency
    timer, explicit barrier -- racing each other, including on the exact
    same simulated tick."""

    def test_fill_preempts_timer(self, queue):
        """Nine transactions overflow the page before the timer fires: the
        full group seals on fill, only the straggler waits for the timer."""
        lm = manager(queue, max_commit_delay=0.05)
        for tid in range(9):
            typical_txn(lm, tid)
        queue.run_to_completion()
        assert lm.committed_count == 9
        assert lm.groups_sealed == 2
        assert lm.group_commit_stats()["flush_reasons"] == {
            "fill": 1,
            "timer": 1,
        }

    def test_timer_flushes_idle_group(self, queue):
        """A lone commit with no follow-on traffic goes out at the latency
        bound, not never."""
        lm = manager(queue, max_commit_delay=0.05)
        typical_txn(lm, 1)
        queue.run_to_completion()
        assert lm.committed_count == 1
        assert lm.group_commit_stats()["flush_reasons"] == {"timer": 1}
        # Sealed at the 50 ms bound, durable one page write later.
        assert queue.clock.now == pytest.approx(0.060)

    def test_barrier_preempts_timer(self, queue):
        """An explicit barrier seals ahead of the armed timer; the timer
        callback later finds the group gone and does nothing."""
        lm = manager(queue, max_commit_delay=0.05)
        typical_txn(lm, 1)
        assert lm.commit_barrier() == 1
        queue.run_to_completion()
        assert lm.committed_count == 1
        assert lm.group_commit_stats()["flush_reasons"] == {"barrier": 1}

    def test_barrier_on_empty_buffer(self, queue):
        lm = manager(queue, max_commit_delay=0.05)
        assert lm.commit_barrier() == 0
        queue.run_to_completion()
        assert lm.groups_sealed == 0

    def test_same_tick_fill_beats_timer(self, queue):
        """A burst landing on the timer's exact tick: the burst event was
        inserted first, so it runs first, the group seals on fill, and the
        timer callback is a no-op.  Had the timer won, the 3776-byte burst
        would never overflow and both groups would seal on timers."""
        lm = manager(queue, max_commit_delay=0.05)
        queue.schedule(
            0.05,
            lambda: [typical_txn(lm, t) for t in range(2, 10)],
            label="burst",
        )
        queue.schedule(0.0, lambda: typical_txn(lm, 1), label="first txn")
        queue.run_to_completion()
        assert lm.committed_count == 9
        assert lm.group_commit_stats()["flush_reasons"] == {
            "fill": 1,
            "timer": 1,
        }

    def test_conventional_forces_despite_timer(self, queue):
        """The conventional policy forces every commit; the timer knob is
        inert because no group ever lives long enough to arm one."""
        lm = manager(queue, CommitPolicy.CONVENTIONAL, max_commit_delay=0.05)
        typical_txn(lm, 1)
        typical_txn(lm, 2)
        queue.run_to_completion()
        assert lm.group_commit_stats()["flush_reasons"] == {"force": 2}

    def test_stable_barrier_is_forced_drain(self, queue):
        lm = manager(queue, CommitPolicy.STABLE)
        typical_txn(lm, 1)
        assert lm.commit_barrier() == 0  # stable: no groups, just a drain
        queue.run_to_completion()
        reasons = lm.group_commit_stats()["flush_reasons"]
        assert set(reasons) == {"drain"}
        assert lm.committed_count == 1

    def test_group_commit_stats_shape(self, queue):
        lm = manager(queue, max_commit_delay=0.05)
        for tid in range(9):
            typical_txn(lm, tid)
        queue.run_to_completion()
        stats = lm.group_commit_stats()
        assert stats["groups_sealed"] == 2
        # 9 transactions x 5 records over 2 groups.
        assert stats["mean_group_records"] == pytest.approx(22.5)
        assert stats["mean_commits_per_group"] == pytest.approx(4.5)
        assert stats["mean_group_bytes"] > 0
        assert stats["compression_savings_bytes"] == 0


def run_transfers(policy, horizon, devices=1, compress=False, arrival_rate=8000):
    """Section 5.2's debit/credit stream over 20,000 accounts (the log,
    not locks, is the bottleneck); returns (engine, log manager)."""
    from repro.recovery.state import DatabaseState
    from repro.recovery.transactions import TransactionEngine
    from repro.workload.banking import BankingWorkload

    queue = EventQueue(SimulatedClock())
    stable = StableMemory(64 * 1024 * 1024) if policy is CommitPolicy.STABLE else None
    lm = LogManager(queue, policy=policy, devices=devices, stable=stable, compress=compress)
    engine = TransactionEngine(
        DatabaseState(20_000, records_per_page=64, initial_value=100), queue, lm
    )
    bank = BankingWorkload(20_000, transfer_fraction=1.0, deposit_fraction=0.0, seed=17)
    for i in range(int(horizon * arrival_rate)):
        script, _ = bank.next_script()
        engine.submit_at(i / arrival_rate, script)
    queue.run_until(horizon)
    return engine, lm


class TestThroughputLadder:
    """E6: one log device at 10 ms a page caps conventional WAL near
    100 tps; group commit lifts it about tenfold; k devices scale that;
    stable memory commits at once, and new-value-only compression
    stretches its drain bandwidth (a quarter of a simulated second a
    rung)."""

    HORIZON = 0.25

    @pytest.fixture(scope="class")
    def ladder(self):
        rungs = {
            "conventional": run_transfers(CommitPolicy.CONVENTIONAL, self.HORIZON, arrival_rate=2000),
            "group": run_transfers(CommitPolicy.GROUP, self.HORIZON),
            "group x4": run_transfers(CommitPolicy.GROUP, self.HORIZON, devices=4),
            "stable": run_transfers(CommitPolicy.STABLE, self.HORIZON, arrival_rate=1400),
            "stable+compress": run_transfers(
                CommitPolicy.STABLE, self.HORIZON, compress=True, arrival_rate=2200
            ),
        }
        return {
            name: (engine.throughput(self.HORIZON), engine.mean_commit_latency(), lm)
            for name, (engine, lm) in rungs.items()
        }

    def test_the_papers_100_to_1000_ladder(self, ladder):
        conventional, group = ladder["conventional"][0], ladder["group"][0]
        assert 80 <= conventional <= 120
        assert 700 <= group <= 1300
        assert group / conventional >= 7
        assert ladder["group x4"][0] >= 2.5 * group

    def test_stable_memory_commits_at_once_and_compression_stretches_it(self, ladder):
        assert ladder["stable"][1] * 1000 < 0.5
        assert ladder["group"][1] * 1000 > 5.0
        assert ladder["stable+compress"][0] > 1.3 * ladder["stable"][0]

    def test_group_commit_batches_about_ten_per_page(self, ladder):
        """"Up to ten transactions per commit group": 328-byte transfers
        fit about twelve to a 4 KB page."""
        throughput, _, lm = ladder["group"]
        per_page = throughput * self.HORIZON / max(1, lm.log.pages_written)
        assert 8 <= per_page <= 14


def test_compressed_log_recovers_exactly_with_two_thirds_the_bytes():
    """E7: the same banking history with and without new-value-only
    compression commits the same transactions, recovers exactly from
    either log (losers recover from stable memory), and writes about two
    thirds of the disk bytes -- old values are 60 of an update's 144."""
    from repro.recovery.restart import crash, recover, replay_committed
    from repro.recovery.state import DatabaseState
    from repro.recovery.transactions import TransactionEngine
    from repro.workload.banking import BankingWorkload

    runs = []
    for compress in (False, True):
        queue = EventQueue(SimulatedClock())
        lm = LogManager(
            queue, policy=CommitPolicy.STABLE,
            stable=StableMemory(64 * 1024 * 1024), compress=compress,
        )
        engine = TransactionEngine(
            DatabaseState(5000, records_per_page=64, initial_value=100), queue, lm
        )
        bank = BankingWorkload(5000, seed=23)
        for i in range(800):
            script, _ = bank.next_script()
            engine.submit_at(i * 0.00125, script)
        queue.run_until(1.0)
        cs = crash(engine)
        recovered = recover(cs, initial_value=100).state.values
        assert recovered == replay_committed(cs, initial_value=100).values
        runs.append((engine.committed_count, lm.bytes_written_to_disk, lm.log.pages_written))
    (plain_committed, plain_bytes, plain_pages), (committed, packed_bytes, pages) = runs
    assert committed == plain_committed
    assert 0.55 < packed_bytes / plain_bytes < 0.75
    assert pages < plain_pages

"""Tests for the multi-version read layer (Section 6 / REED83)."""

import pytest

from repro.recovery.log_manager import CommitPolicy, LogManager
from repro.recovery.state import DatabaseState
from repro.recovery.transactions import TransactionEngine
from repro.recovery.versioning import VersionManager
from repro.sim.clock import SimulatedClock
from repro.sim.events import EventQueue


@pytest.fixture
def setup():
    queue = EventQueue(SimulatedClock())
    state = DatabaseState(100, records_per_page=16, initial_value=10)
    lm = LogManager(queue, policy=CommitPolicy.GROUP)
    engine = TransactionEngine(state, queue, lm)
    versions = VersionManager(engine)
    return queue, lm, engine, versions


class TestSnapshots:
    def test_snapshot_sees_prior_commits(self, setup):
        queue, lm, engine, versions = setup
        engine.submit([("write", 0, 42)])
        snap = versions.snapshot()
        assert snap.read(0) == 42
        assert snap.read(1) == 10  # untouched: base value

    def test_snapshot_isolated_from_later_writes(self, setup):
        queue, lm, engine, versions = setup
        engine.submit([("write", 0, 1)])
        snap = versions.snapshot()
        engine.submit([("write", 0, 2)])
        assert snap.read(0) == 1
        assert versions.snapshot().read(0) == 2

    def test_snapshot_excludes_uncommitted(self, setup):
        queue, lm, engine, versions = setup
        from repro.recovery.lock_table import LockMode

        engine.locks.acquire(999, 5, LockMode.EXCLUSIVE)
        engine.submit([("write", 0, 77), ("write", 5, 1)])  # blocks on 5
        snap = versions.snapshot()
        # The in-memory state is dirty (77) but the snapshot is clean.
        assert engine.state.read(0) == 77
        assert snap.read(0) == 10

    def test_snapshot_is_transaction_consistent(self, setup):
        """A transfer is visible either fully or not at all, never half."""
        queue, lm, engine, versions = setup
        for _ in range(20):
            engine.submit(
                [("write", 0, lambda v: v - 1), ("write", 1, lambda v: v + 1)]
            )
            snap = versions.snapshot()
            assert snap.read(0) + snap.read(1) == 20
            snap.release()

    def test_total_is_conserved_under_transfers(self, setup):
        queue, lm, engine, versions = setup
        import random

        rng = random.Random(3)
        for _ in range(100):
            a, b = sorted(rng.sample(range(100), 2))
            amt = rng.randrange(5)
            engine.submit(
                [
                    ("write", a, lambda v, amt=amt: v - amt),
                    ("write", b, lambda v, amt=amt: v + amt),
                ]
            )
        snap = versions.snapshot()
        assert snap.total() == 100 * 10

    def test_reads_take_no_locks(self, setup):
        queue, lm, engine, versions = setup
        snap = versions.snapshot()
        snap.read(0)
        snap.read_many(range(50))
        assert len(engine.locks) == 0 or not engine.locks.holders(0)

    def test_released_snapshot_rejects_reads(self, setup):
        queue, lm, engine, versions = setup
        snap = versions.snapshot()
        snap.release()
        with pytest.raises(RuntimeError):
            snap.read(0)

    def test_context_manager_releases(self, setup):
        queue, lm, engine, versions = setup
        with versions.snapshot() as snap:
            snap.read(0)
        assert versions.oldest_pin() is None


class TestOrdering:
    def test_versions_ordered_by_commit_lsn(self, setup):
        """A dependent writer's version must come after its dependency's,
        even though both pre-commit in the same instant."""
        queue, lm, engine, versions = setup
        engine.submit([("write", 0, 1)])
        engine.submit([("write", 0, lambda v: v + 10)])  # depends on first
        snap = versions.snapshot()
        assert snap.read(0) == 11

    def test_aborted_transactions_publish_nothing(self, setup):
        queue, lm, engine, versions = setup
        from repro.recovery.lock_table import LockMode

        engine.locks.acquire(999, 5, LockMode.EXCLUSIVE)
        txn = engine.submit([("write", 0, 77), ("write", 5, 1)])
        engine.abort(txn)
        snap = versions.snapshot()
        assert snap.read(0) == 10
        assert versions.versions_recorded == 0


class TestPruning:
    def test_prune_respects_pins(self, setup):
        queue, lm, engine, versions = setup
        engine.submit([("write", 0, 1)])
        pinned = versions.snapshot()
        engine.submit([("write", 0, 2)])
        engine.submit([("write", 0, 3)])
        versions.prune()
        assert pinned.read(0) == 1  # still readable
        assert versions.snapshot().read(0) == 3

    def test_prune_after_release_drops_history(self, setup):
        queue, lm, engine, versions = setup
        for v in range(1, 6):
            engine.submit([("write", 0, v)])
        before = versions.live_versions
        versions.prune()  # no pins: only the newest survives per record
        assert versions.live_versions < before
        assert versions.snapshot().read(0) == 5

    def test_prune_keeps_visibility_for_oldest_pin(self, setup):
        queue, lm, engine, versions = setup
        engine.submit([("write", 0, 1)])
        engine.submit([("write", 0, 2)])
        pin = versions.snapshot()
        engine.submit([("write", 0, 3)])
        engine.submit([("write", 0, 4)])
        versions.prune()
        assert pin.read(0) == 2
        assert versions.snapshot().read(0) == 4

    def test_double_attach_rejected(self, setup):
        queue, lm, engine, versions = setup
        with pytest.raises(ValueError):
            VersionManager(engine)


def writer_stream_with_audits(audit_mode, horizon=1.0, accounts=400, width=380):
    """Transfers arriving every millisecond, plus a ~38 ms audit of
    ``width`` records every 40 ms: none, as a locking transaction, or
    over a pinned snapshot.  Returns (writer tps, mean writer latency)."""
    import random

    queue = EventQueue(SimulatedClock())
    state = DatabaseState(accounts, records_per_page=64, initial_value=100)
    engine = TransactionEngine(state, queue, LogManager(queue, policy=CommitPolicy.GROUP))
    versions = VersionManager(engine) if audit_mode == "versioned" else None
    rng, audit_rng = random.Random(55), random.Random(56)
    for i in range(int(horizon * 1000)):
        a, b = sorted(rng.sample(range(accounts), 2))
        amount = rng.randrange(1, 10)
        engine.submit_at(i * 0.001, [
            ("write", a, lambda v, amount=amount: v - amount),
            ("write", b, lambda v, amount=amount: v + amount),
        ])
    chunk, think = 20, 0.002

    def audit():
        lo = audit_rng.randrange(accounts - width)
        ids = list(range(lo, lo + width))
        if audit_mode == "locking":
            script = []
            for offset in range(0, width, chunk):
                script.extend(("read", i) for i in ids[offset:offset + chunk])
                script.append(("pause", think))
            engine.submit(script)
            return
        snap = versions.snapshot()

        def read_chunk(offset=0):
            snap.read_many(ids[offset:offset + chunk])
            if offset + chunk < width:
                queue.schedule(think, lambda: read_chunk(offset + chunk), label="chunk")
            else:
                snap.release()
                versions.prune()

        read_chunk()

    if audit_mode != "none":
        for k in range(1, int(horizon / 0.04)):
            queue.schedule_at(k * 0.04, audit, label="audit")
    queue.run_until(horizon)
    writers = [x for x in engine.committed if len(x.script) == 2]
    return len(writers) / horizon, sum(w.latency for w in writers) / len(writers)


def test_versioned_audits_leave_writers_alone_and_locking_audits_do_not():
    """E13, Section 6's conjecture: snapshot audits leave writer
    throughput and latency at the no-audit baseline; locking audits make
    writers queue behind their shared locks (latency, below saturation)."""
    base_tps, base_latency = writer_stream_with_audits("none")
    lock_tps, lock_latency = writer_stream_with_audits("locking")
    ver_tps, ver_latency = writer_stream_with_audits("versioned")
    assert ver_tps > 0.95 * base_tps
    assert ver_latency == pytest.approx(base_latency, rel=0.05)
    assert lock_tps <= ver_tps
    assert lock_latency > 1.5 * ver_latency

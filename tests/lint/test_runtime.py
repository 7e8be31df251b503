"""Dynamic lock-order tests: the runtime half of the lock-order rule.

The conftest autouse fixture installs a process-wide
:class:`~repro.lint.runtime.LockOrderRecorder` and asserts the observed
acquisition graph is acyclic at teardown.  These tests exercise the
recorder machinery itself: an artificial ABBA thread pair must produce a
cycle, and the real threaded paths (governor admission, group commit)
must stay acyclic while actually recording acquisitions.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.locks import (
    TrackedLock,
    current_recorder,
    install_recorder,
    tracked_lock,
    uninstall_recorder,
)
from repro.governor import Governor, GovernorConfig
from repro.lint.runtime import LockOrderRecorder, LockOrderViolation
from repro.recovery.log_manager import CommitPolicy, LogManager
from repro.recovery.records import BeginRecord, UpdateRecord
from repro.sim.clock import SimulatedClock
from repro.sim.events import EventQueue


def _run_threads(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestRecorder:
    def test_abba_thread_pair_flags_cycle(self):
        recorder = LockOrderRecorder()
        lock_a = TrackedLock("a", recorder)
        lock_b = TrackedLock("b", recorder)

        def forward():
            with lock_a:
                with lock_b:
                    pass

        def backward():
            with lock_b:
                with lock_a:
                    pass

        _run_threads(forward, backward)
        cycle = recorder.find_cycle()
        assert cycle is not None and set(cycle) == {"a", "b"}
        with pytest.raises(LockOrderViolation) as exc:
            recorder.assert_acyclic()
        assert "a" in str(exc.value) and "b" in str(exc.value)

    def test_consistent_order_is_acyclic(self):
        recorder = LockOrderRecorder()
        lock_a = TrackedLock("a", recorder)
        lock_b = TrackedLock("b", recorder)

        def ordered():
            with lock_a:
                with lock_b:
                    pass

        _run_threads(ordered, ordered)
        assert recorder.find_cycle() is None
        assert recorder.edges() == {"a": {"b"}}
        recorder.assert_acyclic()

    def test_sequential_reacquisition_is_not_an_edge(self):
        # a then b released then a again must not record b -> a.
        recorder = LockOrderRecorder()
        lock_a = TrackedLock("a", recorder)
        lock_b = TrackedLock("b", recorder)
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            pass
        with lock_a:
            pass
        assert recorder.edges() == {"a": {"b"}}
        recorder.assert_acyclic()

    def test_reset_clears_edges(self):
        recorder = LockOrderRecorder()
        lock_a = TrackedLock("a", recorder)
        with lock_a:
            pass
        assert recorder.acquisitions == 1
        recorder.reset()
        assert recorder.acquisitions == 0
        assert recorder.edges() == {}

    def test_tracked_lock_works_under_condition(self):
        recorder = LockOrderRecorder()
        lock = TrackedLock("gate", recorder)
        cond = threading.Condition(lock)
        released = []

        def waiter():
            with cond:
                while not released:
                    cond.wait(timeout=5)

        t = threading.Thread(target=waiter)
        t.start()
        with cond:
            released.append(True)
            cond.notify_all()
        t.join()
        assert recorder.acquisitions >= 2
        recorder.assert_acyclic()


class TestTrackedLockSeam:
    def test_plain_lock_without_recorder(self):
        previous = current_recorder()
        uninstall_recorder()
        try:
            lock = tracked_lock("x")
            assert not isinstance(lock, TrackedLock)
            with lock:
                pass
        finally:
            if previous is not None:
                install_recorder(previous)

    def test_tracked_lock_with_recorder(self):
        assert current_recorder() is not None  # conftest autouse fixture
        lock = tracked_lock("x")
        assert isinstance(lock, TrackedLock)


class TestThreadedPaths:
    def test_governor_contention_records_and_stays_acyclic(
        self, lock_order_recorder
    ):
        governor = Governor(
            GovernorConfig(
                max_concurrent=2, max_memory_pages=8, admission_timeout=5.0
            )
        )
        assert isinstance(governor._lock, TrackedLock)

        def run_queries():
            for _ in range(5):
                handle = governor.admit(pages=4)
                governor.release(handle)

        _run_threads(*[run_queries] * 4)
        assert governor.admitted == 20
        assert lock_order_recorder.acquisitions > 0
        lock_order_recorder.assert_acyclic()

    def test_group_commit_happy_path_acyclic(self, lock_order_recorder):
        queue = EventQueue(SimulatedClock())
        lm = LogManager(queue, policy=CommitPolicy.GROUP)
        for tid in range(1, 4):
            lm.append(BeginRecord(tid=tid))
            lm.append(UpdateRecord(tid=tid, record_id=0, old_value=0,
                                   new_value=tid))
            lm.append_commit(tid)
        queue.run_to_completion()
        lock_order_recorder.assert_acyclic()

"""Good/bad fixtures for the four interprocedural checkers.

Each rule must catch its seeded bad fixture (the acceptance criterion:
a known blocking-call-under-lock, an unlocked shared write, a
read-lock mutation, a leaked-slot path) and stay silent on the good
twin that fixes it the way the shipped tree does.
"""

from __future__ import annotations

from repro.lint.checkers.blocking_lock import BlockingUnderLockChecker
from repro.lint.checkers.resource_lifecycle import ResourceLifecycleChecker
from repro.lint.checkers.rwlock_discipline import RwlockDisciplineChecker
from repro.lint.checkers.shared_write import UnlockedSharedWriteChecker
from repro.lint.engine import ERROR, WARNING

from tests.lint.conftest import lint, rules_of, write_module


# -- blocking-under-lock ----------------------------------------------------


class TestBlockingUnderLock:
    def run(self, tmp_path, body):
        write_module(tmp_path, "repro/server/fixture.py", body)
        return lint(tmp_path, [BlockingUnderLockChecker()])

    def test_transitive_sleep_under_mutex_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._mu = threading.Lock()

                def tick(self):
                    with self._mu:
                        self._slow()

                def _slow(self):
                    time.sleep(0.1)
            """,
        )
        assert "blocking-under-lock" in rules_of(findings)
        assert any("time.sleep" in f.message for f in findings)
        assert all(f.severity == ERROR for f in findings)

    def test_sleep_outside_lock_clean(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._mu = threading.Lock()

                def tick(self):
                    with self._mu:
                        self.n = 1
                    time.sleep(0.1)

                n = 0
            """,
        )
        assert findings == []

    def test_read_side_demotes_to_warning(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            import time

            class Catalog:
                def __init__(self):
                    self._rw = ReadWriteLock("t")

                def read_op(self):
                    with self._rw.read_locked():
                        time.sleep(0.01)

                def write_op(self):
                    with self._rw.write_locked():
                        time.sleep(0.01)
            """,
        )
        by_severity = {f.severity for f in findings}
        assert by_severity == {WARNING, ERROR}
        warn = [f for f in findings if f.severity == WARNING]
        assert all("[read]" in f.message for f in warn)

    def test_condition_wait_releases_its_own_lock(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            import threading

            class Gate:
                def __init__(self):
                    self._mu = threading.Lock()
                    self._cv = threading.Condition(self._mu)

                def wait_ready(self):
                    with self._mu:
                        self._cv.wait()
            """,
        )
        assert findings == []  # Condition(mu).wait() gives mu back

    def test_socket_io_under_lock_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            import threading

            class Server:
                def __init__(self, sock):
                    self._mu = threading.Lock()
                    self.sock = sock

                def pump(self):
                    with self._mu:
                        self.sock.recv(4096)
            """,
        )
        assert rules_of(findings) == ["blocking-under-lock"]
        assert "socket recv" in findings[0].message


# -- unlocked-shared-write --------------------------------------------------


class TestUnlockedSharedWrite:
    def run(self, tmp_path, body):
        write_module(tmp_path, "repro/server/fixture.py", body)
        return lint(tmp_path, [UnlockedSharedWriteChecker()])

    def test_bare_write_to_guarded_attr_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            import threading

            class Stats:
                def __init__(self):
                    self._mu = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._mu:
                        self.count += 1

                def sloppy(self):
                    self.count = 0
            """,
        )
        assert rules_of(findings) == ["unlocked-shared-write"]
        assert "Stats.count" in findings[0].message

    def test_all_writes_locked_clean(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            import threading

            class Stats:
                def __init__(self):
                    self._mu = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._mu:
                        self.count += 1

                def reset(self):
                    with self._mu:
                        self.count = 0
            """,
        )
        assert findings == []

    def test_helper_only_called_under_lock_clean(self, tmp_path):
        # The must-entry context covers _add_locked: its only caller
        # holds the mutex, so the write inside it is guarded.
        findings = self.run(
            tmp_path,
            """
            import threading

            class Ledger:
                def __init__(self):
                    self._mu = threading.Lock()
                    self.total = 0

                def add(self, n):
                    with self._mu:
                        self._add_locked(n)

                def _add_locked(self, n):
                    self.total += n
            """,
        )
        assert findings == []

    def test_threadlocal_attr_exempt(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            import threading

            class Counters:
                def __init__(self):
                    self._mu = threading.Lock()
                    self._local = threading.local()

                def reset(self):
                    with self._mu:
                        self._local = threading.local()

                def fast_reset(self):
                    self._local = threading.local()
            """,
        )
        assert findings == []  # per-thread structures are safe by design

    def test_read_side_does_not_count_as_guard(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            class Catalog:
                def __init__(self):
                    self._rw = ReadWriteLock("t")
                    self.version = 0

                def bump(self):
                    with self._rw.write_locked():
                        self.version += 1

                def sneaky(self):
                    with self._rw.read_locked():
                        self.version += 1
            """,
        )
        assert "unlocked-shared-write" in rules_of(findings)


# -- rwlock-discipline ------------------------------------------------------


class TestRwlockDiscipline:
    def run(self, tmp_path, body):
        write_module(tmp_path, "repro/core/fixture.py", body)
        return lint(tmp_path, [RwlockDisciplineChecker()])

    def test_mutation_under_read_side_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            class Catalog:
                def __init__(self):
                    self._rw = ReadWriteLock("t")
                    self.version = 0

                def sneaky(self):
                    with self._rw.read_locked():
                        self.version += 1
            """,
        )
        assert rules_of(findings) == ["rwlock-discipline"]
        assert "read side" in findings[0].message
        assert findings[0].severity == ERROR

    def test_mutation_under_write_side_clean(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            class Catalog:
                def __init__(self):
                    self._rw = ReadWriteLock("t")
                    self.version = 0

                def bump(self):
                    with self._rw.write_locked():
                        self.version += 1
            """,
        )
        assert findings == []

    def test_reentrant_read_inside_write_clean(self, tmp_path):
        # The writing thread may take the read side; the write side in
        # the context is the stronger guard.
        findings = self.run(
            tmp_path,
            """
            class Catalog:
                def __init__(self):
                    self._rw = ReadWriteLock("t")
                    self.version = 0

                def bump(self):
                    with self._rw.write_locked():
                        with self._rw.read_locked():
                            self.version += 1
            """,
        )
        assert findings == []

    def test_helper_called_under_read_side_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            class Catalog:
                def __init__(self):
                    self._rw = ReadWriteLock("t")
                    self.version = 0

                def lookup(self):
                    with self._rw.read_locked():
                        self._touch()

                def _touch(self):
                    self.version += 1
            """,
        )
        assert rules_of(findings) == ["rwlock-discipline"]


# -- resource-lifecycle -----------------------------------------------------


class TestResourceLifecycle:
    def run(self, tmp_path, body):
        write_module(tmp_path, "repro/governor/fixture.py", body)
        return lint(tmp_path, [ResourceLifecycleChecker()])

    def test_admit_without_finally_flagged(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            class Runner:
                def run(self, gov):
                    handle = gov.admit(1)
                    self.work()
                    gov.release(handle)
            """,
        )
        assert rules_of(findings) == ["resource-lifecycle"]
        assert "exception path" in findings[0].message

    def test_admit_with_finally_clean(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            class Runner:
                def run(self, gov):
                    handle = gov.admit(1)
                    try:
                        self.work()
                    finally:
                        gov.release(handle)
            """,
        )
        assert findings == []

    def test_begin_wait_must_reach_end_wait_or_release(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            class Parker:
                def bad(self, gov, handle):
                    gov.begin_wait(handle)
                    self.park()
                    gov.end_wait(handle)

                def good(self, gov, handle):
                    gov.begin_wait(handle)
                    try:
                        self.park()
                    finally:
                        gov.end_wait(handle)
            """,
        )
        assert rules_of(findings) == ["resource-lifecycle"]
        assert "bad" in findings[0].message

    def test_spill_writer_leak_and_fix(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            class Spill:
                def bad(self, disk):
                    writer = SpillWriter(disk, ["f"], 8, None)
                    writer.write_many(0, [])
                    return writer.close()

                def good(self, disk):
                    writer = SpillWriter(disk, ["f"], 8, None)
                    try:
                        writer.write_many(0, [])
                    finally:
                        closed = writer.close()
                    return closed
            """,
        )
        assert rules_of(findings) == ["resource-lifecycle"]
        assert "bad" in findings[0].message

    def test_writer_pre_bound_to_none_is_still_checked(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            from typing import Optional

            class Spill:
                def plain(self, disk, many):
                    writer = None
                    if many:
                        writer = SpillWriter(disk, ["f"], 8, None)
                    self.checkpoint()
                    return writer.close() if writer is not None else []

                def annotated(self, disk, many):
                    writer: Optional[SpillWriter] = None
                    if many:
                        writer = SpillWriter(disk, ["f"], 8, None)
                    self.checkpoint()
                    return writer.close() if writer is not None else []

                def rebound(self, disk):
                    writer = SpillWriter(disk, ["f"], 8, None)
                    writer = self.other
                    self.checkpoint()
            """,
        )
        assert rules_of(findings) == ["resource-lifecycle"] * 2
        assert sorted(f.message.rsplit(".", 1)[1] for f in findings) == [
            "annotated", "plain",
        ]
        assert all("an exception path" in f.message for f in findings)

    def test_escaping_resource_is_callers_problem(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            class Spill:
                def open_for_caller(self, disk):
                    writer = SpillWriter(disk, ["f"], 8, None)
                    return writer

                def stash(self, disk):
                    self.writers.append(SpillWriter(disk, ["f"], 8, None))
            """,
        )
        assert findings == []  # ownership transferred: no local leak

    def test_explicit_lock_acquire_needs_finally(self, tmp_path):
        findings = self.run(
            tmp_path,
            """
            import threading

            class Gate:
                def __init__(self):
                    self._mu = threading.Lock()

                def bad(self):
                    self._mu.acquire()
                    self.work()
                    self._mu.release()

                def good(self):
                    self._mu.acquire()
                    try:
                        self.work()
                    finally:
                        self._mu.release()
            """,
        )
        assert rules_of(findings) == ["resource-lifecycle"]
        assert "bad" in findings[0].message

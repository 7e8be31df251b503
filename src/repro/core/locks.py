"""The engine's lock seam: every tracked internal lock is made here.

Production code creates its locks through :func:`tracked_lock`::

    self._lock = tracked_lock("repro.governor.Governor._lock")

With no recorder installed (the default) that returns a plain
``threading.Lock`` -- zero overhead.  The test suite installs a
:class:`repro.lint.runtime.LockOrderRecorder` before each test (see
tests/conftest.py), so every lock built inside a test is a
:class:`TrackedLock` that reports its acquisitions, and every governor
and group-commit test doubles as a lock-order check.  A recorder is any
object with ``on_acquire(name)`` and ``on_release(name)``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional


class TrackedLock:
    """A lock proxy that reports acquisitions to a recorder.

    Delegates ``acquire``/``release`` to a real lock, so it drops into
    ``threading.Condition`` unchanged (the condition probes ownership via
    non-blocking acquire, which records nothing unless it succeeds).
    """

    def __init__(
        self,
        name: str,
        recorder: Any,
        factory: Callable[[], Any] = threading.Lock,
    ) -> None:
        self.name = name
        self.recorder = recorder
        self._lock = factory()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self.recorder.on_acquire(self.name)
        return acquired

    def release(self) -> None:
        self.recorder.on_release(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    # As on threading.Lock: ``with lock:`` is acquire() ... release().
    __enter__ = acquire

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return "TrackedLock(%r)" % (self.name,)


#: The process-wide recorder (None = tracking off, plain locks handed out).
_RECORDER: Optional[Any] = None


def install_recorder(recorder: Any) -> Any:
    """Install (and return) the process-wide recorder.

    Locks created by :func:`tracked_lock` *after* this call report to it;
    the test suite installs one before building any engine objects.
    """
    global _RECORDER
    _RECORDER = recorder
    return recorder


def uninstall_recorder() -> None:
    global _RECORDER
    _RECORDER = None


def current_recorder() -> Optional[Any]:
    return _RECORDER


def tracked_lock(
    name: str, factory: Callable[[], Any] = threading.Lock
):
    """A lock that self-reports to the installed recorder (if any).

    Call it wherever a lock is created: the object is a plain
    ``factory()`` lock unless a recorder is installed -- tracking costs
    nothing outside the test suite.
    """
    recorder = _RECORDER
    if recorder is None:
        return factory()
    return TrackedLock(name, recorder, factory)


__all__ = [
    "TrackedLock",
    "current_recorder",
    "install_recorder",
    "tracked_lock",
    "uninstall_recorder",
]

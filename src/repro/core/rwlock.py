"""A writer-preference read-write lock for the relational facade.

The catalog, the reuse cache, and the counter object are shared by every
session thread.  Read-only statements (the overwhelming majority of the
SQL workload) never structurally mutate them, so they can run genuinely
in parallel; DDL and DML do mutate them and must run alone.  This lock
encodes exactly that contract:

* **readers share**: any number of threads hold the read side at once --
  ``peak_readers`` records the high-water mark, which is the direct
  evidence the server's "more than one SQL statement in flight" claim
  rests on;
* **writers exclude**: the write side waits for every reader to drain
  and blocks new readers while it waits (writer preference -- a steady
  stream of cheap reads must not starve a schema change);
* **the writer is reentrant**: the owning thread may re-enter the write
  side -- and may take the read side -- freely, so a facade entry point
  may call another, or run a query, while it holds the lock.

The internal mutex is registered with the lock-order recorder via
:func:`~repro.core.locks.tracked_lock`; it is never held while user
code runs (only around the state transitions), so the lock adds no edges
under the governor or the lock table.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.core.locks import tracked_lock
from repro.errors import StateError


class ReadWriteLock:
    """Shared/exclusive lock; writer-preference, writer-reentrant."""

    def __init__(self, name: str = "repro.core.ReadWriteLock._mu") -> None:
        self._mu = tracked_lock(name)
        self._turnstile = threading.Condition(self._mu)
        self._readers = 0
        self._writer: Optional[int] = None
        self._writer_depth = 0
        self._writers_waiting = 0
        #: High-water mark of simultaneous readers (concurrency evidence).
        self.peak_readers = 0

    # -- read side ---------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._mu:
            if self._writer == me:
                # The writing thread may read what it is writing.
                self._writer_depth += 1
                return
            while self._writer is not None or self._writers_waiting:
                self._turnstile.wait()
            self._readers += 1
            if self._readers > self.peak_readers:
                self.peak_readers = self._readers

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._mu:
            if self._writer == me:
                self._writer_depth -= 1
                return
            if self._readers < 1:
                raise StateError("release_read without a matching acquire")
            self._readers -= 1
            if self._readers == 0:
                self._turnstile.notify_all()

    # -- write side --------------------------------------------------------

    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        """Take the write side; returns True once exclusive.

        With a ``timeout`` (seconds), gives up and returns False if the
        readers have not drained in time -- the waiting-writer claim is
        withdrawn, so parked readers wake up and proceed (a timed-out
        schema change must not leave the lock wedged against reads).
        """
        me = threading.get_ident()
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._mu:
            if self._writer == me:
                self._writer_depth += 1
                return True
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    if deadline is None:
                        self._turnstile.wait()
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._turnstile.wait(
                        remaining
                    ):
                        return False
            finally:
                self._writers_waiting -= 1
                if self._writers_waiting == 0:
                    # Whether we got the lock or timed out, readers
                    # blocked only by waiting-writer preference can run.
                    self._turnstile.notify_all()
            self._writer = me
            self._writer_depth = 1
            return True

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._mu:
            if self._writer != me or self._writer_depth < 1:
                raise StateError("release_write by a non-owning thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._turnstile.notify_all()

    # -- context managers --------------------------------------------------

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # -- introspection -----------------------------------------------------

    def occupancy(self) -> dict:
        """Current reader/writer occupancy (for stats and tests)."""
        with self._mu:
            return {
                "readers": self._readers,
                "peak_readers": self.peak_readers,
                "writer_held": self._writer is not None,
                "writers_waiting": self._writers_waiting,
            }

    def __repr__(self) -> str:
        state = self.occupancy()
        return "ReadWriteLock(%d readers, writer=%s)" % (
            state["readers"],
            state["writer_held"],
        )


__all__ = ["ReadWriteLock"]

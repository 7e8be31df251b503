"""The machine beside the work: a speed reading, a CPU held, a fingerprint.

The 2-vCPU box this ledger was sized on does not run at one speed: whole
minutes are a tenth to a quarter slower than the minutes before them, for
memory-heavy work more than for arithmetic.  No metric is corrected for
that -- every named number is what the clocks read.  The harness *reads*
the machine: a fixed :class:`Kernel` runs between passes, off the clock,
and its duration goes into the run's record (``kernel_ms``, and the
per-layer ``harness.kernel_ms``).  ``compare`` and ``--calibrate`` print it
per set, so that two sets measured at different machine speeds are seen to
be, and the comparison is made again rather than believed.

And it takes from the hypervisor the two decisions that moved the numbers
most: which CPU a wake-up lands on (:func:`use_one_cpu`) and whether the
CPU is still the run's when a timer fires (:class:`Awake`).
"""

from __future__ import annotations

import os
import platform
import random
import subprocess
import sys
import time
from typing import Any, Dict, Optional


class Kernel:
    """A few milliseconds of work that never changes: an arithmetic loop,
    then ten thousand strings and large integers allocated, hashed and
    looked up.  Nothing from the engine.  It creates three containers per
    execution and nothing else the cyclic collector tracks, so it never
    triggers a collection of the heap it runs beside."""

    def __init__(self) -> None:
        rng = random.Random(1984)
        self._keys = [rng.randrange(1 << 30) for _ in range(10_000)]

    def _once(self) -> float:
        keys = self._keys
        started = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        texts = [str(key) for key in keys]
        products = [key * 7919 for key in keys]
        table = dict.fromkeys(texts[::2])
        found = 0
        for text in texts[::3]:
            if text in table:
                found += 1
        if not (total and found and products):
            raise AssertionError("the kernel lost its work")
        return time.perf_counter() - started

    def run(self) -> float:
        """Seconds one execution took: the quicker of two, because the
        first finds the caches full of whatever ran before it."""
        return min(self._once(), self._once())


def use_one_cpu() -> None:
    """Keep this process, and the server child it will start, on one CPU:
    the highest-numbered it may use (CPU 0 takes the guest's interrupts).

    Load generator and server take turns -- the load is closed-loop and the
    server serialises on its interpreter lock -- so a second CPU buys them
    little, and on a virtual machine it costs them a wake-up across CPUs
    for every frame, at a price the hypervisor sets anew every few
    minutes.  In seven alternating pairs of ``wisc_wire`` runs the free
    ones read 226-245 operations a second at 4.3-4.7 CPU-ms each, the
    pinned ones 238-254 (six within 2 %) at 3.9-4.2; in-process runs lose
    their rare migrations (145-150 free, 147-148 pinned)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


#: The child :class:`Awake` starts.  ``SCHED_IDLE`` or nothing: a spinner at
#: normal priority would take half the CPU from the work.  It inherits the
#: run's one CPU, and it ends when the run does, however the run ends.
_SPIN = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
print("spinning", flush=True)
run = os.getppid()
while os.getppid() == run:
    for _ in range(1000000):
        pass
"""


class Awake:
    """Keeps the run's CPU from going idle: a child process that spins at
    ``SCHED_IDLE`` priority, which the kernel runs only while nothing else
    on that CPU wants to and puts aside the moment something does.

    A virtual CPU with nothing to run halts, the hypervisor gives the core
    to somebody else, and the next wake-up -- a group-commit timer, a frame
    on a socket -- pays to get the core back and finds its caches full of
    that somebody's data.  What that costs is the host's and its other
    guests' to decide, anew every few minutes.  ``bank_wire`` idles two
    milliseconds in every transfer: in eight alternating pairs of runs its
    ``cpu_ms_per_op`` read 0.65-0.78 (a set's quartiles 8.7 % apart) with the
    CPU left to halt and 0.58-0.61, one run 0.68 (3.9 %), with it held; the
    median transfer took 3.5 ms and 2.8 ms.  The other three workloads never
    leave the CPU idle and read the same either way.

    Where the scheduling class is not to be had, nothing spins and the run
    goes on; ``held`` says which, and the run's fingerprint records it."""

    def __init__(self) -> None:
        self._proc: Optional[subprocess.Popen] = None
        self.held = False
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-S", "-c", _SPIN],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
            self.held = self._proc.stdout.readline().strip() == b"spinning"
        except OSError:
            pass
        if not self.held:
            self.stop()

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
            self._proc.stdout.close()
            self._proc = None
        self.held = False


def fingerprint(root: str, cpu_held_awake: bool) -> Dict[str, Any]:
    """What a result was measured on."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_used": (
            sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        ),
        "cpu_held_awake": cpu_held_awake,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` (no subprocess); a
    checkout that is not a repository says so."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"

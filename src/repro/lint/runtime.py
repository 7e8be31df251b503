"""Dynamic lock-order recording -- the runtime half of the lock-order rule.

The static pass in :mod:`repro.lint.checkers.lock_order` proves the
*source* acquires locks in one global order; this module checks the same
invariant on *executions*.  A :class:`LockOrderRecorder` keeps a
per-thread stack of held locks and, on every acquisition, records an edge
from each currently-held lock to the new one.  At teardown
:meth:`LockOrderRecorder.assert_acyclic` fails the test if any interleaved
pair of threads acquired two locks in opposite orders -- the ABBA pattern
that becomes a deadlock under less lucky scheduling.

Production code opts in through :func:`tracked_lock`::

    self._lock = tracked_lock("repro.governor.Governor._lock")

With no recorder installed (the default) that returns a plain
``threading.Lock`` -- zero overhead.  The test suite installs a global
recorder (see tests/conftest.py), so every governor and group-commit test
doubles as a lock-order check.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ReproError


class LockOrderViolation(ReproError):
    """Two locks were acquired in opposite orders by interleaved threads."""

    def __init__(self, cycle: List[str], edges: Dict[str, Set[str]]) -> None:
        self.cycle = list(cycle)
        self.edges = {k: set(v) for k, v in edges.items()}
        super().__init__(
            "lock-order cycle observed at runtime: %s"
            % " -> ".join(self.cycle + self.cycle[:1])
        )


class LockOrderRecorder:
    """Observed lock-acquisition edges across every thread."""

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._held = threading.local()
        #: edge -> (thread names observed taking it) for diagnostics.
        self._edges: Dict[Tuple[str, str], Set[str]] = {}
        self.acquisitions = 0

    # -- hooks called by TrackedLock ---------------------------------------

    def on_acquire(self, name: str) -> None:
        stack = self._stack()
        if name not in stack:
            thread = threading.current_thread().name
            with self._guard:
                self.acquisitions += 1
                for held in stack:
                    self._edges.setdefault((held, name), set()).add(thread)
        stack.append(name)

    def on_release(self, name: str) -> None:
        stack = self._stack()
        # Remove the innermost occurrence (reentrant locks release LIFO).
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                break

    def _stack(self) -> List[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    # -- analysis ----------------------------------------------------------

    def edges(self) -> Dict[str, Set[str]]:
        with self._guard:
            graph: Dict[str, Set[str]] = {}
            for (a, b) in self._edges:
                graph.setdefault(a, set()).add(b)
            return graph

    def find_cycle(self) -> Optional[List[str]]:
        graph = self.edges()
        colour: Dict[str, int] = {}
        path: List[str] = []

        def dfs(node: str) -> Optional[List[str]]:
            colour[node] = 1
            path.append(node)
            for nxt in sorted(graph.get(node, ())):
                state = colour.get(nxt, 0)
                if state == 1:
                    return path[path.index(nxt):]
                if state == 0:
                    cycle = dfs(nxt)
                    if cycle is not None:
                        return cycle
            path.pop()
            colour[node] = 2
            return None

        for node in sorted(graph):
            if colour.get(node, 0) == 0:
                cycle = dfs(node)
                if cycle is not None:
                    return cycle
        return None

    def assert_acyclic(self) -> None:
        """Raise :class:`LockOrderViolation` if any ABBA pair was seen."""
        cycle = self.find_cycle()
        if cycle is not None:
            raise LockOrderViolation(cycle, self.edges())

    def reset(self) -> None:
        with self._guard:
            self._edges.clear()
            self.acquisitions = 0


class TrackedLock:
    """A lock proxy that reports acquisitions to a recorder.

    Delegates ``acquire``/``release`` to a real lock, so it drops into
    ``threading.Condition`` unchanged (the condition probes ownership via
    non-blocking acquire, which records nothing unless it succeeds).
    """

    def __init__(
        self,
        name: str,
        recorder: LockOrderRecorder,
        factory: Callable[[], object] = threading.Lock,
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

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return "TrackedLock(%r)" % (self.name,)


#: The process-wide recorder (None = tracking off, plain locks handed out).
_RECORDER: Optional[LockOrderRecorder] = None


def install_recorder(
    recorder: Optional[LockOrderRecorder] = None,
) -> LockOrderRecorder:
    """Install (and return) the process-wide recorder.

    Locks created by :func:`tracked_lock` *after* this call report to it;
    the test suite installs one before building any engine objects.
    """
    global _RECORDER
    if recorder is None:
        recorder = LockOrderRecorder()
    _RECORDER = recorder
    return recorder


def uninstall_recorder() -> None:
    global _RECORDER
    _RECORDER = None


def current_recorder() -> Optional[LockOrderRecorder]:
    return _RECORDER


# -- session-wide edge accumulation (static-vs-runtime diff) ----------------
#
# Each test installs its own recorder (tests/conftest.py) so per-test
# acyclicity stays isolated; the *union* of every recorder's edges over a
# whole session is what the static analysis must cover.  The accumulator
# below survives recorder churn: fold a recorder in before uninstalling
# it, then diff the union against ``ProjectAnalysis.lock_edges()``.

_SESSION_GUARD = threading.Lock()
_SESSION_EDGES: Set[Tuple[str, str]] = set()


def record_session_edges(recorder: LockOrderRecorder) -> None:
    """Fold a recorder's observed edges into the process-wide union."""
    with recorder._guard:
        observed = set(recorder._edges)
    with _SESSION_GUARD:
        _SESSION_EDGES.update(observed)


def session_edges() -> Set[Tuple[str, str]]:
    with _SESSION_GUARD:
        return set(_SESSION_EDGES)


def canonical_lock_name(name: str) -> str:
    """``repro.governor.Governor._lock`` -> ``Governor._lock``.

    Tracked locks are named with their full module path; the static
    analysis identifies locks as ``Class.attr`` (:class:`LockRef.base`),
    so both sides canonicalise to the last two dotted segments.
    """
    parts = name.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else name


def runtime_edges_missing_statically(
    static_edges: Set[Tuple[str, str]],
    runtime_edges: Optional[Set[Tuple[str, str]]] = None,
) -> List[Tuple[str, str]]:
    """Runtime-observed edges the static lock graph does not predict.

    Only edges between production locks (``repro.``-prefixed names --
    tests construct artificial ``"A"``/``"B"`` locks) participate, and
    rwlock sides collapse with their base name on both sides.  A
    non-empty result fails the build: it means a thread acquired lock B
    while holding lock A on a path the interprocedural analysis cannot
    see, so the static half of the lock-order rule is incomplete.
    """
    if runtime_edges is None:
        runtime_edges = session_edges()
    missing = []
    for held, acquired in sorted(runtime_edges):
        if not (held.startswith("repro.") and acquired.startswith("repro.")):
            continue
        edge = (canonical_lock_name(held), canonical_lock_name(acquired))
        if edge[0] == edge[1]:
            continue  # rwlock internal mutex reentry folds onto itself
        if edge not in static_edges:
            missing.append(edge)
    return missing


def tracked_lock(
    name: str, factory: Callable[[], object] = threading.Lock
):
    """A lock that self-reports to the installed recorder (if any).

    This is the production seam: call it wherever a lock is created, and
    the object is a plain ``factory()`` lock unless a recorder is
    installed -- tracking costs nothing outside the test suite.
    """
    recorder = _RECORDER
    if recorder is None:
        return factory()
    return TrackedLock(name, recorder, factory)


__all__ = [
    "LockOrderRecorder",
    "LockOrderViolation",
    "TrackedLock",
    "canonical_lock_name",
    "current_recorder",
    "install_recorder",
    "record_session_edges",
    "runtime_edges_missing_statically",
    "session_edges",
    "tracked_lock",
    "uninstall_recorder",
]

"""Dynamic lock-order recording -- the runtime half of the lock-order rule.

The static rule in :mod:`repro.lint.checkers.lock_order` proves the
*source* acquires locks in one global order; this module checks the same
invariant on *executions*.  A :class:`LockOrderRecorder` keeps a
per-thread stack of held locks and, on every acquisition, records an edge
from each currently-held lock to the new one.  At teardown
:meth:`LockOrderRecorder.assert_acyclic` fails the test if any interleaved
pair of threads acquired two locks in opposite orders -- the ABBA pattern
that becomes a deadlock under less lucky scheduling.

Engine locks report here through the seam in :mod:`repro.core.locks`:
the test suite installs a recorder there before each test (see
tests/conftest.py), and every ``tracked_lock`` built afterwards calls
:meth:`LockOrderRecorder.on_acquire` / :meth:`~LockOrderRecorder.on_release`.
Both halves find cycles with :func:`find_cycle`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError


def find_cycle(graph: Dict[str, Set[str]]) -> Optional[List[str]]:
    """One cycle of ``graph`` as its node list, or None if it is acyclic.

    Depth-first over sorted nodes and successors, so the same graph
    always yields the same cycle.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[str, int] = {}
    path: List[str] = []

    def dfs(node: str) -> Optional[List[str]]:
        colour[node] = GREY
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            state = colour.get(nxt, WHITE)
            if state == GREY:
                return path[path.index(nxt):]
            if state == WHITE:
                cycle = dfs(nxt)
                if cycle is not None:
                    return cycle
        path.pop()
        colour[node] = BLACK
        return None

    for node in sorted(graph):
        if colour.get(node, WHITE) == WHITE:
            cycle = dfs(node)
            if cycle is not None:
                return cycle
    return None


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

    # -- hooks called by repro.core.locks.TrackedLock --------------------

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
        return find_cycle(self.edges())

    def assert_acyclic(self) -> None:
        """Raise :class:`LockOrderViolation` if any ABBA pair was seen."""
        cycle = self.find_cycle()
        if cycle is not None:
            raise LockOrderViolation(cycle, self.edges())

    def reset(self) -> None:
        with self._guard:
            self._edges.clear()
            self.acquisitions = 0


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


__all__ = [
    "LockOrderRecorder",
    "LockOrderViolation",
    "canonical_lock_name",
    "find_cycle",
    "record_session_edges",
    "runtime_edges_missing_statically",
    "session_edges",
]

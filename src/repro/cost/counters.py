"""Run-time operation counters -- the instrumentation behind every benchmark.

The paper's evaluation charges algorithms per primitive operation and then
weights the tallies with the Table 2 machine constants.  Re-running that
methodology in Python requires exactly one piece of infrastructure: a
counter object that the executable algorithms increment as they compare,
hash, move, swap, and perform IO.  Multiplying a counter vector by a
:class:`~repro.cost.parameters.CostParameters` yields the same "seconds" the
paper plots, independent of interpreter speed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List

from repro.cost.parameters import CostParameters


def heap_push_charges(n: int) -> int:
    """Total comparisons (== swaps) for ``n`` pushes into a growing heap.

    The tuple-at-a-time paths charge ``max(1, ceil(log2(size + 2)))`` per
    push (``size`` = heap length before the push); this sums the same
    expression in power-of-two blocks -- the value is constant while
    ``size + 2`` stays within one block -- so batch paths charge identical
    totals without a per-row ``log2``.
    """
    total = 0
    i = 0
    while i < n:
        levels = max(1, math.ceil(math.log2(i + 2)))
        block_end = min(n, (1 << levels) - 1)
        total += levels * (block_end - i)
        i = block_end
    return total


@dataclass
class OperationCounters:
    """Mutable tally of the six primitive operations of Section 3.2.

    The executable algorithms in :mod:`repro.join`, :mod:`repro.access` and
    :mod:`repro.operators` accept one of these and increment it as they run.
    Counters are plain integers; use :meth:`cost` to convert to modelled
    seconds.
    """

    comparisons: int = 0
    hashes: int = 0
    moves: int = 0
    swaps: int = 0
    sequential_ios: int = 0
    random_ios: int = 0

    # -- increment helpers -------------------------------------------------

    def compare(self, n: int = 1) -> None:
        """Record ``n`` key comparisons."""
        self.comparisons += n

    def hash_key(self, n: int = 1) -> None:
        """Record ``n`` key hashes."""
        self.hashes += n

    def move_tuple(self, n: int = 1) -> None:
        """Record ``n`` tuple moves."""
        self.moves += n

    def swap_tuples(self, n: int = 1) -> None:
        """Record ``n`` tuple swaps."""
        self.swaps += n

    def io_sequential(self, pages: int = 1) -> None:
        """Record ``pages`` sequential page IOs."""
        self.sequential_ios += pages

    def io_random(self, pages: int = 1) -> None:
        """Record ``pages`` random page IOs."""
        self.random_ios += pages

    # -- aggregation -------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter in place."""
        self.comparisons = 0
        self.hashes = 0
        self.moves = 0
        self.swaps = 0
        self.sequential_ios = 0
        self.random_ios = 0

    def snapshot(self) -> "OperationCounters":
        """Return an independent copy of the current tallies."""
        return OperationCounters(
            comparisons=self.comparisons,
            hashes=self.hashes,
            moves=self.moves,
            swaps=self.swaps,
            sequential_ios=self.sequential_ios,
            random_ios=self.random_ios,
        )

    def __add__(self, other: "OperationCounters") -> "OperationCounters":
        return OperationCounters(
            comparisons=self.comparisons + other.comparisons,
            hashes=self.hashes + other.hashes,
            moves=self.moves + other.moves,
            swaps=self.swaps + other.swaps,
            sequential_ios=self.sequential_ios + other.sequential_ios,
            random_ios=self.random_ios + other.random_ios,
        )

    def __sub__(self, other: "OperationCounters") -> "OperationCounters":
        return OperationCounters(
            comparisons=self.comparisons - other.comparisons,
            hashes=self.hashes - other.hashes,
            moves=self.moves - other.moves,
            swaps=self.swaps - other.swaps,
            sequential_ios=self.sequential_ios - other.sequential_ios,
            random_ios=self.random_ios - other.random_ios,
        )

    def absorb(self, other: "OperationCounters") -> None:
        """Add another tally into this one in place (increments commute,
        so folding per-thread shards gives the exact totals)."""
        self.comparisons += other.comparisons
        self.hashes += other.hashes
        self.moves += other.moves
        self.swaps += other.swaps
        self.sequential_ios += other.sequential_ios
        self.random_ios += other.random_ios

    def as_dict(self) -> Dict[str, int]:
        """The tallies as a plain dict (for reports and tests)."""
        return {
            "comparisons": self.comparisons,
            "hashes": self.hashes,
            "moves": self.moves,
            "swaps": self.swaps,
            "sequential_ios": self.sequential_ios,
            "random_ios": self.random_ios,
        }

    # -- costing -----------------------------------------------------------

    def cpu_cost(self, params: CostParameters) -> float:
        """Modelled CPU seconds under ``params``."""
        return (
            self.comparisons * params.comp
            + self.hashes * params.hash
            + self.moves * params.move
            + self.swaps * params.swap
        )

    def io_cost(self, params: CostParameters) -> float:
        """Modelled IO seconds under ``params``."""
        return (
            self.sequential_ios * params.io_seq
            + self.random_ios * params.io_rand
        )

    def cost(self, params: CostParameters) -> float:
        """Total modelled seconds (CPU + IO, no overlap, as in the paper)."""
        return self.cpu_cost(params) + self.io_cost(params)

    def report(self, params: CostParameters, label: str = "") -> "CostReport":
        """Bundle tallies and modelled seconds into a :class:`CostReport`."""
        return CostReport(
            label=label,
            counters=self.snapshot(),
            cpu_seconds=self.cpu_cost(params),
            io_seconds=self.io_cost(params),
        )


class ShardedOperationCounters(OperationCounters):
    """Thread-sharded tallies with deterministic merge semantics.

    The relational facade shares one counter object across every session
    thread; with plain :class:`OperationCounters` two concurrent
    statements interleave their increments, so a per-statement
    snapshot-diff is meaningless.  This subclass gives each thread its
    own private shard (a plain :class:`OperationCounters`): the six
    increment helpers charge the calling thread's shard, the six field
    names become read-properties that sum every shard (addition
    commutes, so the merge is deterministic regardless of thread
    timing), and :meth:`thread_snapshot` exposes the calling thread's
    shard alone -- diffing it around a statement yields *exactly* that
    statement's charges even while other threads execute concurrently.

    Shards live in an append-only list rather than a dict keyed by
    thread id: thread idents are reused by the OS, and keying by ident
    would let a new thread overwrite (and lose) a finished thread's
    tallies.  A dead thread's shard simply keeps contributing to the
    totals, which is what "the work happened" means.

    The base ``__init__`` is deliberately not called: the six dataclass
    fields are overridden by data-descriptor properties here, so there
    are no instance attributes to initialise (and assigning them would
    raise).  All other base behaviour -- ``snapshot``, ``__add__``,
    ``__sub__``, ``as_dict``, the costing methods -- reads through the
    properties and works unchanged.
    """

    def __init__(self) -> None:
        self._shards: List[OperationCounters] = []
        self._shards_mu = threading.Lock()
        self._local = threading.local()

    # -- shard plumbing ----------------------------------------------------

    def _shard(self) -> OperationCounters:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = OperationCounters()
            with self._shards_mu:
                self._shards.append(shard)
            self._local.shard = shard
        return shard

    def _shards_view(self) -> List[OperationCounters]:
        with self._shards_mu:
            return list(self._shards)

    def thread_snapshot(self) -> OperationCounters:
        """An independent copy of the *calling thread's* tallies only."""
        return self._shard().snapshot()

    # -- merged read side --------------------------------------------------

    @property
    def comparisons(self) -> int:  # type: ignore[override]
        return sum(s.comparisons for s in self._shards_view())

    @property
    def hashes(self) -> int:  # type: ignore[override]
        return sum(s.hashes for s in self._shards_view())

    @property
    def moves(self) -> int:  # type: ignore[override]
        return sum(s.moves for s in self._shards_view())

    @property
    def swaps(self) -> int:  # type: ignore[override]
        return sum(s.swaps for s in self._shards_view())

    @property
    def sequential_ios(self) -> int:  # type: ignore[override]
        return sum(s.sequential_ios for s in self._shards_view())

    @property
    def random_ios(self) -> int:  # type: ignore[override]
        return sum(s.random_ios for s in self._shards_view())

    # -- sharded write side ------------------------------------------------

    def compare(self, n: int = 1) -> None:
        self._shard().compare(n)

    def hash_key(self, n: int = 1) -> None:
        self._shard().hash_key(n)

    def move_tuple(self, n: int = 1) -> None:
        self._shard().move_tuple(n)

    def swap_tuples(self, n: int = 1) -> None:
        self._shard().swap_tuples(n)

    def io_sequential(self, pages: int = 1) -> None:
        self._shard().io_sequential(pages)

    def io_random(self, pages: int = 1) -> None:
        self._shard().io_random(pages)

    def reset(self) -> None:
        """Zero every shard in place (quiescent use only, like the base
        class: a reset racing live charges drops those charges)."""
        for shard in self._shards_view():
            shard.reset()

    def snapshot(self) -> OperationCounters:
        """An independent plain-counter copy of the merged totals."""
        merged = OperationCounters()
        for shard in self._shards_view():
            merged.absorb(shard)
        return merged

    def __repr__(self) -> str:
        with self._shards_mu:
            n = len(self._shards)
        return "ShardedOperationCounters(%d shards, %s)" % (
            n,
            self.as_dict(),
        )


@dataclass(frozen=True)
class CostReport:
    """An immutable costed summary of one algorithm execution."""

    label: str
    counters: OperationCounters
    cpu_seconds: float
    io_seconds: float

    @property
    def total_seconds(self) -> float:
        """CPU + IO seconds, the quantity plotted in Figure 1."""
        return self.cpu_seconds + self.io_seconds

    def __str__(self) -> str:
        c = self.counters
        return (
            "%s: %.2f s (cpu %.2f s, io %.2f s) "
            "[comp=%d hash=%d move=%d swap=%d ioseq=%d iorand=%d]"
            % (
                self.label or "run",
                self.total_seconds,
                self.cpu_seconds,
                self.io_seconds,
                c.comparisons,
                c.hashes,
                c.moves,
                c.swaps,
                c.sequential_ios,
                c.random_ios,
            )
        )


__all__ = [
    "CostReport",
    "OperationCounters",
    "ShardedOperationCounters",
    "heap_push_charges",
]

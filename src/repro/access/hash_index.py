"""A chained hash table -- the workhorse of the Section 3 algorithms.

The table stores key -> list-of-values chains in fixed buckets and resizes
by doubling when the load factor exceeds the paper's fudge headroom.
Probes charge one ``hash`` plus ``F`` comparisons on average (the paper's
``||S|| * F * comp`` probe term); inserts charge one ``hash`` and one
``move``.

The table also reports its size in pages (``entries * entry_bytes / p``),
which the join algorithms compare against their memory grant -- "a hash
table to hold R will require |R| * F pages".
"""

from __future__ import annotations

import math
import sys
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.access.interface import Index, remove_value
from repro.cost.counters import OperationCounters
from repro.errors import ConfigurationError


#: Buckets of a fresh table.  A power of two, and every growth doubles it:
#: the packed kernel (:class:`repro.join.vectorized.PackedHashTable`)
#: reduces hashes with a bit mask on that account.
INITIAL_BUCKETS = 64


def growth_threshold(buckets: int, max_load: float) -> int:
    """The smallest distinct-key count ``d`` with ``d / buckets > max_load``.

    The one definition of when a chained table of ``buckets`` buckets
    doubles: after the insert that brings its distinct keys to this
    count.  :class:`HashIndex` keeps it as an integer beside the bucket
    array, and the packed kernel derives its growth epochs from it, so
    the two cannot drift.  The comparison is the float one the load
    factor was always tested with; true division is monotone in ``d``,
    so the threshold is exact for it.
    """
    if math.isinf(max_load):
        return sys.maxsize
    d = int(max_load * buckets) + 1
    while d > 1 and (d - 1) / buckets > max_load:
        d -= 1
    while d / buckets <= max_load:
        d += 1
    return d


class HashIndex(Index):
    """Separate-chaining hash table with operation accounting."""

    def __init__(
        self,
        counters: Optional[OperationCounters] = None,
        initial_buckets: int = INITIAL_BUCKETS,
        max_load: float = 1.2,
    ) -> None:
        if initial_buckets < 1:
            raise ConfigurationError("need at least one bucket")
        if not max_load > 0:
            raise ConfigurationError("max load factor must be positive")
        self.counters = counters if counters is not None else OperationCounters()
        self.max_load = max_load
        self._buckets: List[List[Tuple[Any, List[Any]]]] = [
            [] for _ in range(initial_buckets)
        ]
        self._size = 0
        self._distinct = 0
        #: Distinct keys at which the table next doubles.
        self._grow_at = growth_threshold(initial_buckets, max_load)

    # -- size -------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def distinct_keys(self) -> int:
        return self._distinct

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    @property
    def load_factor(self) -> float:
        return self._distinct / len(self._buckets)

    def pages(self, entry_bytes: int, page_bytes: int = 4096) -> int:
        """Structure size in pages for the memory-fit checks."""
        return max(1, math.ceil(self._size * entry_bytes / page_bytes))

    # -- internals ----------------------------------------------------------------

    def _bucket_for(self, key: Any) -> List[Tuple[Any, List[Any]]]:
        self.counters.hash_key()
        return self._buckets[hash(key) % len(self._buckets)]

    def _grow(self) -> None:
        """Double the bucket array (``_distinct`` reached ``_grow_at``)."""
        old = self._buckets
        self._buckets = [[] for _ in range(2 * len(old))]
        for chain in old:
            for key, values in chain:
                # Rehash without charging: the paper's model charges one
                # hash per logical insert; growth is the table's F headroom.
                self._buckets[hash(key) % len(self._buckets)].append((key, values))
        self._grow_at = growth_threshold(len(self._buckets), self.max_load)

    # -- Index protocol ---------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        chain = self._bucket_for(key)
        self.counters.move_tuple()
        for entry_key, values in chain:
            self.counters.compare()
            if entry_key == key:
                values.append(value)
                self._size += 1
                return
        chain.append((key, [value]))
        self._size += 1
        self._distinct += 1
        if self._distinct >= self._grow_at:
            self._grow()

    def insert_batch(self, pairs: Iterable[Tuple[Any, Any]]) -> None:
        """Insert many (key, value) pairs with one bulk counter charge.

        Identical table state and counter totals to calling :meth:`insert`
        per pair in the same order; the per-pair charges (one hash, one
        move, one comparison per chain entry scanned) are accumulated in
        local integers and charged once at the end.
        """
        hashes = moves = compares = 0
        for key, value in pairs:
            hashes += 1
            moves += 1
            buckets = self._buckets  # re-read: _grow swaps it
            chain = buckets[hash(key) % len(buckets)]
            for entry in chain:
                compares += 1
                if entry[0] == key:
                    entry[1].append(value)
                    self._size += 1
                    break
            else:
                chain.append((key, [value]))
                self._size += 1
                self._distinct += 1
                if self._distinct >= self._grow_at:
                    self._grow()
        self.counters.hash_key(hashes)
        self.counters.move_tuple(moves)
        self.counters.compare(compares)

    def probe_batch(self, keys: Sequence[Any]) -> List[List[Any]]:
        """Probe many keys; return their value chains in key order.

        Bulk-charged analogue of calling :meth:`probe` per key.  Unlike
        :meth:`probe`, the returned lists are the *live* chains (no
        defensive copy) -- callers must not mutate them.  Misses share one
        empty list.
        """
        hashes = compares = 0
        buckets = self._buckets
        n_buckets = len(buckets)
        miss: List[Any] = []
        out: List[List[Any]] = []
        for key in keys:
            hashes += 1
            hit = miss
            for entry in buckets[hash(key) % n_buckets]:
                compares += 1
                if entry[0] == key:
                    hit = entry[1]
                    break
            out.append(hit)
        self.counters.hash_key(hashes)
        self.counters.compare(compares)
        return out

    def search(self, key: Any) -> List[Any]:
        chain = self._bucket_for(key)
        for entry_key, values in chain:
            self.counters.compare()
            if entry_key == key:
                return list(values)
        return []

    def probe(self, key: Any) -> List[Any]:
        """Alias for :meth:`search` in join-algorithm vocabulary."""
        return self.search(key)

    def delete(self, key: Any, value: Optional[Any] = None) -> int:
        chain = self._bucket_for(key)
        for i, (entry_key, values) in enumerate(chain):
            self.counters.compare()
            if entry_key != key:
                continue
            if value is None:
                removed = len(values)
                del chain[i]
                self._distinct -= 1
            else:
                try:
                    remove_value(values, value)
                except ValueError:
                    return 0
                removed = 1
                if not values:
                    del chain[i]
                    self._distinct -= 1
            self._size -= removed
            return removed
        return 0

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Every (key, value) pair in arbitrary (bucket) order."""
        for chain in self._buckets:
            for key, values in chain:
                for value in values:
                    yield key, value

    def keys(self) -> Iterator[Any]:
        for chain in self._buckets:
            for key, _ in chain:
                yield key

    def chain_length_stats(self) -> Tuple[float, int]:
        """(mean, max) chain length over non-empty buckets."""
        lengths = [len(c) for c in self._buckets if c]
        if not lengths:
            return 0.0, 0
        return sum(lengths) / len(lengths), max(lengths)

    def __repr__(self) -> str:
        return "HashIndex(%d values, %d keys, %d buckets)" % (
            self._size,
            self._distinct,
            len(self._buckets),
        )


__all__ = ["HashIndex", "INITIAL_BUCKETS", "growth_threshold"]

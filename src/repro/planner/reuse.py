"""Materialised-subplan reuse -- caching plan results across queries.

A main memory database pays no IO to keep an intermediate result around,
so a repeated subplan (the same filter over the same table, the same join
of the same inputs) can return its previous materialisation instead of
recomputing -- the MMDB analogue of a materialized-view / common-
subexpression cache.

Entries are keyed by a **canonical fingerprint** of the subplan: a nested
tuple of operator kinds, their parameters, and -- crucially -- the
``version`` stamp of every base relation the subplan reads.  A relation
bumps its version on every mutation, so a stale entry simply stops being
addressable the moment any of its inputs changes.  On top of that,
:meth:`PlanReuseCache.invalidate` eagerly drops entries touching a table
(the database facade calls it on insert/delete/drop), which keeps the
cache from accumulating unreachable results and guards against a dropped
table being recreated at an old version number.

The cache is shared by every session thread, so all operations are
serialised under one internal mutex (registered with the lock-order
recorder; the governor's pressure valve calls :meth:`shrink_to` while
holding its own lock, which makes ``Governor._lock -> PlanReuseCache._mu``
a deliberate, acyclic edge in the lock-order graph).  Alongside the
shared totals each thread accumulates a private tally of *its own*
hits/misses/invalidations/evictions, exposed by :meth:`thread_stats`:
sessions diff it around a statement to build their per-session reuse
views without serialising the statements themselves.

Cache hits return the previously materialised
:class:`~repro.storage.relation.Relation` *object*; treat it as
read-only, exactly like the relation a base-table scan returns.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.core.locks import tracked_lock
from repro.errors import ConfigurationError
from repro.storage.relation import Relation

Fingerprint = Hashable

#: The statistic keys tracked both globally and per-thread.
_STAT_KEYS = ("hits", "misses", "invalidations", "evictions")


class PlanReuseCache:
    """Fingerprint-addressed store of materialised subplan results."""

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ConfigurationError("cache needs room for at least one entry")
        self.max_entries = max_entries
        self._mu = tracked_lock("repro.planner.PlanReuseCache._mu")
        self._entries: Dict[Fingerprint, Relation] = {}
        self._tables: Dict[Fingerprint, Tuple[str, ...]] = {}
        self._by_table: Dict[str, Set[Fingerprint]] = {}
        #: Lookup statistics, exposed through ``stats()``.
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self._local = threading.local()

    def __len__(self) -> int:
        with self._mu:
            return len(self._entries)

    def _thread_tally(self) -> Dict[str, int]:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = {key: 0 for key in _STAT_KEYS}
            self._local.tally = tally
        return tally

    # -- lookup ------------------------------------------------------------------

    def get(self, fingerprint: Fingerprint) -> Optional[Relation]:
        """The cached result, or ``None`` (counts a hit or a miss)."""
        with self._mu:
            found = self._entries.get(fingerprint)
            if found is None:
                self.misses += 1
                self._thread_tally()["misses"] += 1
            else:
                self.hits += 1
                self._thread_tally()["hits"] += 1
                # LRU: a hit refreshes the entry's position, so the
                # governor's shrink_to evicts cold subplans first.
                self._entries[fingerprint] = self._entries.pop(fingerprint)
            return found

    def put(
        self,
        fingerprint: Fingerprint,
        result: Relation,
        tables: Iterable[str],
    ) -> None:
        """Store ``result`` for ``fingerprint``, tagged with its base tables."""
        with self._mu:
            if fingerprint in self._entries:
                self._entries.pop(fingerprint)
                self._entries[fingerprint] = result
                return
            while len(self._entries) >= self.max_entries:
                self._evict_oldest_locked()
            names = tuple(sorted(set(tables)))
            self._entries[fingerprint] = result
            self._tables[fingerprint] = names
            for name in names:
                self._by_table.setdefault(name, set()).add(fingerprint)

    def _evict_oldest_locked(self) -> None:
        # Dicts iterate in insertion order and ``get`` moves hits to the
        # end, so the first entry is the least recently used.
        oldest = next(iter(self._entries))
        self._drop_locked(oldest)
        self.evictions += 1
        self._thread_tally()["evictions"] += 1

    def shrink_to(self, target_entries: int) -> int:
        """Evict LRU entries until at most ``target_entries`` remain.

        The governor registers this as the cache's pressure valve: under
        memory pressure cached materialisations are the cheapest thing to
        give back (they can always be recomputed).  Returns the number of
        entries evicted.
        """
        target = max(0, int(target_entries))
        evicted = 0
        with self._mu:
            while len(self._entries) > target:
                self._evict_oldest_locked()
                evicted += 1
        return evicted

    def _drop_locked(self, fingerprint: Fingerprint) -> None:
        self._entries.pop(fingerprint, None)
        for name in self._tables.pop(fingerprint, ()):
            members = self._by_table.get(name)
            if members is not None:
                members.discard(fingerprint)
                if not members:
                    del self._by_table[name]

    # -- invalidation ------------------------------------------------------------

    def invalidate(self, table: str) -> int:
        """Drop every entry whose subplan reads ``table``; return count."""
        with self._mu:
            victims = list(self._by_table.get(table, ()))
            for fingerprint in victims:
                self._drop_locked(fingerprint)
            self.invalidations += len(victims)
            self._thread_tally()["invalidations"] += len(victims)
            return len(victims)

    def clear(self) -> None:
        with self._mu:
            self._entries.clear()
            self._tables.clear()
            self._by_table.clear()

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._mu:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
            }

    def thread_stats(self) -> Dict[str, int]:
        """The calling thread's private monotonic tallies.

        Diffing two calls around a statement on the executing thread
        yields exactly that statement's contribution, even while other
        threads hit the shared cache concurrently.
        """
        return dict(self._thread_tally())

    def __repr__(self) -> str:
        with self._mu:
            return "PlanReuseCache(%d entries, %d hits, %d misses)" % (
                len(self._entries),
                self.hits,
                self.misses,
            )


__all__ = ["PlanReuseCache"]

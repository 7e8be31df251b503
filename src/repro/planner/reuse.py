"""Reuse across queries -- materialised subplan results and statement plans.

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

**Plans.**  Section 4's planner reads only each table's schema, access
paths and statistics, so beside the results the cache keeps statement
plans, keyed by the exact SQL text (:meth:`PlanReuseCache.plan_for`,
:meth:`PlanReuseCache.put_plan`).  A plan entry stamps every table the
statement reads with the :class:`Relation` object (by weak reference, so
a dropped table's buffers are not kept alive), its access-path epoch and
the :class:`~repro.storage.catalog.RelationStats` it was planned from;
it answers only while each table is that same object at that epoch with
statistics identical or equal to those.  DML changes none of the three,
nor does an ``analyze`` that measures what it measured before; a drop
and re-create, an index created or dropped, or statistics that moved
make the next lookup a miss, which parses and plans afresh.  The check
reads published statistics only: a table never analyzed is a miss, and
the lookup does not analyze it.  Plans have an LRU of their own, of the
same ``max_entries`` bound, so storing a plan never evicts a result;
``hits``/``misses``/``evictions`` count results only and
``plan_hits``/``plan_misses`` count plan lookups.  A plan node writes
no attribute after its constructor, so sessions may run one cached
plan at the same time.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.core.locks import tracked_lock
from repro.errors import ConfigurationError
from repro.storage.catalog import Catalog, RelationStats
from repro.storage.relation import Relation

if TYPE_CHECKING:
    from repro.planner.plan import PlanNode

Fingerprint = Hashable

#: The statistic keys tracked both globally and per-thread.
STAT_KEYS = (
    "hits", "misses", "invalidations", "evictions", "plan_hits", "plan_misses",
)

#: What a plan was made from, per table it reads: the name, the relation
#: (weakly), its access-path epoch and its published statistics.
_Stamp = Tuple[str, "weakref.ref[Relation]", int, Optional[RelationStats]]


def _stamp(catalog: Catalog, name: str) -> _Stamp:
    return (
        name,
        weakref.ref(catalog.relation(name)),
        catalog.access_epoch(name),
        catalog.published_stats(name),
    )


def _still_holds(catalog: Catalog, stamp: _Stamp) -> bool:
    """Whether ``catalog`` still shows the table as ``stamp`` recorded it."""
    name, relation, epoch, stats = stamp
    if not catalog.has_relation(name) or catalog.relation(name) is not relation():
        return False
    published = catalog.published_stats(name)
    return (
        catalog.access_epoch(name) == epoch
        and published is not None
        and (published is stats or published == stats)
    )


class PlanReuseCache:
    """Fingerprint-addressed store of materialised subplan results, and
    text-addressed store of statement plans."""

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ConfigurationError("cache needs room for at least one entry")
        self.max_entries = max_entries
        self._mu = tracked_lock("repro.planner.PlanReuseCache._mu")
        self._entries: Dict[Fingerprint, Relation] = {}
        self._tables: Dict[Fingerprint, Tuple[str, ...]] = {}
        self._by_table: Dict[str, Set[Fingerprint]] = {}
        #: SQL text -> (plan, one stamp per table it reads), in LRU order.
        self._plans: Dict[str, Tuple["PlanNode", Tuple[_Stamp, ...]]] = {}
        #: Lookup statistics, exposed through ``stats()``.
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self._local = threading.local()

    def __len__(self) -> int:
        with self._mu:
            return len(self._entries)

    def _thread_tally(self) -> Dict[str, int]:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = dict.fromkeys(STAT_KEYS, 0)
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

    def plan_for(self, text: str, catalog: Catalog) -> Optional["PlanNode"]:
        """The plan stored for SQL ``text`` while every table it reads is
        as it was planned from, else ``None`` (counts a plan hit or miss).
        The caller holds the catalog still (its read side) until the plan
        has run."""
        with self._mu:
            entry = self._plans.get(text)
            tally = self._thread_tally()
            if entry is None or not all(
                _still_holds(catalog, stamp) for stamp in entry[1]
            ):
                self.plan_misses += 1
                tally["plan_misses"] += 1
                return None
            self.plan_hits += 1
            tally["plan_hits"] += 1
            self._plans[text] = self._plans.pop(text)
            return entry[0]

    def put_plan(
        self, text: str, plan: "PlanNode", catalog: Catalog, tables: Iterable[str]
    ) -> None:
        """Store ``plan`` for ``text``, stamped with what ``catalog`` shows
        of ``tables`` now -- what the planner has just read."""
        stamps = tuple(_stamp(catalog, name) for name in tables)
        with self._mu:
            self._plans.pop(text, None)
            while len(self._plans) >= self.max_entries:
                del self._plans[next(iter(self._plans))]
            self._plans[text] = (plan, stamps)

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
        give back (they can always be recomputed).  Plans are held to the
        same count.  Returns the number of entries evicted, results and
        plans.
        """
        target = max(0, int(target_entries))
        evicted = 0
        with self._mu:
            while len(self._entries) > target:
                self._evict_oldest_locked()
                evicted += 1
            while len(self._plans) > target:
                del self._plans[next(iter(self._plans))]
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
            self._plans.clear()

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._mu:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
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


__all__ = ["PlanReuseCache", "STAT_KEYS"]

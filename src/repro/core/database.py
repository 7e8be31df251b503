"""``MainMemoryDatabase`` -- the library's front door.

A memory-resident relational database in the mould the paper studies:
tables are paged heaps, secondary indexes come in all four Section 2
flavours (B+-tree, AVL, hash, paged binary tree), queries go through the
Section 4 planner (which picks hash joins and pushes selections down), and
every execution is instrumented with the Section 3 operation counters so
costs can be reported in the paper's modelled seconds.

Typical use::

    db = MainMemoryDatabase()
    db.create_table("emp", [("emp_id", DataType.INTEGER),
                            ("name", DataType.STRING),
                            ("salary", DataType.INTEGER)])
    db.create_index("emp", "name", kind="btree")
    db.insert("emp", (1, "Jones", 52000))
    rows = db.lookup("emp", "name", "Jones")
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.access.avl import AVLTree
from repro.access.btree import BPlusTree
from repro.access.hash_index import HashIndex
from repro.access.paged_binary import PagedBinaryTree
from repro.core.rwlock import ReadWriteLock
from repro.cost.counters import CostReport, ShardedOperationCounters
from repro.cost.parameters import CostParameters
from repro.governor import Governor, GovernorConfig
from repro.operators.selection import Comparison, Range, select, select_tids
from repro.planner.plan import PlanContext, PlanNode
from repro.planner.planner import Planner, PlannerConfig
from repro.planner.query import Query
from repro.planner.reuse import STAT_KEYS, PlanReuseCache
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema
from repro.errors import ConfigurationError

_INDEX_KINDS = {
    "btree": BPlusTree,
    "avl": AVLTree,
    "hash": HashIndex,
    "paged-binary": PagedBinaryTree,
}

SchemaSpec = Union[Schema, Sequence[Tuple[str, DataType]]]


class MainMemoryDatabase:
    """A self-contained MMDB instance."""

    def __init__(
        self,
        memory_pages: int = 1000,
        params: Optional[CostParameters] = None,
        page_bytes: int = 4096,
        batch: bool = True,
        reuse_cache: bool = True,
        governor: Optional[GovernorConfig] = None,
    ) -> None:
        self.catalog = Catalog()
        self.params = params if params is not None else CostParameters()
        self.memory_pages = memory_pages
        self.page_bytes = page_bytes
        #: Shared operation tallies, sharded: each thread charges its own
        #: shard and the six fields read as merged totals, so concurrent
        #: sessions get exact per-statement deltas (``thread_snapshot``)
        #: without serialising.
        self.counters = ShardedOperationCounters()
        #: Catalog read-write lock: queries hold the read side (any
        #: number in parallel), DDL/DML hold the write side.  Bank
        #: statements never touch it -- only the relational engine does.
        self._catalog_rw = ReadWriteLock("repro.core.MainMemoryDatabase._catalog_rw")
        #: Page-at-a-time operator execution over the packed column
        #: buffers (docs/PERF.md); counted costs are identical to the
        #: tuple-at-a-time specification (``batch=False``) either way.
        self.batch = batch
        #: Materialised-subplan reuse cache (None when disabled).  DML on
        #: a table eagerly drops every cached subplan that reads it.
        self.reuse = PlanReuseCache() if reuse_cache else None
        #: Optional :class:`repro.chaos.FaultInjector` (see attach_chaos).
        self.fault_injector = None
        #: The resource governor (docs/ROBUSTNESS.md): admission control,
        #: per-query memory grants, cancellation.
        #: The default total-memory budget -- one full grant per allowed
        #: concurrent query -- never throttles the single-query happy path.
        config = governor or GovernorConfig()
        if config.max_memory_pages is None:
            config.max_memory_pages = memory_pages * config.max_concurrent
        self.governor = Governor(config)
        self.governor.register_shrinkable(self.reuse)
        self._planner = Planner(
            self.catalog,
            PlannerConfig(memory_pages=memory_pages, params=self.params),
        )

    # -- chaos ----------------------------------------------------------------------

    def attach_chaos(self, injector) -> "MainMemoryDatabase":
        """Wire a :class:`repro.chaos.FaultInjector` into the facade: every
        DML statement and query execution becomes a schedulable crash
        point, so fault sweeps can interrupt bulk loads and query batches
        mid-stream.  Also routes the injector into the governor so seeded
        plans can cancel queries and revoke grants at deterministic
        points.  Returns ``self`` for chaining."""
        self.fault_injector = injector
        self.governor.attach_chaos(injector)
        return self

    def _chaos_point(self, label: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.point(label)

    # -- DDL ------------------------------------------------------------------------

    def create_table(self, name: str, schema: SchemaSpec) -> Relation:
        """Create an empty table; ``schema`` is a Schema or (name, type)
        pairs."""
        if not isinstance(schema, Schema):
            schema = Schema([Field(n, t) for n, t in schema])
        relation = Relation(name, schema, self.page_bytes)
        with self._catalog_rw.write_locked():
            self.catalog.register(relation)
        return relation

    def register_table(self, relation: Relation) -> Relation:
        """Adopt an externally built relation (workload generators)."""
        with self._catalog_rw.write_locked():
            self._invalidate_reuse(relation.name)
            return self.catalog.register(relation)

    def drop_table(self, name: str) -> None:
        with self._catalog_rw.write_locked():
            self.catalog.drop(name)
            self._invalidate_reuse(name)

    def create_index(self, table: str, column: str, kind: str = "btree") -> Any:
        """Build a secondary index over existing rows; maintained on
        insert/delete.

        ``kind`` is one of "btree", "avl", "hash", or "paged-binary" --
        the four Section 2 access methods.
        """
        try:
            factory = _INDEX_KINDS[kind]
        except KeyError:
            raise ConfigurationError(
                "unknown index kind %r (choose from %s)"
                % (kind, sorted(_INDEX_KINDS))
            ) from None
        with self._catalog_rw.write_locked():
            relation = self.catalog.relation(table)
            # Refuse a duplicate before the build, which would charge a
            # whole index that register_index then throws away.
            if self.catalog.index(table, column) is not None:
                raise ConfigurationError(
                    "index on %s.%s already exists" % (table, column)
                )
            index = self._load_index(
                factory(counters=self.counters), relation, column
            )
            self.catalog.register_index(table, column, index)
            # A new access path changes how future plans address this
            # table; cached subplans from the old shape must not be
            # served.
            self._invalidate_reuse(table)
            return index

    def drop_index(self, table: str, column: str) -> None:
        with self._catalog_rw.write_locked():
            self.catalog.drop_index(table, column)
            self._invalidate_reuse(table)

    # -- DML ------------------------------------------------------------------------

    def _invalidate_reuse(self, table: str) -> None:
        if self.reuse is not None:
            self.reuse.invalidate(table)

    def insert(self, table: str, values: Sequence[Any]) -> int:
        """Insert one row, maintaining every index on the table."""
        self._chaos_point("db insert %s" % table)
        with self._catalog_rw.write_locked():
            relation = self.catalog.relation(table)
            tid = relation.insert(values)
            for column, index in self.catalog.indexes_on(table).items():
                index.insert(values[relation.schema.index_of(column)], tid)
            self._invalidate_reuse(table)
            return tid

    def insert_many(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        """Insert ``rows`` as one statement; returns how many.

        The batch is validated before anything is written, so a bad row
        inserts nothing; the rows land page-at-a-time and every index is
        maintained under one write-lock acquisition and one reuse-cache
        invalidation.
        """
        self._chaos_point("db insert %s" % table)
        with self._catalog_rw.write_locked():
            relation = self.catalog.relation(table)
            batch = relation.schema.validate_batch(rows)
            first = relation.cardinality
            tids = range(first, first + len(batch))
            relation.extend_rows(batch)
            for column, index in self.catalog.indexes_on(table).items():
                col = relation.schema.index_of(column)
                for row, tid in zip(batch, tids):
                    index.insert(row[col], tid)
            self._invalidate_reuse(table)
            return len(batch)

    def delete_where(self, table: str, column: str, value: Any) -> int:
        """Delete rows with ``column == value`` in place.  Returns the
        number of rows removed.

        The victims come from the index on ``column`` when there is one
        and from the selection mask kernel otherwise, charged as that
        selection.  The heap closes its holes with rows from its tail
        (:meth:`Relation.delete_at`), and each index either forgets the
        victims and re-points the moved rows or, when that would take more
        index operations than there are survivors, is rebuilt from them.
        Data changes; the table's access paths do not.
        """
        self._chaos_point("db delete %s" % table)
        with self._catalog_rw.write_locked():
            relation = self.catalog.relation(table)
            indexes = self.catalog.indexes_on(table)
            if column in indexes:
                # Charged as the index-served selection of these rows: the
                # probe, then one TID dereference per row it names.
                victims = sorted(indexes[column].search(value))
                self.counters.move_tuple(len(victims))
            else:
                victims = select_tids(
                    relation, Comparison(column, "=", value), self.counters
                )
            if not victims:
                return 0
            moved_from, moved_to = relation.compaction(victims)
            survivors = relation.cardinality - len(victims)
            rebuild = len(victims) + 2 * len(moved_from) >= survivors
            if not rebuild:
                for idx_col, index in indexes.items():
                    col = relation.schema.index_of(idx_col)
                    moved_keys = relation.values_at(col, moved_from)
                    for key, tid in zip(relation.values_at(col, victims), victims):
                        index.delete(key, tid)
                    for key, tid in zip(moved_keys, moved_from):
                        index.delete(key, tid)
                    for key, tid in zip(moved_keys, moved_to):
                        index.insert(key, tid)
            relation.delete_at(victims, moved_from, moved_to)
            if rebuild:
                for idx_col, index in indexes.items():
                    fresh = type(index)(counters=self.counters)
                    self.catalog.replace_index(
                        table, idx_col, self._load_index(fresh, relation, idx_col)
                    )
            self._invalidate_reuse(table)
            return len(victims)

    @staticmethod
    def _load_index(index: Any, relation: Relation, column: str) -> Any:
        """Insert every row's ``(key, TID)`` into ``index`` in physical
        order as one batch, keys read from the column buffers; returns
        ``index``."""
        keys = relation.column(relation.schema.index_of(column))
        index.insert_batch(zip(keys, range(len(keys))))
        return index

    # -- introspection ------------------------------------------------------------------

    def storage_stats(self) -> Dict[str, Any]:
        """Packed-page and index statistics for every table.

        Returns ``{table: {"storage": ..., "indexes": {column: ...}}}``
        where ``storage`` is :meth:`repro.storage.relation.Relation.storage_stats`
        (packed-column counts, buffer bytes, bytes per row) and each index
        entry reports its kind, entry count, height (ordered trees), and
        whether it can serve range scans.
        """
        report: Dict[str, Any] = {}
        for name in self.catalog.relations():
            indexes: Dict[str, Any] = {}
            for column, index in sorted(self.catalog.indexes_on(name).items()):
                info: Dict[str, Any] = {
                    "kind": type(index).__name__,
                    "entries": len(index),
                    "supports_range_scan": bool(
                        getattr(index, "supports_range_scan", False)
                    ),
                }
                height = getattr(index, "height", None)
                if height is not None:
                    info["height"] = height
                indexes[column] = info
            report[name] = {
                "storage": self.catalog.relation(name).storage_stats(),
                "indexes": indexes,
            }
        return report

    # -- queries -----------------------------------------------------------------------

    def table(self, name: str) -> Relation:
        return self.catalog.relation(name)

    def lookup(self, table: str, column: str, value: Any) -> List[Tuple[Any, ...]]:
        """Point lookup through an index (or a scan when none exists)."""
        relation = self.catalog.relation(table)
        index = self.catalog.index(table, column)
        if index is None:
            pred = Comparison(column, "=", value)
            return list(select(relation, pred, self.counters))
        return [relation.fetch(tid) for tid in index.search(value)]

    def range_lookup(
        self, table: str, column: str, low: Any, high: Any
    ) -> List[Tuple[Any, ...]]:
        """Range lookup ``low <= column <= high`` via an ordered index
        (where ``None`` leaves an end unbounded) or, without one, a scan."""
        relation = self.catalog.relation(table)
        index = self.catalog.index(table, column)
        if index is None or not index.supports_range_scan:
            return list(select(relation, Range(column, low, high), self.counters))
        return [relation.fetch(tid) for tid in index.range_tids(low, high)]

    def plan(self, query: Query) -> PlanNode:
        """Optimize ``query`` (Section 4) without executing it."""
        return self._planner.plan(query)

    def explain(self, query: Query) -> str:
        return self._planner.explain(query)

    def execute(self, query: Query, timeout: Optional[float] = None) -> Relation:
        """Optimize and run ``query``; counters accumulate on ``self``.

        Every execution passes through the governor: it is admitted
        against the concurrency and memory budgets (raising typed
        :class:`~repro.errors.AdmissionRejected` /
        :class:`~repro.errors.QueryTimeout` errors when they cannot be
        met), runs under a revocable memory grant and a cancellation
        token, and releases its capacity on the way out.  ``timeout`` is
        an optional per-query deadline in seconds; ``db.cancel(qid)``
        from another thread aborts within one page of work.
        """
        return self._run(lambda: self._planner.plan(query), timeout)

    def _run(
        self, plan_of: Callable[[], PlanNode], timeout: Optional[float]
    ) -> Relation:
        """Every statement's tail: its chaos point, then, under the
        catalog's read side, the plan ``plan_of`` returns is admitted
        through the governor and executed under a grant and a guard."""
        self._chaos_point("db execute")
        # Read-only statements share the catalog lock's read side, so
        # any number of them plan and execute in parallel; DDL/DML take
        # the write side and run alone.
        with self._catalog_rw.read_locked():
            plan = plan_of()
            handle = self.governor.admit(self.memory_pages, timeout=timeout)
            try:
                ctx = PlanContext(
                    catalog=self.catalog,
                    memory_pages=self.memory_pages,
                    params=self.params,
                    counters=self.counters,
                    batch=self.batch,
                    reuse_cache=self.reuse,
                    guard=handle.guard,
                )
                return plan.execute(ctx)
            finally:
                self.governor.release(handle)

    def cancel(self, qid: int) -> bool:
        """Cancel a running query by id; True if it was active."""
        return self.governor.cancel(qid)

    # -- SQL front end --------------------------------------------------------------------

    def sql(self, text: str, timeout: Optional[float] = None) -> Relation:
        """Parse, plan, and execute a SQL query (see repro.planner.sql
        for the supported fragment).  ``timeout`` bounds admission plus
        execution exactly like :meth:`execute`.

        The reuse cache answers a text it has planned before with that
        plan while the tables, access paths and statistics it was planned
        from are unchanged (:meth:`PlanReuseCache.plan_for`); the plan
        then runs exactly as a fresh one would."""
        return self._run(lambda: self._plan_sql(text), timeout)

    def _plan_sql(self, text: str) -> PlanNode:
        """The cached plan for ``text``, or a fresh parse and plan, which
        is then cached; the caller holds the catalog's read side."""
        from repro.planner.sql import parse_sql

        reuse = self.reuse
        plan = reuse.plan_for(text, self.catalog) if reuse is not None else None
        if plan is None:
            query = parse_sql(text, self.catalog)
            plan = self._planner.plan(query)
            if reuse is not None:
                reuse.put_plan(text, plan, self.catalog, query.tables)
        return plan

    def sql_explain(self, text: str) -> str:
        """The optimized plan for a SQL query, as text."""
        from repro.planner.sql import parse_sql

        return self.explain(parse_sql(text, self.catalog))

    # -- multi-session serving (docs/SERVER.md) -------------------------------------------

    def session_manager(self, **kwargs: Any):
        """A :class:`~repro.server.session.SessionManager` over this
        facade: per-session transactions against the Section 5 bank
        store, SQL statements against this catalog, admission through
        this governor.  Keyword arguments go to the manager (bank sizing,
        statement timeout, group-commit knobs)."""
        from repro.server.session import SessionManager

        return SessionManager(db=self, **kwargs)

    def serve(
        self, host: str = "127.0.0.1", port: int = 0, **kwargs: Any
    ):
        """Start a :class:`~repro.server.net.DatabaseServer` for this
        facade on a background thread and return it (its ``address``
        holds the bound host/port).  Call ``stop()`` on the returned
        server to shut down."""
        from repro.server.net import DatabaseServer

        server = DatabaseServer(
            manager=self.session_manager(**kwargs), host=host, port=port
        )
        server.start_in_thread()
        return server

    # -- instrumentation ------------------------------------------------------------------

    def cost_report(self, label: str = "session") -> CostReport:
        """Modelled seconds for everything charged so far."""
        return self.counters.report(self.params, label)

    def reset_counters(self) -> None:
        self.counters.reset()

    def reuse_stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation/eviction counts of the reuse cache's
        results, and its plan hits and misses."""
        if self.reuse is None:
            return dict.fromkeys(("entries",) + STAT_KEYS, 0)
        return self.reuse.stats()

    def governor_stats(self) -> Dict[str, Any]:
        """Admission/cancellation counts from the governor."""
        return self.governor.stats()

    def concurrency_stats(self) -> Dict[str, Any]:
        """Catalog read-write lock occupancy.  ``peak_readers`` > 1 is
        the direct evidence that more than one read-only statement was
        in flight at the same instant."""
        return self._catalog_rw.occupancy()

    def analyze(self, table: Optional[str] = None) -> None:
        """Refresh optimizer statistics (all tables when ``table`` is
        None)."""
        names = [table] if table else self.catalog.relations()
        for name in names:
            # The scan shares the lock with readers; only publishing
            # excludes them.  A write that slipped between the two makes
            # the snapshot stale, so it is retaken under the write side:
            # what is published always describes the table as it stands.
            with self._catalog_rw.read_locked():
                relation = self.catalog.relation(name)
                version = relation.version
                stats = self.catalog.measure(name)
            with self._catalog_rw.write_locked():
                current = self.catalog.relation(name)
                if current is not relation or current.version != version:
                    stats = self.catalog.measure(name)
                self.catalog.publish_stats(name, stats)

    def __repr__(self) -> str:
        return "MainMemoryDatabase(%d tables, |M|=%d pages)" % (
            len(self.catalog.relations()),
            self.memory_pages,
        )


__all__ = ["MainMemoryDatabase"]

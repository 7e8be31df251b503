"""Executable physical plan nodes with ``W * CPU + IO`` cost estimates.

Every node both *estimates* (cardinality, pages, weighted cost -- what the
optimizer compares) and *executes* (producing a real
:class:`~repro.storage.relation.Relation`, charging the shared counters --
what the benchmarks measure).  The weighting function is Selinger's
``W * |CPU| + |I/O|`` with CPU expressed in seconds through the Table 2
constants and IO in operations times their cost.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.cost.counters import OperationCounters
from repro.cost.join_model import ALGORITHMS as JOIN_COST_MODELS
from repro.errors import PlannerError, StateError
from repro.cost.parameters import CostParameters
from repro.cost.join_model import JoinWorkload
from repro.join import ALL_JOINS, JoinSpec
from repro.join.base import join_schema
from repro.operators.aggregate import AggregateSpec, hash_aggregate, sort_aggregate
from repro.operators.columnar import copy_columns
from repro.operators.projection import hash_project, sort_project
from repro.operators.selection import (
    Comparison,
    Predicate,
    Prefix,
    Range,
    select,
    select_via_index,
)
from repro.planner.reuse import PlanReuseCache
from repro.storage.catalog import Catalog
from repro.storage.disk import SimulatedDisk
from repro.storage.relation import Relation
from repro.storage.tuples import Schema


@dataclass
class PlanContext:
    """Everything a plan needs to run: catalog, memory, instrumentation."""

    catalog: Catalog
    memory_pages: int = 1000
    params: CostParameters = field(default_factory=CostParameters)
    w: float = 1.0
    counters: OperationCounters = field(default_factory=OperationCounters)
    disk: Optional[SimulatedDisk] = None
    #: The production arm: page-at-a-time operators over the packed
    #: column buffers (see docs/PERF.md); ``False`` selects the
    #: tuple-at-a-time specification.  Results and counted costs are
    #: identical either way (tests/test_batch_equivalence.py).
    batch: bool = True
    #: Materialised-subplan cache; ``None`` disables reuse.
    reuse_cache: Optional[PlanReuseCache] = None
    #: The governor's per-query :class:`repro.governor.QueryGuard`
    #: (cancellation token, revocable memory grant).
    #: ``None`` executes ungoverned, exactly as before.
    guard: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.disk is None:
            self.disk = SimulatedDisk(self.counters)

    @property
    def token(self) -> Optional[Any]:
        """The cancellation token operators should check, if any."""
        return self.guard.token if self.guard is not None else None


class PlanNode(abc.ABC):
    """One operator of a physical plan tree."""

    #: Whether the node's materialised output may be served from the
    #: reuse cache.  Base-table scans return the live relation and are
    #: never cached.
    cacheable = True

    def __init__(self, schema: Schema, estimated_rows: float) -> None:
        self.schema = schema
        self.estimated_rows = max(0.0, estimated_rows)

    @property
    def estimated_pages(self) -> float:
        """Output size in 4 KB pages under the node's schema."""
        per_page = max(1, 4096 // self.schema.tuple_bytes)
        return self.estimated_rows / per_page

    def execute(self, ctx: PlanContext) -> Relation:
        """Run the subtree, serving it from the reuse cache when possible.

        The cache key is the node's canonical :meth:`fingerprint` (which
        embeds the version of every base relation read, so mutation makes
        old entries unaddressable) plus the memory grant, which changes
        spill behaviour and therefore the charged costs.
        """
        if ctx.guard is not None:
            # One cancellation check per plan node, including cache hits:
            # a cancelled query must not keep returning cached subtrees.
            ctx.guard.checkpoint()
        cache = ctx.reuse_cache
        if cache is None or not self.cacheable:
            return self._run(ctx)
        key = (self.fingerprint(ctx), ctx.memory_pages)
        found = cache.get(key)
        if found is not None:
            return found
        result = self._run(ctx)
        cache.put(key, result, self.tables())
        return result

    @abc.abstractmethod
    def _run(self, ctx: PlanContext) -> Relation:
        """Operator body: materialise this subtree's output."""

    @abc.abstractmethod
    def fingerprint(self, ctx: PlanContext) -> Tuple[Any, ...]:
        """Canonical identity of this subplan over current table versions."""

    def tables(self) -> List[str]:
        """Names of every base table this subtree reads."""
        seen: List[str] = []
        for child in self.children():
            for name in child.tables():
                if name not in seen:
                    seen.append(name)
        return seen

    @abc.abstractmethod
    def estimated_cost(self, ctx: PlanContext) -> float:
        """``W * CPU + IO`` seconds for this node alone."""

    def total_cost(self, ctx: PlanContext) -> float:
        """Node cost plus its inputs' (overridden by inner nodes)."""
        return self.estimated_cost(ctx)

    def children(self) -> List["PlanNode"]:
        return []

    # -- explain -------------------------------------------------------------

    def label(self) -> str:
        return type(self).__name__

    def explain(self, ctx: Optional[PlanContext] = None, indent: int = 0) -> str:
        pad = "  " * indent
        cost = ""
        if ctx is not None:
            cost = "  cost=%.4fs" % self.total_cost(ctx)
        lines = ["%s%s  rows~%d%s" % (pad, self.label(), self.estimated_rows, cost)]
        for child in self.children():
            lines.append(child.explain(ctx, indent + 1))
        return "\n".join(lines)


def _kept_schema(schema: Schema, columns: Optional[Sequence[str]]) -> Schema:
    """Output schema of an access-path node that keeps ``columns`` of its
    input (``None`` = all of them)."""
    return schema if columns is None else schema.project(list(columns))


def _kept_label(columns: Optional[Sequence[str]]) -> str:
    return "" if columns is None else "[%s]" % ", ".join(columns)


def _kept_key(columns: Optional[Sequence[str]]) -> Tuple[Any, ...]:
    """Fingerprint suffix of a pruning node; an unpruned node keeps the
    fingerprint it always had."""
    return () if columns is None else (tuple(columns),)


class ScanNode(PlanNode):
    """Full scan of a memory-resident base table.

    ``columns`` (here and on the other two access-path nodes) is the
    planner's pruning decision: the columns anything above the node
    reads, in schema order, or ``None`` for all of them.  The node's
    output has exactly those columns, its label shows them and its
    fingerprint carries them, so a narrow cached result never answers a
    wider request.
    """

    # Returns the live base relation (caching it would alias mutations)
    # or an uncharged repack of it (caching that would spend an entry of
    # a small LRU to save nothing on the paper's clock).
    cacheable = False

    def __init__(
        self,
        table: str,
        catalog: Catalog,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        stats = catalog.stats(table)
        super().__init__(
            _kept_schema(catalog.relation(table).schema, columns),
            stats.cardinality,
        )
        self.table = table
        self.columns = columns

    def label(self) -> str:
        return "Scan(%s)%s" % (self.table, _kept_label(self.columns))

    def fingerprint(self, ctx: PlanContext) -> Tuple[Any, ...]:
        return (
            "scan",
            self.table,
            ctx.catalog.relation(self.table).version,
            ctx.catalog.access_epoch(self.table),
        ) + _kept_key(self.columns)

    def tables(self) -> List[str]:
        return [self.table]

    def _run(self, ctx: PlanContext) -> Relation:
        relation = ctx.catalog.relation(self.table)
        if self.columns is None:
            return relation
        # Copying whole column buffers is what staging a join's build side
        # does one step later: no charge, like the live relation it replaces.
        return copy_columns(
            relation,
            self.columns,
            "scan(%s)" % self.table,
            batch=ctx.batch,
            token=ctx.token,
        )

    def estimated_cost(self, ctx: PlanContext) -> float:
        # Memory resident: one comparison-equivalent touch per tuple, no IO.
        return ctx.w * self.estimated_rows * ctx.params.comp


class IndexScanNode(PlanNode):
    """Selection served by an index (Section 2's access path)."""

    def __init__(
        self,
        table: str,
        predicate: Union[Comparison, Prefix, Range],
        catalog: Catalog,
        selectivity: float,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        stats = catalog.stats(table)
        super().__init__(
            _kept_schema(catalog.relation(table).schema, columns),
            stats.cardinality * selectivity,
        )
        self.table = table
        self.predicate = predicate
        self.input_rows = stats.cardinality
        self.columns = columns

    def label(self) -> str:
        if isinstance(self.predicate, Prefix):
            condition = "= %r*" % self.predicate.prefix
        elif isinstance(self.predicate, Range):
            p = self.predicate
            condition = "in %s%r, %r%s" % (
                "(" if p.low_open else "[", p.low, p.high, ")" if p.high_open else "]"
            )
        else:
            condition = "%s %r" % (self.predicate.op, self.predicate.value)
        return "IndexScan(%s.%s %s)%s" % (
            self.table,
            self.predicate.column,
            condition,
            _kept_label(self.columns),
        )

    def fingerprint(self, ctx: PlanContext) -> Tuple[Any, ...]:
        return (
            "idxscan",
            self.table,
            ctx.catalog.relation(self.table).version,
            ctx.catalog.access_epoch(self.table),
            self.predicate.fingerprint(),
        ) + _kept_key(self.columns)

    def tables(self) -> List[str]:
        return [self.table]

    def _run(self, ctx: PlanContext) -> Relation:
        index = ctx.catalog.index(self.table, self.predicate.column)
        if index is None:
            raise StateError(
                "plan expected an index on %s.%s"
                % (self.table, self.predicate.column)
            )
        return select_via_index(
            ctx.catalog.relation(self.table),
            index,
            self.predicate,
            ctx.counters,
            token=ctx.token,
            batch=ctx.batch,
            columns=self.columns,
        )

    def estimated_cost(self, ctx: PlanContext) -> float:
        # log2(n) descent, then per qualifying tuple a comparison plus a
        # TID dereference (a tuple move).  The move term is what makes a
        # full scan win for unselective predicates.
        descent = math.log2(self.input_rows + 2) * ctx.params.comp
        per_row = ctx.params.comp + ctx.params.move
        return ctx.w * (descent + self.estimated_rows * per_row)


class FilterNode(PlanNode):
    """Predicate applied to a child's output."""

    def __init__(
        self,
        child: PlanNode,
        predicate: Predicate,
        selectivity: float,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(
            _kept_schema(child.schema, columns),
            child.estimated_rows * selectivity,
        )
        self.child = child
        self.predicate = predicate
        self.columns = columns

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Filter(%s)%s" % (self.predicate, _kept_label(self.columns))

    def fingerprint(self, ctx: PlanContext) -> Tuple[Any, ...]:
        return (
            "filter",
            self.child.fingerprint(ctx),
            self.predicate.fingerprint(),
        ) + _kept_key(self.columns)

    def _run(self, ctx: PlanContext) -> Relation:
        return select(
            self.child.execute(ctx),
            self.predicate,
            ctx.counters,
            batch=ctx.batch,
            token=ctx.token,
            columns=self.columns,
        )

    def estimated_cost(self, ctx: PlanContext) -> float:
        per_tuple = self.predicate.comparisons()
        return ctx.w * self.child.estimated_rows * per_tuple * ctx.params.comp

    def total_cost(self, ctx: PlanContext) -> float:
        return self.estimated_cost(ctx) + self.child.total_cost(ctx)


class JoinNode(PlanNode):
    """Equijoin of two subplans with an explicit algorithm choice."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_column: str,
        right_column: str,
        algorithm: str,
        estimated_rows: float,
    ) -> None:
        if algorithm not in ALL_JOINS:
            raise PlannerError("unknown join algorithm %r" % algorithm)
        schema = _join_output_schema(left.schema, right.schema)
        super().__init__(schema, estimated_rows)
        self.left = left
        self.right = right
        self.left_column = left_column
        self.right_column = right_column
        self.algorithm = algorithm

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return "Join[%s](%s = %s)" % (
            self.algorithm,
            self.left_column,
            self.right_column,
        )

    def fingerprint(self, ctx: PlanContext) -> Tuple[Any, ...]:
        return (
            "join",
            self.algorithm,
            self.left.fingerprint(ctx),
            self.right.fingerprint(ctx),
            self.left_column,
            self.right_column,
            # Statistics epochs of every base table under this join: the
            # order and algorithm were chosen from those statistics, so a
            # re-analyze must make the cached subtree unaddressable (the
            # access-path epoch plays the same role for scans).
            tuple(ctx.catalog.stats_epoch(t) for t in self.tables()),
        )

    def _run(self, ctx: PlanContext) -> Relation:
        left_rel = self.left.execute(ctx)
        right_rel = self.right.execute(ctx)
        algo = ALL_JOINS[self.algorithm](
            counters=ctx.counters,
            disk=ctx.disk,
            batch=ctx.batch,
        )
        if ctx.guard is not None:
            algo.set_guard(ctx.guard)
        spec = JoinSpec(
            r=left_rel,
            s=right_rel,
            r_field=self.left_column,
            s_field=self.right_column,
            memory_pages=ctx.memory_pages,
            params=ctx.params,
        )
        return algo.join(spec).relation

    def estimated_cost(self, ctx: PlanContext) -> float:
        return estimate_join_cost(
            self.algorithm,
            self.left.estimated_rows,
            self.right.estimated_rows,
            self.left.estimated_pages,
            self.right.estimated_pages,
            ctx,
        )

    def total_cost(self, ctx: PlanContext) -> float:
        return (
            self.estimated_cost(ctx)
            + self.left.total_cost(ctx)
            + self.right.total_cost(ctx)
        )


class ProjectNode(PlanNode):
    """Projection, optionally duplicate-eliminating."""

    def __init__(
        self,
        child: PlanNode,
        columns: Sequence[str],
        distinct: bool,
        method: str = "hash",
        distinct_ratio: float = 1.0,
    ) -> None:
        rows = child.estimated_rows * (distinct_ratio if distinct else 1.0)
        super().__init__(child.schema.project(list(columns)), rows)
        self.child = child
        self.columns = list(columns)
        self.distinct = distinct
        self.method = method

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        tag = "distinct " if self.distinct else ""
        return "Project[%s](%s%s)" % (self.method, tag, ", ".join(self.columns))

    def fingerprint(self, ctx: PlanContext) -> Tuple[Any, ...]:
        return (
            "project",
            self.child.fingerprint(ctx),
            tuple(self.columns),
            self.distinct,
            self.method,
        )

    def _run(self, ctx: PlanContext) -> Relation:
        child = self.child.execute(ctx)
        if self.method == "sort":
            return sort_project(
                child,
                self.columns,
                self.distinct,
                ctx.counters,
                batch=ctx.batch,
                token=ctx.token,
            )
        return hash_project(
            child,
            self.columns,
            self.distinct,
            ctx.counters,
            memory_pages=ctx.memory_pages,
            fudge=ctx.params.fudge,
            disk=ctx.disk,
            batch=ctx.batch,
            token=ctx.token,
        )

    def estimated_cost(self, ctx: PlanContext) -> float:
        n = self.child.estimated_rows
        p = ctx.params
        if not self.distinct:
            return ctx.w * n * p.move
        if self.method == "sort":
            return ctx.w * n * math.log2(n + 2) * (p.comp + p.swap)
        return ctx.w * n * (p.hash + p.comp * p.fudge + p.move)

    def total_cost(self, ctx: PlanContext) -> float:
        return self.estimated_cost(ctx) + self.child.total_cost(ctx)


class AggregateNode(PlanNode):
    """Grouped aggregation via the hash (default) or sort engine."""

    def __init__(
        self,
        child: PlanNode,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        method: str = "hash",
        group_ratio: float = 0.1,
    ) -> None:
        from repro.operators.aggregate import _output_schema

        schema = _output_schema(child.schema, list(group_by), list(aggregates))
        rows = max(1.0, child.estimated_rows * group_ratio) if group_by else 1.0
        super().__init__(schema, rows)
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.method = method

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        aggs = ", ".join(a.output_name for a in self.aggregates)
        return "Aggregate[%s](by %s: %s)" % (
            self.method,
            ", ".join(self.group_by) or "<all>",
            aggs,
        )

    def fingerprint(self, ctx: PlanContext) -> Tuple[Any, ...]:
        return (
            "agg",
            self.child.fingerprint(ctx),
            tuple(self.group_by),
            tuple(
                (a.function.value, a.column, a.alias) for a in self.aggregates
            ),
            self.method,
        )

    def _run(self, ctx: PlanContext) -> Relation:
        child = self.child.execute(ctx)
        if self.method == "sort":
            return sort_aggregate(
                child, self.group_by, self.aggregates, ctx.counters,
                batch=ctx.batch,
                token=ctx.token,
            )
        return hash_aggregate(
            child,
            self.group_by,
            self.aggregates,
            ctx.counters,
            memory_pages=ctx.memory_pages,
            fudge=ctx.params.fudge,
            disk=ctx.disk,
            batch=ctx.batch,
            token=ctx.token,
        )

    def estimated_cost(self, ctx: PlanContext) -> float:
        n = self.child.estimated_rows
        p = ctx.params
        if self.method == "sort":
            return ctx.w * n * math.log2(n + 2) * (p.comp + p.swap)
        return ctx.w * n * (p.hash + p.comp)

    def total_cost(self, ctx: PlanContext) -> float:
        return self.estimated_cost(ctx) + self.child.total_cost(ctx)


# ---------------------------------------------------------------------------
# Shared estimation helpers
# ---------------------------------------------------------------------------

def _join_output_schema(left: Schema, right: Schema) -> Schema:
    clash = set(left.names) & set(right.names)
    if clash:
        return left.concat(right, prefix_self="r_", prefix_other="s_")
    return left.concat(right)


def estimate_join_cost(
    algorithm: str,
    left_rows: float,
    right_rows: float,
    left_pages: float,
    right_pages: float,
    ctx: PlanContext,
) -> float:
    """Cost one join algorithm on estimated input sizes.

    Uses the Section 3 closed forms for the paper's four algorithms and a
    direct formula for nested loops.  ``inf`` when the algorithm's
    assumptions do not hold at this memory grant (e.g. a two-pass method
    needing ``sqrt(|S|*F)`` pages).
    """
    r_pages = max(1, math.ceil(min(left_pages, right_pages)))
    s_pages = max(r_pages, math.ceil(max(left_pages, right_pages)))
    r_rows = min(left_rows, right_rows)
    s_rows = max(left_rows, right_rows)
    r_density = max(1, int(r_rows / r_pages)) if r_pages else 1
    s_density = max(1, int(s_rows / s_pages)) if s_pages else 1

    if algorithm == "nested-loops":
        blocks = max(1.0, r_pages * ctx.params.fudge / ctx.memory_pages)
        cpu = r_rows * s_rows * ctx.params.comp
        io = max(0.0, blocks - 1.0) * s_pages * ctx.params.io_seq
        return ctx.w * cpu + io

    params = ctx.params.with_updates(
        r_pages=r_pages,
        s_pages=s_pages,
        r_tuples_per_page=r_density,
        s_tuples_per_page=s_density,
    )
    workload = JoinWorkload(params=params, memory_pages=ctx.memory_pages)
    try:
        seconds = JOIN_COST_MODELS[algorithm](workload)
    except ValueError:
        return math.inf
    # The closed forms mix CPU and IO; weight is applied to the whole
    # figure, consistent with the paper's single execution-time axis.
    return ctx.w * seconds


__all__ = [
    "AggregateNode",
    "FilterNode",
    "IndexScanNode",
    "JoinNode",
    "PlanContext",
    "PlanNode",
    "ProjectNode",
    "ScanNode",
    "estimate_join_cost",
]

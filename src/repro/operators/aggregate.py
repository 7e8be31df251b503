"""Aggregation with grouping -- the hash algorithms of Section 3.9.

"If there is enough memory to hold the result relation, then the fastest
algorithm will be a one pass hashing algorithm in which each incoming tuple
is hashed on the grouping attribute."  :func:`hash_aggregate` implements
that one-pass algorithm and, when the group table would overflow its memory
grant, degrades into the hybrid-hash variant the paper recommends: groups
already resident keep absorbing tuples, everything else is partitioned to
disk and aggregated bucket by bucket.

:func:`sort_aggregate` is the sort-based baseline (sort on the grouping
key, then fold adjacent runs of equal keys).
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cost.counters import OperationCounters, heap_push_charges
from repro.join.partition import (
    SpillWriter,
    partition_hash,
    read_bucket_columns,
)
from repro.operators.columnar import (
    charge_page_group,
    column_of,
    group_rows,
    int_key_views,
)
from repro.storage.codecs import Column, np, packed_column, packed_view
from repro.storage.disk import SimulatedDisk
from repro.storage.relation import Relation, Row
from repro.storage.tuples import DataType, Field, Schema, tuple_projector
from repro.errors import PlannerError


class AggregateFunction(enum.Enum):
    """The aggregate functions supported by the reproduction."""

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: ``function(column) AS alias``."""

    function: AggregateFunction
    column: Optional[str] = None  # COUNT may omit the column
    alias: Optional[str] = None

    def __post_init__(self) -> None:
        if self.function is not AggregateFunction.COUNT and self.column is None:
            raise PlannerError("%s requires a column" % self.function.value)

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        return "%s_%s" % (self.function.value, self.column or "all")


class _Accumulator:
    """Streaming state for one (group, aggregate) pair."""

    __slots__ = ("function", "count", "total", "extreme")

    def __init__(self, function: AggregateFunction) -> None:
        self.function = function
        self.count = 0
        self.total = 0.0
        self.extreme: Any = None

    def update(self, value: Any) -> None:
        self.count += 1
        if self.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            self.total += value
        elif self.function is AggregateFunction.MIN:
            if self.extreme is None or value < self.extreme:
                self.extreme = value
        elif self.function is AggregateFunction.MAX:
            if self.extreme is None or value > self.extreme:
                self.extreme = value

    def result(self) -> Any:
        if self.function is AggregateFunction.COUNT:
            return self.count
        if self.function is AggregateFunction.SUM:
            return self.total
        if self.function is AggregateFunction.AVG:
            return self.total / self.count if self.count else 0.0
        return self.extreme


def _output_schema(
    schema: Schema, group_by: Sequence[str], aggregates: Sequence[AggregateSpec]
) -> Schema:
    fields: List[Field] = [schema.field(name) for name in group_by]
    for spec in aggregates:
        if spec.function is AggregateFunction.COUNT:
            dtype = DataType.INTEGER
        elif spec.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            dtype = DataType.FLOAT
        else:
            dtype = schema.field(spec.column or "").dtype
        fields.append(Field(spec.output_name, dtype))
    if not fields:
        raise PlannerError("aggregation needs group-by columns or aggregates")
    return Schema(fields)


def _fold(
    groups: Dict[Tuple[Any, ...], List[_Accumulator]],
    key: Tuple[Any, ...],
    row: Row,
    agg_indexes: List[Optional[int]],
    aggregates: Sequence[AggregateSpec],
) -> None:
    accs = groups.get(key)
    if accs is None:
        accs = [_Accumulator(spec.function) for spec in aggregates]
        groups[key] = accs
    for acc, idx in zip(accs, agg_indexes):
        acc.update(row[idx] if idx is not None else 1)


def _emit_groups(
    out: Relation,
    groups: Dict[Tuple[Any, ...], List[_Accumulator]],
) -> None:
    out.extend_rows(
        [key + tuple(acc.result() for acc in accs) for key, accs in groups.items()]
    )


#: Distinguishes "no extreme yet" from any legal column value.
_MISSING = object()


def _count_of_nothing(
    out: Relation,
    relation: Relation,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> None:
    """SQL's one row for an ungrouped aggregate over no rows, where that
    row needs no NULL: every aggregate is a COUNT, and counts zero."""
    if (
        not group_by
        and not relation.cardinality
        and all(s.function is AggregateFunction.COUNT for s in aggregates)
    ):
        out.extend_rows([(0,) * len(aggregates)])


def _fold_packed(
    function: AggregateFunction,
    values: Optional[Any],
    gid: Any,
    groups: int,
    runs: Tuple[Any, Any, Any],
) -> Optional[Column]:
    """One aggregate over a whole packed column (``values``: its numpy
    view), one result per group in first-seen order -- or ``None`` where
    numpy would not answer as the accumulators do, and the caller loops.

    COUNT is a ``bincount``; SUM and AVG are a weighted one, which adds
    each group's values in row order from ``0.0`` in double precision --
    the accumulator's arithmetic and rounding; MIN and MAX reduce the
    runs of equal keys.  A float MIN/MAX column is left to the loop:
    numpy and Python disagree on NaN and on which of two equal extremes
    (``0.0``, ``-0.0``) is kept.
    """
    if function is AggregateFunction.COUNT:
        return packed_column("q", np.bincount(gid, minlength=groups))
    if values is None:
        return None
    if function is AggregateFunction.SUM:
        return packed_column(
            "d", np.bincount(gid, weights=values, minlength=groups)
        )
    if function is AggregateFunction.AVG:
        totals = np.bincount(gid, weights=values, minlength=groups)
        return packed_column("d", totals / np.bincount(gid, minlength=groups))
    if values.dtype.kind != "i":
        return None
    order, starts, first_seen = runs
    reduce = np.minimum if function is AggregateFunction.MIN else np.maximum
    return packed_column(
        "q", reduce.reduceat(values[order], starts)[first_seen]
    )


def _fold_loop(
    function: AggregateFunction,
    values: Optional[Sequence[Any]],
    gid: Sequence[int],
    groups: int,
) -> List[Any]:
    """:func:`_fold_packed` for any column, one Python step per row:
    what each group's accumulator computes, in one list per aggregate."""
    if function is AggregateFunction.COUNT:
        counts = [0] * groups
        for g in gid:
            counts[g] += 1
        return counts
    assert values is not None, "only COUNT takes no column"
    if function in (AggregateFunction.SUM, AggregateFunction.AVG):
        totals = [0.0] * groups
        for g, v in zip(gid, values):
            totals[g] += v
        if function is AggregateFunction.SUM:
            return totals
        counts = _fold_loop(AggregateFunction.COUNT, None, gid, groups)
        return [total / count for total, count in zip(totals, counts)]
    extremes: List[Any] = [_MISSING] * groups
    if function is AggregateFunction.MIN:
        for g, v in zip(gid, values):
            cur = extremes[g]
            if cur is _MISSING or v < cur:
                extremes[g] = v
    else:
        for g, v in zip(gid, values):
            cur = extremes[g]
            if cur is _MISSING or v > cur:
                extremes[g] = v
    return extremes


def _hash_aggregate_columnar(
    relation: Relation,
    group_indexes: List[int],
    agg_indexes: List[Optional[int]],
    aggregates: Sequence[AggregateSpec],
    counters: OperationCounters,
    token: Optional[Any],
    capacity: Optional[int],
) -> Optional[Tuple[int, List[Column]]]:
    """One-pass aggregation, column by column: the number of groups and
    the result's columns -- or ``None``, having charged and checked
    nothing, when the groups outnumber ``capacity`` and tuples must
    spill as rows.

    The distinct groups are counted first.  Packed int64 grouping
    columns are grouped by the hash kernel's stable sort
    (:func:`~repro.operators.columnar.group_rows`) and each aggregate
    folds its whole packed value column in a few array operations
    (:func:`_fold_packed`); any other input -- string or float keys, a
    float column to MIN/MAX, a demoted column, no numpy -- numbers its
    keys through a dict and folds in a tight loop (:func:`_fold_loop`).
    An ungrouped aggregate groups by a constant.

    Observational identity with the row paths is preserved carefully:
    groups are emitted in first-seen order, SUM/AVG totals start at
    ``0.0`` and add in row order (same float rounding), and MIN/MAX keep
    the first extreme seen among equals.
    """
    rows = relation.cardinality
    # Only the grouping columns are read before the groups are known to fit.
    keys = [column_of(relation, i) for i in group_indexes] or [
        array("q", bytes(8 * rows))
    ]
    columns = dict(zip(group_indexes, keys))
    limit = rows if capacity is None else capacity
    views = int_key_views(keys) if rows else None
    packed = views is not None
    loop_gid: Optional[List[int]] = None
    if views is not None:
        order, starts, first_seen, gid, fresh = group_rows(views)
        groups = len(starts)
        if groups > limit:
            return None
        first_rows = np.flatnonzero(fresh)
        out: List[Column] = [
            packed_column("q", view[first_rows]) for view in views
        ]
    else:
        numbers: Dict[Any, int] = {}
        loop_gid = []
        for key in keys[0] if len(keys) == 1 else zip(*keys):
            loop_gid.append(numbers.setdefault(key, len(numbers)))
            if len(numbers) > limit:  # never holds more groups than fit
                return None
        groups = len(numbers)
        out = [list(numbers)] if len(keys) == 1 else list(zip(*numbers))
    # A numpy view pins the size of the relation buffer it shows, and a
    # cancelled check below keeps this frame alive in its traceback.
    views = None

    if token is not None:
        for _ in range(relation.page_count):
            token.check()
    charge_page_group(counters, rows)

    del out[len(group_indexes):]  # the constant an ungrouped fold grouped by
    for spec, idx in zip(aggregates, agg_indexes):
        if idx is not None and idx not in columns:
            columns[idx] = column_of(relation, idx)
        values = columns[idx] if idx is not None else None
        folded = None
        if packed:
            folded = _fold_packed(
                spec.function,
                packed_view(values) if idx is not None else None,
                gid, groups, (order, starts, first_seen),
            )
        if folded is None:
            if loop_gid is None:
                loop_gid = gid.tolist()
            folded = _fold_loop(spec.function, values, loop_gid, groups)
        out.append(folded)
    return groups, out


def hash_aggregate(
    relation: Relation,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    counters: Optional[OperationCounters] = None,
    memory_pages: Optional[int] = None,
    fudge: float = 1.2,
    disk: Optional[SimulatedDisk] = None,
    output_name: Optional[str] = None,
    batch: bool = True,
    token: Optional[Any] = None,
    _depth: int = 0,
) -> Relation:
    """One-pass hash aggregation with hybrid-hash overflow.

    Every tuple charges one ``hash`` (grouping attribute) and one
    comparison against its group entry.  When ``memory_pages`` is given and
    the group table outgrows ``memory_pages * tuples_per_page / fudge``
    entries, new groups stop being admitted: their tuples spill into hash
    partitions (one ``move`` plus IO, via ``disk``) which are then
    aggregated recursively -- the "variant of the hybrid-hash algorithm"
    the paper recommends when the result exceeds memory.

    The default ``batch`` path charges the hash/compare counters in
    bulk; spill order, results, and counter totals are
    identical to ``batch=False``.  It counts the distinct groups before
    charging anything: when they fit the grant (or there is none) no
    tuple can spill, and it folds whole columns
    (:func:`_hash_aggregate_columnar`); only when they overflow does it
    walk each page's row view with a hoisted key extractor, because an
    overflowing tuple spills as a row.

    ``token`` is a :class:`repro.governor.CancellationToken` checked once
    per page of input -- on the column paths in one run before the work
    -- and through every overflow recursion level.
    """
    counters = counters if counters is not None else OperationCounters()
    out_schema = _output_schema(relation.schema, group_by, aggregates)
    out = Relation(
        output_name or ("agg(%s)" % relation.name), out_schema, relation.page_bytes
    )

    group_indexes = [relation.schema.index_of(n) for n in group_by]
    agg_indexes: List[Optional[int]] = [
        relation.schema.index_of(s.column) if s.column is not None else None
        for s in aggregates
    ]

    capacity = None
    if memory_pages is not None:
        capacity = max(1, int(memory_pages * relation.tuples_per_page / fudge))

    groups: Dict[Tuple[Any, ...], List[_Accumulator]] = {}
    writer: Optional[SpillWriter] = None
    spill_files: List[str] = []
    buckets = 4

    def ensure_writer() -> SpillWriter:
        nonlocal disk, writer, spill_files
        if writer is None:
            if disk is None:
                disk = SimulatedDisk(counters)
            spill_files = [
                "agg:%s:%d.%d" % (relation.name, _depth, i) for i in range(buckets)
            ]
            writer = SpillWriter(
                disk, spill_files, relation.tuples_per_page, counters
            )
        return writer

    if batch:
        folded = _hash_aggregate_columnar(
            relation, group_indexes, agg_indexes, aggregates,
            counters, token, capacity,
        )
        if folded is not None:
            out.extend_columns(folded[1], folded[0])
        else:
            # The groups overflow the grant: some tuple spills, as a row.
            keyfn = tuple_projector(group_indexes)
            get = groups.get
            for page in relation.pages:
                if token is not None:
                    token.check()
                rows = page.tuples
                counters.hash_key(len(rows))
                counters.compare(len(rows))
                for row in rows:
                    key = keyfn(row)
                    accs = get(key)
                    if accs is None:
                        if len(groups) >= capacity:
                            ensure_writer().write(
                                partition_hash((_depth, key)) % buckets, row
                            )
                            continue
                        accs = [_Accumulator(s.function) for s in aggregates]
                        groups[key] = accs
                    for acc, idx in zip(accs, agg_indexes):
                        acc.update(row[idx] if idx is not None else 1)
    else:
        tpp = max(1, relation.tuples_per_page)
        for n, row in enumerate(relation):
            if token is not None and n % tpp == 0:
                token.check()
            key = tuple(row[i] for i in group_indexes)
            counters.hash_key()
            counters.compare()
            if key in groups or capacity is None or len(groups) < capacity:
                _fold(groups, key, row, agg_indexes, aggregates)
                continue
            # Overflow: this tuple's group cannot be admitted; partition it.
            # Salt the bucket hash with the recursion depth so a
            # re-partitioned bucket actually splits (the paper's "apply the
            # hybrid hash join recursively, adding an extra pass for the
            # overflow tuples").
            ensure_writer().write(partition_hash((_depth, key)) % buckets, row)

    _emit_groups(out, groups)
    _count_of_nothing(out, relation, group_by, aggregates)

    if writer is not None:
        writer.close()
        for file_name in spill_files:
            bucket = read_bucket_columns(disk, file_name)
            disk.delete(file_name)
            if not len(bucket):
                continue
            bucket_rel = Relation(
                "%s.bucket" % relation.name, relation.schema, relation.page_bytes
            )
            bucket_rel.extend_columns(bucket.columns, len(bucket))
            partial = hash_aggregate(
                bucket_rel,
                group_by,
                aggregates,
                counters=counters,
                memory_pages=memory_pages,
                fudge=fudge,
                disk=disk,
                batch=batch,
                token=token,
                _depth=_depth + 1,
            )
            out.extend_columns(partial.columns, len(partial))
    return out


def _sort_aggregate_columnar(
    relation: Relation,
    group_indexes: Sequence[int],
    agg_indexes: Sequence[Optional[int]],
    aggregates: Sequence[AggregateSpec],
    counters: OperationCounters,
    token: Optional[Any],
) -> List[Row]:
    """Sort-aggregate over packed columns: argsort keys, fold segments.

    Observationally identical to the heap-then-accumulate specification
    in :func:`sort_aggregate`:

    * Keys sort stably by position -- the heap's pop order, since its
      entries carry an insertion sequence number.  Single-column groups
      sort the bare scalars -- ``(a,) < (b,)`` is ``a < b``, so the order
      cannot differ from 1-tuples.
    * Group boundaries use ``is``-then-``==``, the same identity shortcut
      tuple equality applies element-wise to the spec's key tuples.
    * Fold order within a group is ascending position (stable sort), the
      same float-addition sequence the accumulators see; SUM/AVG start at
      0.0 and MIN/MAX keep the first extreme, mirroring
      :class:`_Accumulator` exactly (including its None bootstrap).
    * Charges are the heap-operation totals computed arithmetically
      (:func:`heap_push_charges`) plus one neighbour check per tuple.
    """
    if token is not None:
        for _ in range(relation.page_count):
            token.check()
    single = len(group_indexes) == 1
    if single:
        keys: List[Any] = list(relation.column(group_indexes[0]))
    elif group_indexes:
        keys = list(zip(*(relation.column(i) for i in group_indexes)))
    else:
        # Ungrouped: every row belongs to the one () group.
        keys = [()] * len(relation)
    acols: List[Optional[List[Any]]] = [
        None if idx is None else list(relation.column(idx)) for idx in agg_indexes
    ]

    charges = heap_push_charges(len(keys))
    counters.compare(charges)
    counters.swap_tuples(charges)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    counters.compare(len(keys))  # one neighbour check per pop

    emitted: List[Row] = []
    n = len(keys)
    i = 0
    while i < n:
        k = keys[order[i]]
        j = i + 1
        while j < n:
            kj = keys[order[j]]
            if kj is k or kj == k:
                j += 1
            else:
                break
        seg = order[i:j]
        out_vals: List[Any] = []
        for spec, vals in zip(aggregates, acols):
            f = spec.function
            if f is AggregateFunction.COUNT:
                out_vals.append(j - i)
            elif f is AggregateFunction.SUM or f is AggregateFunction.AVG:
                total = 0.0
                for p in seg:
                    total += vals[p]
                out_vals.append(total if f is AggregateFunction.SUM
                                else total / (j - i))
            else:
                want_min = f is AggregateFunction.MIN
                cur: Any = None
                for p in seg:
                    v = vals[p]
                    if cur is None or (v < cur if want_min else v > cur):
                        cur = v
                out_vals.append(cur)
        emitted.append(((k,) if single else k) + tuple(out_vals))
        i = j
    return emitted


def sort_aggregate(
    relation: Relation,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    counters: Optional[OperationCounters] = None,
    output_name: Optional[str] = None,
    batch: bool = True,
    token: Optional[Any] = None,
) -> Relation:
    """Sort-based baseline: heap-sort on the grouping key, fold neighbours.

    Charges ``log2(n)`` comparisons and swaps per tuple for the sort (the
    priority-queue accounting of Section 3.4) plus one comparison per tuple
    for the neighbour check.

    The ``batch`` path replaces the explicit heap with a stable sort of
    row positions over the packed key column and computes the
    heap-operation charges arithmetically (see
    :func:`_sort_aggregate_columnar`) -- same results, same counter
    totals.
    """
    counters = counters if counters is not None else OperationCounters()
    out_schema = _output_schema(relation.schema, group_by, aggregates)
    out = Relation(
        output_name or ("agg(%s)" % relation.name), out_schema, relation.page_bytes
    )
    group_indexes = [relation.schema.index_of(n) for n in group_by]
    agg_indexes: List[Optional[int]] = [
        relation.schema.index_of(s.column) if s.column is not None else None
        for s in aggregates
    ]

    if batch:
        out.extend_rows(
            _sort_aggregate_columnar(
                relation, group_indexes, agg_indexes, aggregates,
                counters, token,
            )
        )
        _count_of_nothing(out, relation, group_by, aggregates)
        return out

    heap: List[Tuple[Tuple[Any, ...], int, Row]] = []
    seq = itertools.count()
    tpp = max(1, relation.tuples_per_page)
    for n, row in enumerate(relation):
        if token is not None and n % tpp == 0:
            token.check()
        levels = max(1, math.ceil(math.log2(len(heap) + 2)))
        counters.compare(levels)
        counters.swap_tuples(levels)
        heapq.heappush(
            heap, (tuple(row[i] for i in group_indexes), next(seq), row)
        )

    current: Optional[Tuple[Any, ...]] = None
    accs: List[_Accumulator] = []
    emitted: List[Row] = []
    while heap:
        key, _, row = heapq.heappop(heap)
        counters.compare()
        if key != current:
            if current is not None:
                emitted.append(current + tuple(a.result() for a in accs))
            current = key
            accs = [_Accumulator(spec.function) for spec in aggregates]
        for acc, idx in zip(accs, agg_indexes):
            acc.update(row[idx] if idx is not None else 1)
    if current is not None:
        emitted.append(current + tuple(a.result() for a in accs))
    out.extend_rows(emitted)
    _count_of_nothing(out, relation, group_by, aggregates)
    return out


__all__ = [
    "AggregateFunction",
    "AggregateSpec",
    "hash_aggregate",
    "sort_aggregate",
]

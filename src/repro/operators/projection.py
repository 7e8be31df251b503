"""Projection, with and without duplicate elimination -- Section 3.9.

"Projection with duplicate elimination is very similar in nature to the
aggregate function operation (in projection we are grouping identical
tuples)" -- so :func:`hash_project` delegates its distinct path to the
hash-aggregation engine with the projected columns as the grouping key and
no aggregates, inheriting the same one-pass / hybrid-overflow behaviour.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.cost.counters import OperationCounters
from repro.operators.aggregate import hash_aggregate, sort_aggregate
from repro.operators.columnar import copy_columns
from repro.storage.disk import SimulatedDisk
from repro.storage.relation import Relation


def _plain_project(
    relation: Relation,
    columns: Sequence[str],
    counters: OperationCounters,
    output_name: Optional[str],
    batch: bool = True,
    token: Optional[Any] = None,
) -> Relation:
    """One tuple move per row, then the uncharged column copy."""
    counters.move_tuple(relation.cardinality)
    return copy_columns(
        relation,
        columns,
        output_name or ("project(%s)" % relation.name),
        batch,
        token,
    )


def hash_project(
    relation: Relation,
    columns: Sequence[str],
    distinct: bool = True,
    counters: Optional[OperationCounters] = None,
    memory_pages: Optional[int] = None,
    fudge: float = 1.2,
    disk: Optional[SimulatedDisk] = None,
    output_name: Optional[str] = None,
    batch: bool = True,
    token: Optional[Any] = None,
) -> Relation:
    """Project onto ``columns``; hash-deduplicate when ``distinct``."""
    counters = counters if counters is not None else OperationCounters()
    if not distinct:
        return _plain_project(
            relation, columns, counters, output_name, batch, token=token
        )
    return hash_aggregate(
        relation,
        group_by=list(columns),
        aggregates=[],
        counters=counters,
        memory_pages=memory_pages,
        fudge=fudge,
        disk=disk,
        output_name=output_name or ("project(%s)" % relation.name),
        batch=batch,
        token=token,
    )


def sort_project(
    relation: Relation,
    columns: Sequence[str],
    distinct: bool = True,
    counters: Optional[OperationCounters] = None,
    output_name: Optional[str] = None,
    batch: bool = True,
    token: Optional[Any] = None,
) -> Relation:
    """Sort-based projection baseline (duplicates collapse after sorting)."""
    counters = counters if counters is not None else OperationCounters()
    if not distinct:
        return _plain_project(
            relation, columns, counters, output_name, batch, token=token
        )
    return sort_aggregate(
        relation,
        group_by=list(columns),
        aggregates=[],
        counters=counters,
        output_name=output_name or ("project(%s)" % relation.name),
        batch=batch,
        token=token,
    )


__all__ = ["hash_project", "sort_project"]

"""Cross product, division, and set operators -- the rest of Section 3.9.

"Many of the techniques used for executing the relational join operator can
also be used for other relational operators (e.g. aggregate functions,
cross product, and division)."  This module supplies those remaining
operators with the same hash-first design and counter instrumentation:

* :func:`cross_product` -- the degenerate join (every pair matches).
* :func:`divide` -- relational division ``R(x, y) / S(y)``: the x-values
  related to *every* y in S.  Implemented as hash grouping on x with a
  counting check against a hash set of S -- one pass over each input,
  exactly the aggregation pattern the paper recommends.
* :func:`union_`, :func:`intersect`, :func:`difference` -- set operators
  over union-compatible relations, via hash-based duplicate handling.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.cost.counters import OperationCounters
from repro.operators.columnar import (
    charge_page_group,
    charge_page_hashes,
    charge_page_moves,
    page_keys,
)
from repro.storage.relation import Relation, Row
from repro.errors import PlannerError


def _require_compatible(a: Relation, b: Relation, op: str) -> None:
    if len(a.schema) != len(b.schema) or any(
        fa.dtype is not fb.dtype
        for fa, fb in zip(a.schema.fields, b.schema.fields)
    ):
        raise PlannerError(
            "%s requires union-compatible schemas; got %r and %r"
            % (op, a.schema, b.schema)
        )


def cross_product(
    r: Relation,
    s: Relation,
    counters: Optional[OperationCounters] = None,
    output_name: Optional[str] = None,
    batch: bool = True,
) -> Relation:
    """``R x S`` -- every pairing, charged one move per output tuple."""
    counters = counters if counters is not None else OperationCounters()
    clash = set(r.schema.names) & set(s.schema.names)
    schema = (
        r.schema.concat(s.schema, "r_", "s_") if clash else r.schema.concat(s.schema)
    )
    out = Relation(
        output_name or ("product(%s,%s)" % (r.name, s.name)),
        schema,
        max(r.page_bytes, schema.tuple_bytes),
    )
    if batch:
        # Per (r-row, s-page): the r-values broadcast into constant
        # columns and the s-columns copy buffer-to-buffer.
        s_pages = s.pages
        for r_page in r.pages:
            for r_row in r_page.tuples:
                for s_page in s_pages:
                    n = len(s_page)
                    charge_page_moves(counters, n)
                    if n:
                        out.extend_columns(
                            [[v] * n for v in r_row] + list(s_page.columns),
                            n,
                        )
        return out
    for r_row in r:
        for s_row in s:
            counters.move_tuple()
            out.insert_unchecked(r_row + s_row)
    return out


def divide(
    r: Relation,
    divisor: Relation,
    r_group: Sequence[str],
    r_attr: Sequence[str],
    divisor_attr: Optional[Sequence[str]] = None,
    counters: Optional[OperationCounters] = None,
    output_name: Optional[str] = None,
    batch: bool = True,
) -> Relation:
    """Relational division: group values related to every divisor tuple.

    ``r_group`` are the dividend's result columns (the paper's "x"),
    ``r_attr`` the columns matched against the divisor (the "y");
    ``divisor_attr`` defaults to the divisor's full schema.

    Hash-based, two passes, no sorting: build a hash set of the divisor,
    then for each x-group count the *distinct* divisor members it covers;
    emit the groups covering all of them.  Example -- "suppliers who supply
    every part": ``divide(supplies, parts, ["supplier"], ["part"])``.
    """
    counters = counters if counters is not None else OperationCounters()
    if divisor_attr is None:
        divisor_attr = divisor.schema.names
    if len(r_attr) != len(divisor_attr):
        raise PlannerError("dividend/divisor attribute lists differ in length")
    if not r_group:
        raise PlannerError("division needs at least one result column")

    group_idx = [r.schema.index_of(c) for c in r_group]
    attr_idx = [r.schema.index_of(c) for c in r_attr]
    div_idx = [divisor.schema.index_of(c) for c in divisor_attr]

    # Pass 1: hash the divisor into a set.
    required: Set[Tuple[Any, ...]] = set()
    if batch:
        for page in divisor.pages:
            charge_page_hashes(counters, len(page))
            required.update(page_keys(page, div_idx))
    else:
        for row in divisor:
            counters.hash_key()
            required.add(tuple(row[i] for i in div_idx))

    out = Relation(
        output_name or ("divide(%s,%s)" % (r.name, divisor.name)),
        r.schema.project(list(r_group)),
        r.page_bytes,
    )
    if not required:
        # X / {} is all x-values by convention (vacuous universality).
        seen_groups: Set[Tuple[Any, ...]] = set()
        if batch:
            for page in r.pages:
                charge_page_hashes(counters, len(page))
                fresh: List[Tuple[Any, ...]] = []
                for key in page_keys(page, group_idx):
                    if key not in seen_groups:
                        seen_groups.add(key)
                        fresh.append(key)
                out.extend_rows(fresh)
            return out
        for row in r:
            counters.hash_key()
            key = tuple(row[i] for i in group_idx)
            if key not in seen_groups:
                seen_groups.add(key)
                out.insert_unchecked(key)
        return out

    # Pass 2: per x-group, collect which required members are covered.
    covered: Dict[Tuple[Any, ...], Set[Tuple[Any, ...]]] = {}
    if batch:
        for page in r.pages:
            charge_page_group(counters, len(page))
            for member, key in zip(
                page_keys(page, attr_idx), page_keys(page, group_idx)
            ):
                if member not in required:
                    continue
                covered.setdefault(key, set()).add(member)
        counters.compare(len(covered))
        want = len(required)
        out.extend_rows(
            [key for key, members in covered.items() if len(members) == want]
        )
        return out
    for row in r:
        counters.hash_key()
        counters.compare()
        member = tuple(row[i] for i in attr_idx)
        if member not in required:
            continue
        key = tuple(row[i] for i in group_idx)
        covered.setdefault(key, set()).add(member)

    for key, members in covered.items():
        counters.compare()
        if len(members) == len(required):
            out.insert_unchecked(key)
    return out


def union_(
    a: Relation,
    b: Relation,
    distinct: bool = True,
    counters: Optional[OperationCounters] = None,
    output_name: Optional[str] = None,
    batch: bool = True,
) -> Relation:
    """``A UNION B`` (hash-deduplicated) or ``UNION ALL``."""
    counters = counters if counters is not None else OperationCounters()
    _require_compatible(a, b, "union")
    out = Relation(
        output_name or ("union(%s,%s)" % (a.name, b.name)),
        a.schema,
        a.page_bytes,
    )
    if not distinct:
        if batch:
            for source in (a, b):
                for page in source.pages:
                    rows = page.tuples
                    counters.move_tuple(len(rows))
                    out.extend_rows(rows)
            return out
        for row in a:
            counters.move_tuple()
            out.insert_unchecked(row)
        for row in b:
            counters.move_tuple()
            out.insert_unchecked(row)
        return out
    seen: Set[Row] = set()
    if batch:
        for source in (a, b):
            for page in source.pages:
                rows = page.tuples
                counters.hash_key(len(rows))
                fresh: List[Row] = []
                for row in rows:
                    if row not in seen:
                        seen.add(row)
                        fresh.append(row)
                out.extend_rows(fresh)
        return out
    for source in (a, b):
        for row in source:
            counters.hash_key()
            if row not in seen:
                seen.add(row)
                out.insert_unchecked(row)
    return out


def intersect(
    a: Relation,
    b: Relation,
    counters: Optional[OperationCounters] = None,
    output_name: Optional[str] = None,
    batch: bool = True,
) -> Relation:
    """``A INTERSECT B`` (set semantics): hash the smaller, probe the
    larger -- the simple-hash pattern."""
    counters = counters if counters is not None else OperationCounters()
    _require_compatible(a, b, "intersect")
    build, probe = (a, b) if a.cardinality <= b.cardinality else (b, a)
    table: Set[Row] = set()
    out = Relation(
        output_name or ("intersect(%s,%s)" % (a.name, b.name)),
        a.schema,
        a.page_bytes,
    )
    emitted: Set[Row] = set()
    if batch:
        for page in build.pages:
            rows = page.tuples
            counters.hash_key(len(rows))
            table.update(rows)
        for page in probe.pages:
            rows = page.tuples
            counters.hash_key(len(rows))
            counters.compare(len(rows))
            fresh: List[Row] = []
            for row in rows:
                if row in table and row not in emitted:
                    emitted.add(row)
                    fresh.append(row)
            out.extend_rows(fresh)
        return out
    for row in build:
        counters.hash_key()
        table.add(row)
    for row in probe:
        counters.hash_key()
        counters.compare()
        if row in table and row not in emitted:
            emitted.add(row)
            out.insert_unchecked(row)
    return out


def difference(
    a: Relation,
    b: Relation,
    counters: Optional[OperationCounters] = None,
    output_name: Optional[str] = None,
    batch: bool = True,
) -> Relation:
    """``A EXCEPT B`` (set semantics): hash B, anti-probe with A."""
    counters = counters if counters is not None else OperationCounters()
    _require_compatible(a, b, "difference")
    table: Set[Row] = set()
    out = Relation(
        output_name or ("except(%s,%s)" % (a.name, b.name)),
        a.schema,
        a.page_bytes,
    )
    emitted: Set[Row] = set()
    if batch:
        for page in b.pages:
            rows = page.tuples
            counters.hash_key(len(rows))
            table.update(rows)
        for page in a.pages:
            rows = page.tuples
            counters.hash_key(len(rows))
            counters.compare(len(rows))
            fresh: List[Row] = []
            for row in rows:
                if row not in table and row not in emitted:
                    emitted.add(row)
                    fresh.append(row)
            out.extend_rows(fresh)
        return out
    for row in b:
        counters.hash_key()
        table.add(row)
    for row in a:
        counters.hash_key()
        counters.compare()
        if row not in table and row not in emitted:
            emitted.add(row)
            out.insert_unchecked(row)
    return out


__all__ = ["cross_product", "difference", "divide", "intersect", "union_"]

"""Columnar batch-execution kernels and their counter charge helpers.

The production arm's hot path: batch operators scan a relation's packed
column buffers directly instead of materialising row tuples, and copy
survivors column-to-column into the output relation.

Charging discipline: the helpers below are the *only* way the columnar
kernels touch :class:`~repro.cost.counters.OperationCounters`, and each
charges exactly what the tuple-at-a-time specification arm charges for
the same page of input -- the counter-parity lint knows them by name (see
``LintConfig.charge_helpers``) and the differential tests assert the
totals stay byte-identical between the specification arm
(``batch=False``) and the production arm.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.cost.counters import OperationCounters
from repro.storage.codecs import (
    INT_KIND,
    Column,
    compress_column,
    np,
    packed_column,
    packed_view,
)
from repro.storage.page import Page
from repro.storage.relation import Relation
from repro.storage.tuples import tuple_projector


# -- charge helpers (registered in LintConfig.charge_helpers) ------------------


def charge_page_compares(counters: OperationCounters, n: int) -> None:
    """``n`` key comparisons for one page scanned by a columnar kernel."""
    counters.compare(n)


def charge_page_moves(counters: OperationCounters, n: int) -> None:
    """``n`` tuple moves for one page copied by a columnar kernel."""
    counters.move_tuple(n)


def charge_page_group(counters: OperationCounters, n: int) -> None:
    """One hash plus one group-entry comparison per tuple of a page."""
    counters.hash_key(n)
    counters.compare(n)


def charge_page_fetch(counters: OperationCounters, n: int) -> None:
    """``n`` TID fetches by an index scan: one compare + one move each."""
    counters.compare(n)
    counters.move_tuple(n)


# -- columnar kernels ----------------------------------------------------------


def kept_columns(
    source: Union[Page, Relation], indexes: Optional[Sequence[int]]
) -> List[Column]:
    """``source``'s column buffers at ``indexes`` (``None`` = all of them)."""
    columns = source.columns
    return columns if indexes is None else [columns[i] for i in indexes]


def narrowed(
    relation: Relation, name: str, columns: Optional[Sequence[str]]
) -> Tuple[Relation, Optional[List[int]]]:
    """An empty relation ``name`` on ``relation``'s page size that keeps
    ``columns`` of its schema, and those columns' indexes (``None`` = all,
    for both)."""
    schema, indexes = relation.schema, None
    if columns is not None:
        indexes = [schema.index_of(c) for c in columns]
        schema = schema.project(list(columns))
    return Relation(name, schema, relation.page_bytes), indexes


def append_selected(
    out: Relation,
    page: Page,
    mask: Sequence[bool],
    indexes: Optional[Sequence[int]] = None,
) -> int:
    """Append the rows of ``page`` selected by ``mask``; return how many.

    Survivor columns flow buffer-to-buffer (``itertools.compress`` into a
    fresh packed array, or a vectorised take when the mask is a numpy
    boolean array) without building a single row tuple.  ``indexes``
    names the columns ``out`` keeps (``None`` = all); the others are
    never read.
    """
    # numpy masks count at C speed; plain lists via the builtin.
    selected = int(mask.sum()) if hasattr(mask, "sum") else sum(mask)
    if not selected:
        return 0
    columns = kept_columns(page, indexes)
    if selected == len(page):
        out.extend_columns(columns, selected)
    else:
        out.extend_columns(
            [compress_column(col, mask) for col in columns], selected
        )
    return selected


def gather_columns(
    columns: Sequence[Column], indices: Sequence[int]
) -> List[Column]:
    """Take the rows at ``indices`` out of ``columns``, column-by-column.

    The join kernels' group-gather: ``indices`` may repeat and need not be
    sorted (one build row matches many probe rows), and the output columns
    preserve packedness -- a packed buffer gathers through a vectorised
    take when numpy is around, one C-level ``map`` otherwise.  Gathering
    is uncharged, exactly like the row paths' tuple concatenation.
    """
    out: List[Column] = []
    idx = None
    for col in columns:
        view = packed_view(col)
        if view is not None:
            if idx is None:
                # The hash kernel's index arrays are taken as they are.
                idx = (
                    indices
                    if isinstance(indices, np.ndarray)
                    else np.fromiter(indices, dtype=np.intp, count=len(indices))
                )
            out.append(packed_column(col.typecode, view[idx]))
            continue
        if hasattr(indices, "tolist"):
            indices = indices.tolist()
        if type(col) is array:
            out.append(array(col.typecode, map(col.__getitem__, indices)))
        else:
            out.append(list(map(col.__getitem__, indices)))
    return out


def int_key_views(columns: Sequence[Column]) -> Optional[List[Any]]:
    """Numpy views of ``columns`` when every one is a packed int64 buffer
    (and numpy imports) -- what selects the hash kernels; else ``None``.

    Integers only: int64 equality and order are Python's, where floats
    bring ``0.0 == -0.0``, NaN and ``hash(1.0) == hash(1)`` with them.
    """
    views = []
    for col in columns:
        view = packed_view(col)
        if view is None or col.typecode != INT_KIND:
            return None
        views.append(view)
    return views


def stable_argsort(values: Any) -> Any:
    """``values.argsort(kind="stable")`` for an integer array.  Values
    within a 16-bit range are sorted as their offsets from the smallest:
    numpy radix-sorts 16-bit integers, in linear time."""
    if len(values):
        low = int(values.min())
        if int(values.max()) - low < 1 << 16:
            values = (values - low).astype(np.uint16)
    return values.argsort(kind="stable")


def group_rows(keys: Sequence[Any]) -> Tuple[Any, Any, Any, Any, Any]:
    """Group the rows of parallel int64 key arrays ``keys`` by equal key.

    One stable sort, shared by the hash join table, GROUP BY and
    DISTINCT.  Returns ``(order, starts, first_seen, gid, fresh)``:
    ``order`` lists the rows sorted by key, equal keys in row order;
    ``starts`` holds the offset in ``order`` where each run of equal keys
    begins; ``first_seen`` lists the runs in the order their keys first
    appear -- the order a chained table meets them and a hash aggregate
    emits them; ``gid`` numbers every row's key in that order; ``fresh``
    marks the rows that show a key for the first time.
    """
    n = len(keys[0])
    if len(keys) == 1:
        order = stable_argsort(keys[0])
    else:
        order = np.lexsort(keys[::-1])  # stable; the last key is primary
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for column in keys:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    first_rows = order[starts]  # stable: a run's first row shows its key first
    fresh = np.zeros(n, dtype=bool)
    fresh[first_rows] = True
    numbering = fresh.cumsum()[first_rows] - 1
    first_seen = np.empty(len(starts), dtype=np.intp)
    first_seen[numbering] = np.arange(len(starts))
    gid = np.empty(n, dtype=np.intp)
    gid[order] = numbering[new.cumsum() - 1]
    return order, starts, first_seen, gid, fresh


def column_of(relation: Relation, index: int) -> Column:
    """Column ``index`` of ``relation``: its buffer (do not mutate)."""
    return relation.column(index)


def copy_columns(
    relation: Relation,
    columns: Sequence[str],
    output_name: str,
    batch: bool = True,
    token: Optional[Any] = None,
) -> Relation:
    """``relation`` repacked onto ``columns``, charging nothing.

    The batch path appends each kept column buffer to the projected
    relation in one copy; dropped ones are never touched and no row tuple
    exists.  ``batch=False`` is the tuple-at-a-time specification; both
    check ``token`` once per input page (the batch path in one run before
    the copy).  What the copy costs on the paper's clock is the caller's
    to say: a projection charges a move per row, a pruned scan stages
    whole column buffers as a join's build side would one step later and
    charges nothing.
    """
    out, indexes = narrowed(relation, output_name, columns)
    if batch:
        if token is not None:
            for _ in range(relation.page_count):
                token.check()
        out.extend_columns(kept_columns(relation, indexes), len(relation))
        return out
    project = tuple_projector(indexes)
    tpp = max(1, relation.tuples_per_page)
    for n, row in enumerate(relation):
        if token is not None and n % tpp == 0:
            token.check()
        out.insert_unchecked(project(row))
    return out


__all__ = [
    "append_selected",
    "charge_page_compares",
    "charge_page_fetch",
    "charge_page_group",
    "charge_page_moves",
    "column_of",
    "copy_columns",
    "gather_columns",
    "group_rows",
    "int_key_views",
    "kept_columns",
    "narrowed",
    "stable_argsort",
]

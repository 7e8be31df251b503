"""Columnar batch-execution kernels and their counter charge helpers.

The production arm's hot path: batch operators scan the packed column
buffers of :class:`~repro.storage.page.Page` directly instead of
materialising row tuples, and copy survivors column-to-column into the
output relation.

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
from typing import Any, List, Sequence, Tuple

from repro.cost.counters import OperationCounters
from repro.storage.codecs import Column, compress_column, np, packed_view
from repro.storage.page import Page
from repro.storage.relation import Relation


# -- charge helpers (registered in LintConfig.charge_helpers) ------------------


def charge_page_compares(counters: OperationCounters, n: int) -> None:
    """``n`` key comparisons for one page scanned by a columnar kernel."""
    counters.compare(n)


def charge_page_moves(counters: OperationCounters, n: int) -> None:
    """``n`` tuple moves for one page copied by a columnar kernel."""
    counters.move_tuple(n)


def charge_page_hashes(counters: OperationCounters, n: int) -> None:
    """``n`` key hashes for one page consumed by a columnar kernel."""
    counters.hash_key(n)


def charge_page_group(counters: OperationCounters, n: int) -> None:
    """One hash plus one group-entry comparison per tuple of a page."""
    counters.hash_key(n)
    counters.compare(n)


def charge_page_fetch(counters: OperationCounters, n: int) -> None:
    """``n`` TID fetches by an index scan: one compare + one move each."""
    counters.compare(n)
    counters.move_tuple(n)


# -- columnar kernels ----------------------------------------------------------


def page_keys(page: Page, indexes: Sequence[int]) -> List[Tuple[Any, ...]]:
    """Key tuples for every row of ``page``, extracted column-wise.

    Always yields tuples (1-tuples for a single column), exactly like
    :func:`~repro.storage.tuples.tuple_projector` -- the hash-aggregate
    spill partitioning hashes these keys, so the shape must not change.
    """
    cols = [page.column(i) for i in indexes]
    return list(zip(*cols))


def append_selected(out: Relation, page: Page, mask: Sequence[bool]) -> int:
    """Append the rows of ``page`` selected by ``mask``; return how many.

    Survivor columns flow buffer-to-buffer (``itertools.compress`` into a
    fresh packed array, or a vectorised take when the mask is a numpy
    boolean array) without building a single row tuple.
    """
    # numpy masks count at C speed; plain lists via the builtin.
    selected = int(mask.sum()) if hasattr(mask, "sum") else sum(mask)
    if not selected:
        return 0
    if selected == len(page):
        out.extend_columns(page.columns, selected)
    else:
        out.extend_columns(
            [compress_column(col, mask) for col in page.columns], selected
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
                idx = np.fromiter(indices, dtype=np.intp, count=len(indices))
            taken = array(col.typecode)
            taken.frombytes(view[idx].tobytes())
            out.append(taken)
        elif type(col) is array:
            out.append(array(col.typecode, map(col.__getitem__, indices)))
        else:
            out.append(list(map(col.__getitem__, indices)))
    return out


__all__ = [
    "append_selected",
    "charge_page_compares",
    "charge_page_fetch",
    "charge_page_group",
    "charge_page_hashes",
    "charge_page_moves",
    "gather_columns",
    "page_keys",
]

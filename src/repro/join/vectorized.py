"""Columnar (vectorized) join kernels -- the production arm's hot path.

A row-at-a-time hash join materialises every tuple twice: once when a
page's row view is built for the build/probe loops, and once more when
each match concatenates ``r_row + s_row``.  The kernels here never touch
a row tuple on the happy path.  The build side stages its pages into a
:class:`ColumnStore` (one oversized columnar page) and the hash table
stores **row indices** instead of row tuples; probing hashes a whole key
column per page, flattens the match chains into parallel build/probe
index lists, and group-gathers both sides' survivor columns straight
into ``Relation.extend_columns``.

Counter identity with the tuple-at-a-time specification arm is by
construction:

* :meth:`~repro.access.hash_index.HashIndex.insert_batch` and
  :meth:`~repro.access.hash_index.HashIndex.probe_batch` charge from the
  *keys* and their order alone -- one hash + one move + one comparison per
  chain entry scanned per insert, one hash + one comparison per chain
  entry per probe.  Storing an index where the specification stores a
  tuple changes no charge.
* Gathers and ``extend_columns`` are uncharged, exactly like the
  specification's uncharged ``emit`` output path.

The differential suite (tests/test_batch_equivalence.py and
tests/test_join_pipeline.py) asserts byte-identical rows *and*
``OperationCounters`` between the specification arm (``batch=False``) and
the production arm for every algorithm.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, List, Optional, Sequence, Tuple

from repro.access.hash_index import HashIndex
from repro.cost.counters import OperationCounters
from repro.operators.columnar import gather_columns
from repro.storage.codecs import Column, column_kinds
from repro.storage.page import Page
from repro.storage.relation import Relation, Row


class ColumnStore:
    """Append-only columnar staging area for build-side rows.

    One oversized :class:`~repro.storage.page.Page` sized for the whole
    relation: ``Page._extend_column`` keeps packed buffers packed and
    demotes exactly like the relation's own pages, so stored values
    round-trip with their exact types.  Rows are addressed by their
    global append index -- the values the columnar hash table stores.
    """

    __slots__ = ("_page",)

    def __init__(self, relation: Relation) -> None:
        self._page = Page(
            0, max(1, relation.cardinality), column_kinds(relation.schema)
        )

    def __len__(self) -> int:
        return len(self._page)

    @property
    def columns(self) -> List[Column]:
        return self._page.columns

    def add_page(self, page: Page) -> None:
        """Stage a whole input page (buffer-to-buffer column extends)."""
        self._page.extend_columns(page.columns, len(page))

    def add_columns(self, columns: Sequence[Column], count: int) -> None:
        """Stage a pre-gathered subset of an input page."""
        self._page.extend_columns(columns, count)

    def row(self, index: int) -> Row:
        """One staged row as a tuple (the demotion/overflow slow paths)."""
        return self._page.tuples[index]


def insert_page(
    table: HashIndex, store: ColumnStore, keys: Sequence[Any], page: Page
) -> None:
    """Build step for one full page: index the keys, stage the columns.

    Charges are identical to inserting ``(key, row)`` pairs -- the table
    stores the rows' global store indices instead.
    """
    base = len(store)
    table.insert_batch(zip(keys, range(base, base + len(page))))
    store.add_page(page)


def flatten_chains(
    chains: Sequence[List[int]],
) -> Tuple[List[int], List[int]]:
    """Flatten probe chains into parallel (build, probe) index lists.

    Preserves the specification's match order exactly: probe rows in
    input order, each probe row's matches in chain order.
    """
    build_idx: List[int] = []
    probe_idx: List[int] = []
    for s_i, chain in enumerate(chains):
        if chain:
            build_idx.extend(chain)
            probe_idx.extend(repeat(s_i, len(chain)))
    return build_idx, probe_idx


def probe_page(
    table: HashIndex,
    store: ColumnStore,
    output: Relation,
    keys: Sequence[Any],
    page: Page,
    positions: Optional[List[int]] = None,
) -> int:
    """Probe one page's key column and emit matches columnar-ly.

    ``positions`` maps probe-key ordinals back to page slots when only a
    subset of the page was probed (hybrid's resident class); ``None``
    means the whole page in slot order.  Returns the match count.
    """
    chains = table.probe_batch(keys)
    build_idx, probe_idx = flatten_chains(chains)
    if not build_idx:
        return 0
    if positions is not None:
        probe_idx = [positions[i] for i in probe_idx]
    out_cols = gather_columns(store.columns, build_idx)
    out_cols.extend(gather_columns(page.columns, probe_idx))
    output.extend_columns(out_cols, len(build_idx))
    return len(build_idx)


def join_bucket_columnar(
    r_rows: List[Row],
    s_rows: List[Row],
    r_key_index: int,
    s_key_index: int,
    fudge: float,
    counters: OperationCounters,
    output: Relation,
) -> int:
    """Columnar twin of :func:`repro.join.parallel.join_bucket`.

    Same hash-table build and probe (hence identical charges), but the
    matched pairs are emitted by transposing the bucket rows once and
    group-gathering survivor columns instead of concatenating one tuple
    per match.  Returns the match count.
    """
    table = HashIndex(counters, max_load=fudge)
    table.insert_batch(
        (row[r_key_index], i) for i, row in enumerate(r_rows)
    )
    chains = table.probe_batch([row[s_key_index] for row in s_rows])
    build_idx, probe_idx = flatten_chains(chains)
    if not build_idx:
        return 0
    out_cols = gather_columns(list(zip(*r_rows)), build_idx)
    out_cols.extend(gather_columns(list(zip(*s_rows)), probe_idx))
    output.extend_columns(out_cols, len(build_idx))
    return len(build_idx)


__all__ = [
    "ColumnStore",
    "flatten_chains",
    "insert_page",
    "join_bucket_columnar",
    "probe_page",
]

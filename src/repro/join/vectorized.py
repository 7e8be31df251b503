"""Columnar (vectorized) join kernels -- the production arm's hot path.

A row-at-a-time hash join materialises every tuple twice: once when a
page's row view is built for the build/probe loops, and once more when
each match concatenates ``r_row + s_row``.  The kernels here never touch
a row tuple on the happy path.  The build side stages its rows into a
relation of its own (one buffer per column) and the hash table stores
**row indices** instead of row tuples; a probe yields parallel
build/probe index sequences, and both sides' survivor columns are
group-gathered straight into ``Relation.extend_columns``.

:class:`JoinTable` is that build side, built and probed with whole
columns: a phase takes its relation a block of pages at a time, sliced
out of the relation's column buffers (:func:`column_blocks`), so numpy's
fixed cost is paid per block and not per page.  The table forks by what
it observes: while every key column it is handed is a packed int64
buffer and numpy imports, it is a :class:`PackedHashTable` -- build keys
are only appended, one stable sort builds it, and a block's probe keys
are looked up at once.  The first key column of another kind (strings,
floats, a column demoted by one value that would not pack) trades it
for the chained
:class:`~repro.access.hash_index.HashIndex`, which is also the
specification arm's table and what the packed one is tested against.

Counter identity with the tuple-at-a-time specification arm is by
construction:

* A chained table's charges are a function of the *keys and their order
  alone* -- one hash + one move + one comparison per chain entry scanned
  per insert, one hash + one comparison per chain entry per probe.
  :meth:`~repro.access.hash_index.HashIndex.insert_batch` /
  :meth:`~repro.access.hash_index.HashIndex.probe_batch` earn them key by
  key; :class:`PackedHashTable` computes the same totals in closed form
  (see its docstring).  Storing an index where the specification stores
  a tuple changes no charge.
* Gathers and ``extend_columns`` are uncharged, exactly like the
  specification's uncharged ``emit`` output path.

The differential suite (tests/test_batch_equivalence.py,
tests/test_join_pipeline.py, tests/test_hash_kernel.py) asserts
byte-identical rows *and* ``OperationCounters`` between the specification
arm (``batch=False``) and the production arm for every algorithm.
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.access.hash_index import INITIAL_BUCKETS, HashIndex, growth_threshold
from repro.cost.counters import OperationCounters
from repro.join.base import JoinSpec
from repro.operators.columnar import gather_columns, group_rows, stable_argsort
from repro.storage import codecs
from repro.storage.codecs import Column, np, packed_view
from repro.storage.page import Page
from repro.storage.relation import Relation

#: Rows a join phase takes as one block of whole columns
#: (:func:`column_blocks`): large enough that numpy's fixed cost per call
#: is paid per phase and not per page, small enough that the staged
#: copies, and the work between two cancellation checks, do not grow
#: with ``|S|``.
PROBE_FLUSH_ROWS = 1 << 16


def column_blocks(relation: Relation) -> Iterator[Tuple[Page, List[int]]]:
    """``relation`` as whole columns, a block of consecutive pages at a
    time: yields ``(block, starts)`` -- a page holding slices of the
    relation's column buffers, as many whole pages as fit in
    :data:`PROBE_FLUSH_ROWS` rows (at least one), and the block row at
    which each page begins -- every page has its entry, so per-page
    checks keep their count."""
    per_page = relation.tuples_per_page
    step = max(1, PROBE_FLUSH_ROWS // per_page) * per_page
    count = relation.cardinality
    for start in range(0, count, step):
        stop = min(start + step, count)
        yield relation.block(start, stop), list(range(0, stop - start, per_page))


def take_rows(block: Page, positions: Sequence[int]) -> List[Column]:
    """The columns of ``block``'s rows at the ascending ``positions`` --
    the block's own buffers (do not mutate) when that is every row."""
    if len(positions) == len(block):
        return block.columns
    return gather_columns(block.columns, positions)


def _kernel_usable() -> bool:
    """Whether numpy imports and ``hash(int)`` is the 64-bit function
    :func:`int_hashes` computes."""
    return codecs.np is not None and sys.hash_info.width == 64


def int_hashes(keys: Any) -> Any:
    """``hash(k)`` of every ``k`` in an int64 array, exactly as CPython
    computes it: ``sign(k) * (|k| mod sys.hash_info.modulus)``, with -1
    (the C error value) mapped to -2."""
    modulus = sys.hash_info.modulus
    hashes = keys.copy()
    if len(keys) and (keys.min() <= -modulus or keys.max() >= modulus):
        negative = keys < 0
        # -(-2**63) wraps to itself, and its unsigned view is 2**63.
        reduced = (
            np.where(negative, -keys, keys).view(np.uint64) % np.uint64(modulus)
        ).astype(np.int64)
        hashes = np.where(negative, -reduced, reduced)
    hashes[hashes == -1] = -2
    return hashes


def _chain_places(buckets: Any) -> Tuple[Any, Any]:
    """Where each distinct key sits in a chained table.

    ``buckets[i]`` is the bucket of the ``i``-th distinct key in
    first-seen order.  Returns ``(ranks, order)``: ``ranks[i]`` counts
    the earlier keys sharing its bucket -- its position in the chain --
    and ``order`` lists the keys bucket by bucket, each chain in order:
    the sequence ``HashIndex.keys`` walks.
    """
    count = len(buckets)
    order = stable_argsort(buckets)
    ordered = buckets[order]
    head = np.zeros(count, dtype=bool)
    head[:1] = True
    head[1:] = ordered[1:] != ordered[:-1]
    place = np.arange(count)
    ranks = np.empty(count, dtype=np.intp)
    ranks[order] = place - np.maximum.accumulate(np.where(head, place, 0))
    return ranks, order


def _locate(uniq: Any, keys: Any) -> Tuple[Any, Any]:
    """Look ``keys`` up in the sorted distinct keys ``uniq``.

    Returns ``(runs, hit)``: ``hit`` marks the keys present and
    ``runs[hit]`` are their indices in ``uniq``.  Dense keys (a range no
    wider than a few slots per key involved) are addressed directly, in
    time linear in the keys; sparse ones by binary search.
    """
    low, high = int(uniq[0]), int(uniq[-1])
    if high - low <= 4 * (len(uniq) + len(keys)):
        slots = np.full(high - low + 1, -1, dtype=np.intp)
        slots[uniq - low] = np.arange(len(uniq))
        inside = (keys >= low) & (keys <= high)
        runs = slots[np.where(inside, keys, low) - low]
        return runs, inside & (runs >= 0)
    runs = np.minimum(np.searchsorted(uniq, keys), len(uniq) - 1)
    return runs, uniq[runs] == keys


def _run_rows(starts: Any, counts: Any) -> Any:
    """Offsets ``starts[i] .. starts[i] + counts[i] - 1`` for every ``i``,
    concatenated in order."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(
        ends[-1] if len(ends) else 0
    )


class PackedHashTable:
    """The chained table's matches and charges from packed int64 keys.

    Build keys are only appended (a build row's value is its append
    index); the table is built on first use by one stable sort and
    probed with whole key columns.  What :class:`HashIndex` would have
    charged for the same keys in the same order is computed in closed
    form, from one invariant: **a chain is always in first-insertion
    order of its distinct keys** -- a new key is appended to its chain,
    and doubling ``n -> 2n`` sends old bucket ``b``'s entries, in order,
    to ``b`` or ``b + n``.  Hence

    * an insert compares against *the earlier-first-seen distinct keys
      congruent to it modulo the bucket count then in force, plus one if
      the key is already present*;
    * the bucket count is a step function of the distinct keys so far
      (:func:`~repro.access.hash_index.growth_threshold`), which cuts the
      inserts into growth epochs; the chain positions of the keys present
      at the end of an epoch hold for every insert within it, so one
      grouped rank per epoch prices them all -- the epochs are
      geometric, about twice the distinct keys in total;
    * a probe compares position + 1 times on a hit and its bucket's
      whole chain on a miss, under the final bucket count.

    Charges are settled when the table is built, each insert once: keys
    appended after a build are priced by the next one.
    """

    def __init__(self, counters: OperationCounters, max_load: float) -> None:
        self.counters = counters
        self.max_load = max_load
        self._keys = array("q")
        #: Leading inserts whose charges are settled.
        self._charged = 0
        self._built: Optional[Tuple[Any, ...]] = None

    def __len__(self) -> int:
        return len(self._keys)

    def append(self, keys: array) -> None:
        """Insert ``keys``; key ``i`` of the table maps to value ``i``."""
        self._keys.extend(keys)
        self._built = None

    def settle(self) -> None:
        """Charge every insert not yet charged: a table nothing probes or
        dumps has still paid for its build."""
        self._build()

    def _build(self) -> Tuple[Any, ...]:
        """Sort the keys, settle the inserts' charges, lay out the chains."""
        if self._built is not None:
            return self._built
        keys = packed_view(self._keys)
        total = len(keys)
        order, starts, first_seen, gid, fresh = group_rows([keys])
        distinct = len(starts)
        uniq = keys[order[starts]]
        hashes = int_hashes(uniq[first_seen])

        # Growth epochs: epoch ``e`` has ``INITIAL_BUCKETS << e`` buckets
        # and lasts until the insert that brings the distinct keys to
        # ``ends[e]``; the last one holds every key.
        ends: List[int] = []
        grown = 0
        while True:
            grown = max(
                grown + 1,
                growth_threshold(INITIAL_BUCKETS << len(ends), self.max_load),
            )
            if grown > distinct:
                break
            ends.append(grown)
        # An epoch ends before the first insert that finds ``ends[e]``
        # distinct keys already in the table.
        bounds = (fresh.cumsum() - fresh).searchsorted(ends).tolist()
        ends.append(distinct)
        bounds.append(total)
        low = self._charged
        compares = (total - low) - int(fresh[low:].sum())  # repeats: + 1
        for epoch, high in enumerate(bounds):
            if low < high or high == total:
                mask = (INITIAL_BUCKETS << epoch) - 1
                chains = hashes[: ends[epoch]] & mask
                ranks, chain_order = _chain_places(chains)
                compares += int(ranks[gid[low:high]].sum())
                low = max(low, high)
        self.counters.hash_key(total - self._charged)
        self.counters.move_tuple(total - self._charged)
        self.counters.compare(compares)
        self._charged = total

        # Per run (sorted-key order): its rows, its key's chain position.
        counts = np.append(starts[1:], total) - starts
        run_ranks = np.empty(distinct, dtype=np.intp)
        run_ranks[first_seen] = ranks
        lengths = np.bincount(chains, minlength=mask + 1)
        self._built = (
            order, starts, counts, uniq, run_ranks, lengths, mask,
            first_seen[chain_order],
        )
        return self._built

    def probe(self, keys: Any) -> Tuple[Any, Any]:
        """Probe with the int64 array ``keys``; return parallel (build,
        probe) index arrays in the specification's match order: probe
        rows in input order, each row's matches in insertion order."""
        order, starts, counts, uniq, run_ranks, lengths, mask, _ = self._build()
        self.counters.hash_key(len(keys))
        if not len(uniq):
            return order, order
        runs, hit = _locate(uniq, keys)
        probe_idx = np.flatnonzero(hit)
        runs = runs[probe_idx]
        compares = int(run_ranks[runs].sum()) + len(runs)
        if len(runs) < len(keys):
            compares += int(lengths[int_hashes(keys[~hit]) & mask].sum())
        self.counters.compare(compares)
        if len(uniq) == len(order):  # unique build keys: a run is a row
            return order[runs], probe_idx
        matches = counts[runs]
        build_idx = order[_run_rows(starts[runs], matches)]
        return build_idx, np.repeat(probe_idx, matches)

    def values(self) -> Any:
        """Every value in the order :meth:`HashIndex.items` yields them:
        bucket by bucket, each chain in order, a key's values in
        insertion order."""
        order, starts, counts, _, _, _, _, chain_runs = self._build()
        return order[_run_rows(starts[chain_runs], counts[chain_runs])]


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


class JoinTable:
    """A hash join's memory-resident build side, and the probes against it.

    Holds R's resident rows column-wise (a relation of R's schema: its
    buffers keep packed keys packed and demote exactly like R's) under a
    hash table from join key to store index, built and probed with whole
    key columns.  While every key column it is handed is a packed int64
    buffer (and the kernel is usable) the table is a
    :class:`PackedHashTable`; the first column of another kind -- strings,
    floats, a demoted column -- trades it for the chained
    :class:`HashIndex` those keys would have built.  Rows out, their
    order and every charge are the same either way.
    """

    def __init__(self, spec: JoinSpec, counters: OperationCounters) -> None:
        self._counters = counters
        self._r_ki, self._s_ki = spec.r_key_index, spec.s_key_index
        self._store = Relation(spec.r.name, spec.r.schema, spec.r.page_bytes)
        self._packed = _kernel_usable()
        self._table: Any = (
            PackedHashTable(counters, spec.params.fudge)
            if self._packed
            else HashIndex(counters, max_load=spec.params.fudge)
        )

    def __len__(self) -> int:
        return len(self._store)

    def _keys(self, keys: Column) -> Column:
        """``keys`` as the table takes them, unpacking the table first if
        they are not a packed int64 buffer."""
        if self._packed and not (type(keys) is array and keys.typecode == "q"):
            # The inserts so far are settled; the chained table that
            # replays them is charged to a throwaway.
            self._table.settle()
            chained = HashIndex(max_load=self._table.max_load)
            stored = self._store.columns[self._r_ki]
            chained.insert_batch(zip(stored, range(len(stored))))
            chained.counters = self._counters
            self._table, self._packed = chained, False
        return keys

    def insert_columns(self, columns: Sequence[Column], count: int) -> None:
        """Build step for ``count`` rows of R given as whole columns.

        Charges what inserting ``(key, row)`` pairs charges -- the table
        stores the rows' store indices instead.
        """
        keys = self._keys(columns[self._r_ki])
        if self._packed:
            self._table.append(keys)
        else:
            base = len(self._store)
            self._table.insert_batch(zip(keys, range(base, base + count)))
        self._store.extend_columns(columns, count)

    def probe_columns(self, columns: Sequence[Column], output: Relation) -> None:
        """Probe step for rows of S given as whole columns: the matches
        go to ``output`` in probe order, each row's in insertion order."""
        keys = self._keys(columns[self._s_ki])
        if self._packed:
            build_idx, probe_idx = self._table.probe(packed_view(keys))
        else:
            build_idx, probe_idx = flatten_chains(self._table.probe_batch(keys))
        if len(build_idx):
            out_cols = gather_columns(self._store.columns, build_idx)
            out_cols.extend(gather_columns(columns, probe_idx))
            output.extend_columns(out_cols, len(build_idx))

    def settle(self) -> None:
        """Charge the inserts a packed table has not charged yet: call at
        the end of a probe phase, for a build nothing probed."""
        if self._packed:
            self._table.settle()

    def dump(self) -> Tuple[List[Column], int]:
        """The resident rows, as columns and their count, in the chained
        table's dump order (bucket, chain, insertion) -- what a demotion
        writes out and phase 2 re-reads, so the output row order depends
        on it."""
        if self._packed:
            order = self._table.values()
        else:
            order = [index for _, index in self._table.items()]
        return gather_columns(self._store.columns, order), len(order)


def join_bucket_columnar(
    r_bucket: Page,
    s_bucket: Page,
    spec: JoinSpec,
    counters: OperationCounters,
    output: Relation,
) -> None:
    """Build-and-probe one spilled bucket pair, read back as whole
    columns, into ``output``.

    Same hash-table build and probe as the specification arm's
    :class:`~repro.access.hash_index.HashIndex` loop (hence identical
    charges), and the matched pairs are group-gathered out of the
    buckets' columns instead of concatenating one tuple per match.
    """
    table = JoinTable(spec, counters)
    if len(r_bucket):
        table.insert_columns(r_bucket.columns, len(r_bucket))
    if len(s_bucket):
        table.probe_columns(s_bucket.columns, output)
    table.settle()


__all__ = [
    "JoinTable",
    "PROBE_FLUSH_ROWS",
    "PackedHashTable",
    "column_blocks",
    "flatten_chains",
    "int_hashes",
    "join_bucket_columnar",
    "take_rows",
]

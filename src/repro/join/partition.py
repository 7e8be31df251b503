"""Hash partitioning of relations -- Section 3.3 of the paper.

"A general way to create a partition of R compatible with h is to partition
the set of hash values X that h can assume into subsets X1..Xn" -- here the
hash-value space is the integers and the subsets are residue classes of a
salted hash, so partitioning R and S with the same function reduces the big
join to bucket-wise joins.

Spilled buckets stage through one output-buffer page each (that is where
the GRACE/hybrid fan-out limit ``B < |M|`` comes from), and flushing a
buffer is a *random* IO unless there is only one spill bucket -- the source
of the hybrid discontinuity in Figure 1.  The buffer is the open tail of
the bucket's file (:class:`~repro.storage.disk.DiskFile`, one buffer per
column): rows land there a run at a time, and the disk closes and charges
a page each time the tail fills one.

The partition function is defined once, per key (:func:`partition_hash`,
:func:`hybrid_class` -- what the specification arm calls), and computed a
second way over whole packed int64 key columns (:func:`hybrid_classes`,
:func:`partition_residues`): CPython's tuple hash is a fixed recurrence
over its items' hashes, so array arithmetic reproduces it bit for bit.
The array form is checked against the per-key one once per process and is
not used if they disagree; any other key column is classified key by key.
Either way :func:`scatter` groups the row positions by class and the
production arms spill column slices (:meth:`SpillWriter.write_columns`)
and read a bucket back as its file's buffers (:func:`read_bucket_columns`);
both arms write through the same file tail, so the files are the same
page for page.  Phase 2 -- read a bucket pair back, build R's bucket,
probe it with S's -- is one loop for GRACE and hybrid hash alike
(:func:`join_bucket_pairs`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.access.hash_index import HashIndex
from repro.cost.counters import OperationCounters
from repro.errors import ConfigurationError
from repro.join.base import JoinAlgorithm, JoinSpec
from repro.join.vectorized import (
    column_blocks,
    int_hashes,
    join_bucket_columnar,
    take_rows,
)
from repro.operators.columnar import int_key_views, stable_argsort
from repro.storage import codecs
from repro.storage.codecs import Column, np
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page
from repro.storage.relation import Relation, Row

#: Salt so partition hashing is independent of Python's string hashing and
#: of the bucket hashing inside HashIndex.
_PARTITION_SALT = 0x5DB5


def partition_hash(key: Any) -> int:
    """The shared partitioning function ``h`` (deterministic per run)."""
    return hash((_PARTITION_SALT, key))


#: Resolution of the hash-value space split between a resident class and
#: the spill buckets (Section 3.3: partition the set of hash values).
_HASH_SPACE = 1 << 20


def hybrid_class(key: Any, q: float, buckets: int, depth: int = 0) -> int:
    """Hybrid-hash class of ``key``: 0 = resident, 1..B = spill buckets.

    The hash is salted with ``depth`` so a recursive re-partition of an
    overflowing bucket actually splits it.
    """
    u = (partition_hash((depth, key)) % _HASH_SPACE) / _HASH_SPACE
    if u < q or buckets == 0:
        return 0
    return 1 + min(buckets - 1, int((u - q) / (1.0 - q) * buckets))


# -- the same functions over whole key columns ---------------------------------

#: The constants of CPython's tuple hash (``Objects/tupleobject.c``, an
#: xxHash-style recurrence over the items' hashes) and the value it
#: returns in place of -1, the C error code.
_P1, _P2, _P5 = 11400714785074694791, 14029467366897019727, 2870177450012600261
_MINUS_ONE = 1546275796
_MASK64 = (1 << 64) - 1


def _pair_hashes(first: int, lanes: Any) -> Any:
    """``hash((first, k))`` as uint64 bits for every ``k`` whose hash is
    in the uint64 array ``lanes``: per lane ``acc += lane * P2; acc =
    rotl(acc, 31); acc *= P1`` from ``P5``, then ``+ (len ^ P5 ^
    3527539)``.  The first lane is folded in Python integers, the second
    in wrapping array arithmetic."""
    acc = (_P5 + (hash(first) & _MASK64) * _P2) & _MASK64
    acc = ((acc << 31) | (acc >> 33)) & _MASK64
    acc = np.uint64(acc * _P1 & _MASK64) + lanes * np.uint64(_P2)
    acc = (acc << np.uint64(31)) | (acc >> np.uint64(33))
    acc *= np.uint64(_P1)
    acc += np.uint64(2 ^ _P5 ^ 3527539)
    acc[acc == np.uint64(_MASK64)] = _MINUS_ONE
    return acc


def _key_lanes(keys: Column) -> Optional[Any]:
    """The hashes of a packed int64 key column as uint64 lanes, or
    ``None`` when the per-key functions must classify it: another key
    kind, a demoted column, no numpy, a recurrence that failed its
    self-check."""
    views = int_key_views([keys])
    if views is None or not _recurrence_holds():
        return None
    return int_hashes(views[0]).view(np.uint64)


def _vector_classes(lanes: Any, q: float, buckets: int, depth: int) -> Any:
    hashes = _pair_hashes(_PARTITION_SALT, _pair_hashes(depth, lanes))
    # ``% 2**20`` of the signed hash is the low 20 bits of its
    # two's-complement value; the float steps are IEEE-identical.
    u = (hashes & np.uint64(_HASH_SPACE - 1)).astype(np.float64) / _HASH_SPACE
    classes = np.zeros(len(lanes), dtype=np.int64)
    if buckets:
        spilled = u >= q
        share = ((u[spilled] - q) / (1.0 - q) * buckets).astype(np.int64)
        classes[spilled] = 1 + np.minimum(buckets - 1, share)
    return classes


def _vector_residues(lanes: Any, classes: int) -> Any:
    return _pair_hashes(_PARTITION_SALT, lanes).view(np.int64) % classes


@lru_cache(maxsize=None)
def _recurrence_holds() -> bool:
    """Whether the array recurrence is this interpreter's tuple hash:
    compared once per process, on keys that reach every special case,
    with the per-key functions it stands for."""
    probe = [0, 1, -1, -2, 2**61 - 1, -(2**63), 0x3A5F_19C4_77D2_E86B]
    lanes = int_hashes(np.array(probe, dtype=np.int64)).view(np.uint64)
    return _vector_residues(lanes, 13).tolist() == [
        partition_hash(k) % 13 for k in probe
    ] and all(
        _vector_classes(lanes, q, buckets, depth).tolist()
        == [hybrid_class(k, q, buckets, depth) for k in probe]
        for q, buckets, depth in ((0.0, 1, 0), (0.3, 3, 1), (0.9, 64, 8))
    )


def hybrid_classes(keys: Column, q: float, buckets: int, depth: int = 0) -> Any:
    """:func:`hybrid_class` of every key of a column: an int64 array
    computed in array arithmetic for a packed int64 column, else a list
    computed key by key -- the same classes either way."""
    lanes = _key_lanes(keys)
    if lanes is None:
        return [hybrid_class(k, q, buckets, depth) for k in keys]
    return _vector_classes(lanes, q, buckets, depth)


def partition_residues(keys: Column, classes: int) -> Any:
    """``partition_hash(k) % classes`` of every key of a column (array or
    list, as :func:`hybrid_classes`)."""
    lanes = _key_lanes(keys)
    if lanes is None:
        return [partition_hash(k) % classes for k in keys]
    return _vector_residues(lanes, classes)


def scatter(classes: Any, count: int) -> List[Any]:
    """Group row positions by class: entry ``c`` of the result lists, in
    input order, the positions whose class is ``c`` (of ``count``
    classes) -- one stable sort, or one pass over a list without numpy."""
    if codecs.np is None:
        groups: List[List[int]] = [[] for _ in range(count)]
        for position, cls in enumerate(classes):
            groups[cls].append(position)
        return groups
    classes = np.asarray(classes, dtype=np.int64)
    ends = np.bincount(classes, minlength=count).cumsum()
    return np.split(stable_argsort(classes), ends[:-1])


def partition_fan_out(
    r_pages: int, memory_pages: int, fudge: float
) -> Tuple[int, float]:
    """The hybrid partition plan ``(B, q)`` of Section 3.7.

    ``B`` spill buckets plus an in-memory hash table for the resident
    bucket R0 covering fraction ``q`` of R.  ``B == 0`` when R fits.
    """
    table_pages = r_pages * fudge
    if table_pages <= memory_pages:
        return 0, 1.0
    if memory_pages < 2:
        raise ConfigurationError("partitioning needs at least two pages of memory")
    b = math.ceil((table_pages - memory_pages) / (memory_pages - 1))
    q = max(0.0, (memory_pages - b) / table_pages)
    return b, q


class SpillWriter:
    """Per-bucket output buffering with the paper's IO accounting.

    A bucket's output buffer is the open tail of its file: rows written
    one at a time (:meth:`write`) and whole column slices
    (:meth:`write_columns`) both land there, and the disk closes a page
    each time the tail fills one -- so both fill the same pages in the
    same order, and no page is built to hold them.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        file_names: Sequence[str],
        tuples_per_page: int,
        counters: OperationCounters,
    ) -> None:
        self.disk = disk
        self.file_names = list(file_names)
        self.tuples_per_page = tuples_per_page
        self.counters = counters
        # One spill bucket => the file grows contiguously (sequential);
        # many buckets => the disk head jumps between them (random).
        self._sequential = len(file_names) == 1
        for name in self.file_names:
            if disk.exists(name):
                disk.delete(name)
            disk.create(name)

    def write(self, bucket: int, row: Row) -> None:
        """Buffer ``row`` for ``bucket``, writing a full page to disk."""
        self.write_columns(bucket, [(value,) for value in row], 1)

    def write_columns(
        self, bucket: int, columns: Sequence[Column], count: int
    ) -> None:
        """Buffer ``count`` rows for ``bucket``, given as parallel column
        slices, with one bulk move charge.

        Page contents and per-file page order are identical to calling
        :meth:`write` per row; the IO classification is forced (single
        vs many buckets), so grouping rows per bucket cannot change the
        sequential/random tallies either.
        """
        self.counters.move_tuple(count)
        self.disk.append_rows(
            self.file_names[bucket], columns, count, self.tuples_per_page,
            sequential=self._sequential,
        )

    def close(self) -> List[str]:
        """Write every partial buffer; return the bucket file names."""
        for name in self.file_names:
            self.disk.close_tail(name, sequential=self._sequential)
        return self.file_names


def partition_relation(
    relation: Relation,
    key: Callable[[Row], Any],
    buckets: int,
    disk: SimulatedDisk,
    counters: OperationCounters,
    file_prefix: str,
    batch: bool = True,
    checkpoint: Optional[Callable[[], None]] = None,
    key_index: Optional[int] = None,
) -> List[str]:
    """Partition ``relation`` into ``buckets`` spill files by hash (GRACE
    phase 1; hybrid hash classifies with :func:`hybrid_classes` instead).

    Each tuple is charged one ``hash`` and one ``move`` into the output
    buffer (inside :class:`SpillWriter`).  Returns the spill file names.

    The default ``batch`` path takes the relation a block of pages at a
    time (:func:`~repro.join.vectorized.column_blocks`): it classifies the
    block's whole key column, groups row positions by residue with one
    stable sort and hands each bucket one gathered column slice --
    identical files and charges.

    ``checkpoint`` (the governor's cooperative cancellation hook) is
    called once per input page in both execution modes, before a block
    writes anything, so a cancelled or timed-out query stops partitioning
    within one block of work.

    ``key_index`` (batch path only) names the join-key column position:
    keys are then the block's column buffer instead of ``key`` called
    once per row.  Key extraction is uncharged in both forms, so the
    counters cannot differ.
    """
    if buckets < 1:
        raise ConfigurationError("partitioning into %d buckets" % buckets)
    names = ["%s.%d" % (file_prefix, i) for i in range(buckets)]
    # A cancelled partition leaves its open files on the join's scratch
    # disk, which dies with the statement, as hybrid hash's writers do;
    # closing them on the way out would charge flushes nothing reads.
    # repro-lint: disable=resource-lifecycle
    writer = SpillWriter(disk, names, relation.tuples_per_page, counters)

    if batch:
        for block, starts in column_blocks(relation):
            if checkpoint is not None:
                for _ in starts:
                    checkpoint()
            if not len(block):
                continue
            counters.hash_key(len(block))
            keys = (
                block.column(key_index)
                if key_index is not None
                else [key(row) for row in block.tuples]
            )
            groups = scatter(partition_residues(keys, buckets), buckets)
            for bucket, positions in enumerate(groups):
                if len(positions):
                    writer.write_columns(
                        bucket, take_rows(block, positions), len(positions)
                    )
        return writer.close()

    tpp = max(1, relation.tuples_per_page)
    for i, row in enumerate(relation):
        if checkpoint is not None and i % tpp == 0:
            checkpoint()
        counters.hash_key()
        writer.write(partition_hash(key(row)) % buckets, row)
    return writer.close()


def read_bucket(
    disk: SimulatedDisk, file_name: str
) -> List[Row]:
    """Read a spilled bucket back (sequential IO, charged via the disk)."""
    return list(disk.read_file(file_name).tuples)


def read_bucket_columns(disk: SimulatedDisk, file_name: str) -> Page:
    """Read a spilled bucket back as the file's own column buffers -- the
    same IO as :func:`read_bucket`, no row tuple and no copy (do not
    mutate).  An empty bucket has no columns."""
    return disk.read_file(file_name)


def join_bucket_pairs(
    join: JoinAlgorithm,
    spec: JoinSpec,
    pairs: Iterable[Tuple[str, str]],
    output: Relation,
    split: Optional[Callable[[Page, Page], bool]] = None,
) -> None:
    """Phase 2 of GRACE and hybrid hash: join every spilled bucket pair.

    Per pair: one cancellation check, both files read back whole and
    deleted, then ``split`` (hybrid's Section 3.3 recursion; GRACE has
    none) may take the pair over by returning true.  Otherwise R's
    bucket becomes a hash table that S's bucket probes -- the production
    arm on whole columns (:func:`~repro.join.vectorized.join_bucket_columnar`),
    the specification arm row by row (:func:`_join_bucket_rows`), with the
    same charges and the same rows in the same order.
    """
    for r_file, s_file in pairs:
        join.checkpoint()
        r_bucket = read_bucket_columns(join.disk, r_file)
        s_bucket = read_bucket_columns(join.disk, s_file)
        join.disk.delete(r_file)
        join.disk.delete(s_file)
        if split is not None and split(r_bucket, s_bucket):
            continue
        if join.batch:
            join_bucket_columnar(r_bucket, s_bucket, spec, join.counters, output)
        else:
            _join_bucket_rows(r_bucket, s_bucket, spec, join, output)


def _join_bucket_rows(
    r_bucket: Page,
    s_bucket: Page,
    spec: JoinSpec,
    join: JoinAlgorithm,
    output: Relation,
) -> None:
    """The specification arm's build-and-probe of one bucket pair: a
    :class:`~repro.access.hash_index.HashIndex` of R's rows, probed a row
    of S at a time (``probe`` charges the hash and the comparisons)."""
    table = HashIndex(join.counters, max_load=spec.params.fudge)
    r_key, s_key = spec.r_key, spec.s_key
    for row in r_bucket.tuples:
        table.insert(r_key(row), row)
    for row in s_bucket.tuples:
        for r_row in table.probe(s_key(row)):
            join.emit(output, r_row, row)


__all__ = [
    "SpillWriter",
    "hybrid_class",
    "hybrid_classes",
    "join_bucket_pairs",
    "partition_fan_out",
    "partition_hash",
    "partition_relation",
    "partition_residues",
    "read_bucket",
    "read_bucket_columns",
    "scatter",
]

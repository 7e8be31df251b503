"""Hash partitioning of relations -- Section 3.3 of the paper.

"A general way to create a partition of R compatible with h is to partition
the set of hash values X that h can assume into subsets X1..Xn" -- here the
hash-value space is the integers and the subsets are residue classes of a
salted hash, so partitioning R and S with the same function reduces the big
join to bucket-wise joins.

Spilled buckets stage through one output-buffer page each (that is where
the GRACE/hybrid fan-out limit ``B < |M|`` comes from), and flushing a
buffer is a *random* IO unless there is only one spill bucket -- the source
of the hybrid discontinuity in Figure 1.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.cost.counters import OperationCounters
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page
from repro.storage.relation import Relation, Row
from repro.errors import ConfigurationError

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
    """Per-bucket output buffering with the paper's IO accounting."""

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
        self._buffers: List[List[Row]] = [[] for _ in file_names]
        self._single_bucket = len(file_names) == 1
        for name in self.file_names:
            if disk.exists(name):
                disk.delete(name)
            disk.create(name)

    def write(self, bucket: int, row: Row) -> None:
        """Buffer ``row`` for ``bucket``, flushing a full page to disk."""
        self.counters.move_tuple()
        buf = self._buffers[bucket]
        buf.append(row)
        if len(buf) >= self.tuples_per_page:
            self._flush(bucket)

    def write_many(self, bucket: int, rows: Sequence[Row]) -> None:
        """Buffer many rows for ``bucket`` with one bulk move charge.

        Page contents and per-file page order are identical to calling
        :meth:`write` per row; flush IO classification is forced (single
        vs many buckets), so grouping rows per bucket cannot change the
        sequential/random tallies either.
        """
        if not rows:
            return
        self.counters.move_tuple(len(rows))
        buf = self._buffers[bucket]
        buf.extend(rows)
        tpp = self.tuples_per_page
        while len(buf) >= tpp:
            page = Page(0, tpp)
            page.extend_rows(buf[:tpp])
            self.disk.append(
                self.file_names[bucket], page, sequential=self._single_bucket
            )
            del buf[:tpp]

    def _flush(self, bucket: int) -> None:
        buf = self._buffers[bucket]
        if not buf:
            return
        page = Page(0, self.tuples_per_page)
        for row in buf:
            page.add(row)
        # One spill bucket => the file grows contiguously (sequential);
        # many buckets => the disk head jumps between them (random).
        self.disk.append(
            self.file_names[bucket], page, sequential=self._single_bucket
        )
        buf.clear()

    def close(self) -> List[str]:
        """Flush every partial buffer; return the bucket file names."""
        for bucket in range(len(self._buffers)):
            self._flush(bucket)
        return self.file_names


def partition_relation(
    relation: Relation,
    key: Callable[[Row], Any],
    buckets: int,
    disk: SimulatedDisk,
    counters: OperationCounters,
    file_prefix: str,
    resident_bucket: bool = False,
    on_resident: Optional[Callable[[Any, Row], None]] = None,
    batch: bool = True,
    checkpoint: Optional[Callable[[], None]] = None,
    key_index: Optional[int] = None,
) -> List[str]:
    """Partition ``relation`` into ``buckets`` spill files by hash.

    With ``resident_bucket=True`` (hybrid hash), tuples whose hash lands on
    residue 0 are *not* spilled: they are handed to ``on_resident`` (which
    builds the in-memory hash table for R0 or probes it for S0) and the
    remaining residues map to the ``buckets`` spill files.

    Each tuple is charged one ``hash``; spilled tuples additionally charge
    one ``move`` into the output buffer (inside :class:`SpillWriter`).
    Returns the spill file names (empty when everything stayed resident).

    The default ``batch`` path walks pages, charges hashes in bulk, and
    groups spill writes per bucket per page -- identical files, charges,
    and resident-callback order.

    ``checkpoint`` (the governor's cooperative cancellation hook) is
    called once per input page in both execution modes, so a cancelled or
    timed-out query stops partitioning within one page of work.

    ``key_index`` (batch path only) names the join-key column position:
    keys are then read straight off each page's packed column buffer
    instead of calling ``key`` once per row.  Key extraction is uncharged
    in both forms, so the counters cannot differ.
    """
    if buckets < 0:
        raise ConfigurationError("bucket count cannot be negative")
    total_classes = buckets + (1 if resident_bucket else 0)
    if total_classes == 0:
        raise ConfigurationError("partitioning into zero classes")

    writer: Optional[SpillWriter] = None
    if buckets > 0:
        names = ["%s.%d" % (file_prefix, i) for i in range(buckets)]
        writer = SpillWriter(disk, names, relation.tuples_per_page, counters)

    if batch:
        for page in relation.pages:
            if checkpoint is not None:
                checkpoint()
            rows = page.tuples
            if not rows:
                continue
            counters.hash_key(len(rows))
            keys = (
                page.column(key_index)
                if key_index is not None
                else [key(row) for row in rows]
            )
            residues = [partition_hash(k) % total_classes for k in keys]
            if writer is None:
                assert on_resident is not None, "resident bucket needs a consumer"
                for k, row in zip(keys, rows):
                    on_resident(k, row)
                continue
            pending: List[List[Row]] = [[] for _ in range(buckets)]
            if resident_bucket:
                for k, row, residue in zip(keys, rows, residues):
                    if residue == 0:
                        assert on_resident is not None
                        on_resident(k, row)
                    else:
                        pending[residue - 1].append(row)
            else:
                for row, residue in zip(rows, residues):
                    pending[residue].append(row)
            for b, bucket_rows in enumerate(pending):
                writer.write_many(b, bucket_rows)
        return writer.close() if writer is not None else []

    tpp = max(1, relation.tuples_per_page)
    for i, row in enumerate(relation):
        if checkpoint is not None and i % tpp == 0:
            checkpoint()
        counters.hash_key()
        residue = partition_hash(key(row)) % total_classes
        if resident_bucket and residue == 0:
            assert on_resident is not None, "resident bucket needs a consumer"
            on_resident(key(row), row)
        else:
            assert writer is not None
            writer.write(residue - (1 if resident_bucket else 0), row)

    return writer.close() if writer is not None else []


def read_bucket(
    disk: SimulatedDisk, file_name: str
) -> List[Row]:
    """Read a spilled bucket back (sequential IO, charged via the disk)."""
    rows: List[Row] = []
    for page in disk.scan(file_name):
        rows.extend(page.tuples)
    return rows


__all__ = [
    "SpillWriter",
    "hybrid_class",
    "partition_fan_out",
    "partition_hash",
    "partition_relation",
    "read_bucket",
]

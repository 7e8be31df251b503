"""Log records and their byte sizing.

Section 5.1 sizes a "typical" transaction at 400 bytes of log: 40 bytes of
begin/end records and 360 bytes of old/new values, which at one 4096-byte
page per 10 ms write yields the paper's throughput arithmetic (ten such
transactions fit a log page).  :class:`RecordSizing` captures those numbers
so benchmarks can vary them.

An :class:`UpdateRecord` carries both the old and the new value; Section
5.4's compression drops the old value ("only needed if the transaction must
be undone") once the transaction is known committed, roughly halving the
disk log -- :meth:`UpdateRecord.compressed_size` is that saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class RecordSizing:
    """Byte sizes used when packing records into log pages."""

    begin_bytes: int = 20
    commit_bytes: int = 20
    abort_bytes: int = 20
    update_overhead_bytes: int = 24  # LSN, tid, record id, lengths
    value_bytes: int = 60            # one before- or after-image
    page_bytes: int = 4096

    @property
    def update_bytes(self) -> int:
        """A full old+new update record."""
        return self.update_overhead_bytes + 2 * self.value_bytes

    @property
    def compressed_update_bytes(self) -> int:
        """An update record with the old value stripped (Section 5.4)."""
        return self.update_overhead_bytes + self.value_bytes

    def typical_transaction_bytes(self, updates: int = 3) -> int:
        """Paper's ballpark: begin + end + ``updates`` old/new images.

        With the defaults, three updates come to 472 bytes -- the paper
        rounds to "400 bytes".
        """
        return self.begin_bytes + self.commit_bytes + updates * self.update_bytes


#: Module-default sizing (the paper's Table in prose).
DEFAULT_SIZING = RecordSizing()


@dataclass
class LogRecord:
    """Base log record; ``lsn`` is assigned by the log manager."""

    tid: int
    lsn: int = field(default=-1, compare=False)

    def size(self, sizing: RecordSizing) -> int:
        raise NotImplementedError


@dataclass
class BeginRecord(LogRecord):
    def size(self, sizing: RecordSizing) -> int:
        return sizing.begin_bytes


@dataclass
class CommitRecord(LogRecord):
    def size(self, sizing: RecordSizing) -> int:
        return sizing.commit_bytes


@dataclass
class AbortRecord(LogRecord):
    def size(self, sizing: RecordSizing) -> int:
        return sizing.abort_bytes


@dataclass
class UpdateRecord(LogRecord):
    """Before/after image of one record update."""

    record_id: int = 0
    old_value: Any = None
    new_value: Any = None

    def size(self, sizing: RecordSizing) -> int:
        return sizing.update_bytes

    def compressed_size(self, sizing: RecordSizing) -> int:
        return sizing.compressed_update_bytes


@dataclass(frozen=True)
class GroupEncoding:
    """The byte layout of one sealed commit group, computed in one pass.

    ``disk_bytes`` is what actually goes to the log device: update records
    of transactions in the compressible set are charged at the Section 5.4
    new-value-only size, everything else at full size.  ``full_bytes`` is
    the uncompressed total, so ``full_bytes - disk_bytes`` is the bandwidth
    the compression fast path saved for this group.
    """

    records: int
    full_bytes: int
    disk_bytes: int
    compressed_records: int


def encode_group(
    records: Sequence[LogRecord],
    sizing: RecordSizing = DEFAULT_SIZING,
    compressible_tids: Optional[Set[int]] = None,
) -> GroupEncoding:
    """Size a whole sealed group in one pass (the batch fast path).

    The record-at-a-time drain used to re-derive each record's disk size on
    every poke; this encodes the group once, with the per-record-type sizes
    hoisted out of the loop.  ``compressible_tids`` names the transactions
    whose old values may be dropped (durably committed under the
    stable-memory policy); ``None`` disables compression entirely.
    """
    update_bytes = sizing.update_bytes
    compressed_bytes = sizing.compressed_update_bytes
    full = 0
    disk = 0
    compressed = 0
    for record in records:
        size = record.size(sizing)
        full += size
        if (
            compressible_tids is not None
            and size == update_bytes
            and isinstance(record, UpdateRecord)
            and record.tid in compressible_tids
        ):
            disk += compressed_bytes
            compressed += 1
        else:
            disk += size
    return GroupEncoding(
        records=len(records),
        full_bytes=full,
        disk_bytes=disk,
        compressed_records=compressed,
    )


def pack_pages(
    records: Iterable[LogRecord],
    sizing: RecordSizing = DEFAULT_SIZING,
    compressible_tids: Optional[Set[int]] = None,
) -> Iterator[Tuple[List[LogRecord], int, bool]]:
    """Split ``records`` into page-sized runs, greedily, in one pass.

    Yields ``(page_records, page_disk_bytes, closed)`` tuples where
    ``closed`` is True when the page was ended by overflow (a further
    record exists) rather than by input exhaustion -- the drain uses it to
    decide whether a trailing partial page should wait for more traffic.
    """
    update_bytes = sizing.update_bytes
    compressed_bytes = sizing.compressed_update_bytes
    page_bytes = sizing.page_bytes

    def generate():
        page: list = []
        used = 0
        for record in records:
            size = record.size(sizing)
            if (
                compressible_tids is not None
                and size == update_bytes
                and isinstance(record, UpdateRecord)
                and record.tid in compressible_tids
            ):
                size = compressed_bytes
            if page and used + size > page_bytes:
                yield page, used, True
                page, used = [], 0
            page.append(record)
            used += size
        if page:
            yield page, used, False

    return generate()


__all__ = [
    "AbortRecord",
    "BeginRecord",
    "CommitRecord",
    "DEFAULT_SIZING",
    "GroupEncoding",
    "LogRecord",
    "RecordSizing",
    "UpdateRecord",
    "encode_group",
    "pack_pages",
]

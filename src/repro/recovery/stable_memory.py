"""Battery-backed stable memory -- Section 5.4.

A small region of main memory that survives crashes (the paper proposes
CMOS with battery back-up, "too expensive to be used for all of real
memory").  Two users:

* the **stable log tail**: transactions commit the moment their commit
  record lands here, and pages drain to the disk log in the background;
* the **dirty page table** (Section 5.5) recording, per updated page, the
  LSN of the first update since its last checkpoint -- the table's minimum
  bounds where redo must start.

The region enforces its byte budget: exceeding it raises, because sizing
the stable region is exactly the design constraint the paper discusses
("if enough space can be set aside to accommodate the logs of all active
transactions, then only new values of committed transactions are ever
written to disk").
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional

from repro.recovery.records import LogRecord, RecordSizing, DEFAULT_SIZING
from repro.errors import ConfigurationError, StateError


class StableMemoryFullError(StateError):
    """The stable region's byte budget is exhausted."""


class StableMemory:
    """A crash-surviving byte-budgeted region."""

    def __init__(self, capacity_bytes: int = 256 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("stable memory needs a positive capacity")
        self.capacity_bytes = capacity_bytes
        self._log_bytes = 0
        self._records: List[LogRecord] = []
        #: page id -> LSN of first update since the page's last checkpoint.
        self._dirty_first_lsn: Dict[int, int] = {}
        #: Optional chaos hook fired after each append.  Stable appends
        #: change durable state *synchronously* (no event is involved), so
        #: without this seam a crash-point sweep could never land between
        #: an update reaching stable memory and its commit record.
        self.on_append: Optional[Callable[[LogRecord], None]] = None

    # -- capacity -------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        # The dirty-page table is charged 16 bytes per entry (page id +
        # LSN), a realistic footprint for the Section 5.5 table.
        return self._log_bytes + 16 * len(self._dirty_first_lsn)

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    # -- stable log tail ---------------------------------------------------------

    def append_record(
        self, record: LogRecord, sizing: RecordSizing = DEFAULT_SIZING
    ) -> None:
        """Hold ``record`` stably until the drain writes it to disk."""
        size = record.size(sizing)
        if self.used_bytes + size > self.capacity_bytes:
            raise StableMemoryFullError(
                "stable memory full: %d used + %d requested > %d capacity"
                % (self.used_bytes, size, self.capacity_bytes)
            )
        self._records.append(record)
        self._log_bytes += size
        if self.on_append is not None:
            self.on_append(record)

    def pending_records(self) -> List[LogRecord]:
        """Records not yet drained, oldest first (crash-surviving)."""
        return list(self._records)

    def iter_pending(self, start: int = 0) -> Iterator[LogRecord]:
        """Iterate records from index ``start``, oldest first, without
        materialising a copy -- the drain's batch fast path.  The caller
        must not append or release while iterating."""
        return islice(self._records, start, None)

    def release_records(
        self, count: int, sizing: RecordSizing = DEFAULT_SIZING
    ) -> List[LogRecord]:
        """Drop the oldest ``count`` records once durable on disk."""
        if count > len(self._records):
            raise ConfigurationError("releasing more records than are held")
        released = self._records[:count]
        del self._records[:count]
        self._log_bytes -= sum(r.size(sizing) for r in released)
        return released

    # -- dirty page table (Section 5.5) ------------------------------------------

    def note_page_update(self, page_id: int, lsn: int) -> None:
        """Record the first update to ``page_id`` since its checkpoint."""
        self._dirty_first_lsn.setdefault(page_id, lsn)

    def clear_page(self, page_id: int) -> None:
        """The page was checkpointed: reset its update status."""
        self._dirty_first_lsn.pop(page_id, None)

    def redo_start_lsn(self) -> Optional[int]:
        """"The oldest entry in the table determines the point in the log
        from which recovery should commence." ``None`` = nothing dirty."""
        if not self._dirty_first_lsn:
            return None
        return min(self._dirty_first_lsn.values())

    def dirty_entries(self) -> Dict[int, int]:
        return dict(self._dirty_first_lsn)

    def __repr__(self) -> str:
        return "StableMemory(%d/%d bytes, %d records, %d dirty pages)" % (
            self.used_bytes,
            self.capacity_bytes,
            len(self._records),
            len(self._dirty_first_lsn),
        )


__all__ = ["StableMemory", "StableMemoryFullError"]

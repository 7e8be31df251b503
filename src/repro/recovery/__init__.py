"""Recovery for memory-resident databases -- Section 5 of the paper.

The package implements the paper's full recovery stack over the simulated
clock/event queue:

* :mod:`repro.recovery.records` -- begin/update/commit/abort log records
  with the paper's byte sizing (a "typical" transaction logs ~400 bytes).
* :mod:`repro.recovery.log_device` -- a log disk writing 4 KB pages in
  10 ms, plus multi-device partitioned logs.
* :mod:`repro.recovery.log_manager` -- the three commit disciplines:
  conventional WAL (force the log per commit), **group commit** with
  pre-committed transactions, and **stable memory** (battery-backed log
  tail, optional new-value-only compression).
* :mod:`repro.recovery.lock_table` -- locks extended with the paper's
  third set: pre-committed holders, feeding commit-dependency tracking.
* :mod:`repro.recovery.state` -- the memory-resident database image with
  page LSNs, its disk snapshot, and the stable dirty-page table.
* :mod:`repro.recovery.transactions` -- the transaction engine tying the
  above together.
* :mod:`repro.recovery.checkpoint` -- the fuzzy background checkpointer.
* :mod:`repro.recovery.restart` -- crash simulation and restart recovery
  (snapshot reload, undo losers, redo winners from the dirty-page bound).
"""

from repro.recovery.checkpoint import Checkpointer
from repro.recovery.lock_table import LockMode, LockTable
from repro.recovery.log_device import LogDevice, PartitionedLog
from repro.recovery.log_manager import CommitPolicy, LogManager
from repro.recovery.parallel_restart import parallel_redo
from repro.recovery.records import (
    AbortRecord,
    BeginRecord,
    CommitRecord,
    LogRecord,
    RecordSizing,
    UpdateRecord,
    pack_pages,
)
from repro.recovery.restart import (
    CrashState,
    RecoveryError,
    RecoveryOutcome,
    crash,
    recover,
)
from repro.recovery.stable_memory import StableMemory
from repro.recovery.state import DatabaseState, DiskSnapshot, DirtyPageTable
from repro.recovery.transactions import (
    Transaction,
    TransactionEngine,
    TransactionState,
)
from repro.recovery.versioning import SnapshotView, VersionManager

__all__ = [
    "AbortRecord",
    "BeginRecord",
    "Checkpointer",
    "CommitPolicy",
    "CommitRecord",
    "CrashState",
    "DatabaseState",
    "DirtyPageTable",
    "DiskSnapshot",
    "LockMode",
    "LockTable",
    "LogDevice",
    "LogManager",
    "LogRecord",
    "PartitionedLog",
    "RecordSizing",
    "RecoveryError",
    "RecoveryOutcome",
    "SnapshotView",
    "StableMemory",
    "Transaction",
    "TransactionEngine",
    "TransactionState",
    "UpdateRecord",
    "VersionManager",
    "crash",
    "pack_pages",
    "parallel_redo",
    "recover",
]

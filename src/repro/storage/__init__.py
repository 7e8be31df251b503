"""Storage substrate: tuples, pages, relations, simulated disk, buffering.

The paper assumes a conventional paged storage engine under its algorithms;
this package supplies one.  Data lives in :class:`~repro.storage.relation.
Relation` objects (heaps of fixed-width tuples held as one buffer per
column, whose pages are arithmetic), spills go to append-only files on a
:class:`~repro.storage.disk.SimulatedDisk` that charges sequential/random IO
to operation counters, the :class:`~repro.storage.catalog.Catalog` keeps
each column's distinct count, minimum and maximum for the planner, and
partially-resident structures are exercised with
:class:`~repro.storage.buffer.BufferPool` (random replacement, as assumed by
the Section 2 fault model, plus LRU/FIFO for comparison).
"""

from repro.storage.buffer import BufferPool, ReplacementPolicy
from repro.storage.catalog import Catalog, RelationStats
from repro.storage.disk import DiskFile, SimulatedDisk
from repro.storage.page import Page
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema, make_schema

__all__ = [
    "BufferPool",
    "Catalog",
    "DataType",
    "DiskFile",
    "Field",
    "Page",
    "Relation",
    "RelationStats",
    "ReplacementPolicy",
    "Schema",
    "SimulatedDisk",
    "make_schema",
]

"""Shared machinery for the executable join algorithms.

A join is configured once as a :class:`JoinSpec` (inputs, join columns,
memory grant) and executed by a :class:`JoinAlgorithm`, producing a
:class:`JoinResult` that bundles the output relation with the costed
operation counters.

Conventions, following Section 3.2 of the paper:

* R is the build (smaller) relation.  If the caller passes them the other
  way around the spec swaps internally but the output schema always lists
  R's columns before S's, prefixed ``r_`` / ``s_`` on name clashes.
* The initial scan of both inputs and the write of the result are **not**
  charged -- they are identical for every algorithm and the paper excludes
  them from its formulas.
* The memory grant is in pages; a structure of ``n`` tuples occupies
  ``n / tuples_per_page * F`` pages.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.cost.counters import CostReport, OperationCounters
from repro.cost.parameters import CostParameters
from repro.errors import ConfigurationError
from repro.storage.disk import SimulatedDisk
from repro.storage.relation import Relation, Row
from repro.storage.tuples import Schema


def join_schema(r: Relation, s: Relation) -> Schema:
    """Result schema: R's fields then S's, prefixed only on name clashes."""
    clash = set(r.schema.names) & set(s.schema.names)
    if clash:
        return r.schema.concat(s.schema, prefix_self="r_", prefix_other="s_")
    return r.schema.concat(s.schema)


@dataclass
class JoinSpec:
    """One join problem: inputs, join columns, and the memory grant."""

    r: Relation
    s: Relation
    r_field: str
    s_field: str
    memory_pages: int
    params: CostParameters = field(default_factory=CostParameters)

    def __post_init__(self) -> None:
        if self.memory_pages < 2:
            raise ConfigurationError("a join needs at least two pages of memory")
        if not self.r.schema.has_field(self.r_field):
            raise KeyError("R has no field %r" % self.r_field)
        if not self.s.schema.has_field(self.s_field):
            raise KeyError("S has no field %r" % self.s_field)
        # The paper assumes |R| <= |S|: R is the build side.  Swap if the
        # caller got it backwards; the result schema is fixed afterwards.
        if self.r.page_count > self.s.page_count:
            self.r, self.s = self.s, self.r
            self.r_field, self.s_field = self.s_field, self.r_field

    @property
    def r_key(self) -> Callable[[Row], Any]:
        return self.r.key_of(self.r_field)

    @property
    def s_key(self) -> Callable[[Row], Any]:
        return self.s.key_of(self.s_field)

    @property
    def r_key_index(self) -> int:
        """Column position of the R join key (for packed-column scans)."""
        return self.r.schema.index_of(self.r_field)

    @property
    def s_key_index(self) -> int:
        """Column position of the S join key (for packed-column scans)."""
        return self.s.schema.index_of(self.s_field)

    def table_pages(self, tuples: int, tuples_per_page: int) -> float:
        """Pages a hash/sort structure of ``tuples`` tuples occupies."""
        return tuples / tuples_per_page * self.params.fudge

    def memory_tuples(self, tuples_per_page: int) -> int:
        """``{M}`` -- tuples whose structure fits in the memory grant."""
        return max(1, int(self.memory_pages * tuples_per_page / self.params.fudge))

    def r_fits_in_memory(self) -> bool:
        """``|R| * F <= |M|`` -- whether R's hash table fits outright."""
        return self.r.page_count * self.params.fudge <= self.memory_pages


@dataclass
class JoinResult:
    """The output relation plus the costed instrumentation."""

    relation: Relation
    counters: OperationCounters
    params: CostParameters
    algorithm: str

    @property
    def cardinality(self) -> int:
        return self.relation.cardinality

    def report(self) -> CostReport:
        return self.counters.report(self.params, label=self.algorithm)

    @property
    def modelled_seconds(self) -> float:
        return self.counters.cost(self.params)


class JoinAlgorithm(abc.ABC):
    """Base class: owns the counters, disk, and output plumbing."""

    name = "join"

    def __init__(
        self,
        counters: Optional[OperationCounters] = None,
        disk: Optional[SimulatedDisk] = None,
        batch: bool = True,
    ) -> None:
        self.counters = counters if counters is not None else OperationCounters()
        # Spills share the counters so IO lands in the same report.
        self.disk = disk if disk is not None else SimulatedDisk(self.counters)
        #: The production arm: page-at-a-time execution with bulk counter
        #: charging over the packed column buffers -- hash tables store row
        #: indices into a column staging area and matches are
        #: group-gathered buffer-to-buffer (see :mod:`repro.join.vectorized`).
        #: ``batch=False`` selects the tuple-at-a-time specification;
        #: results and counters are identical either way (see
        #: tests/test_batch_equivalence.py).
        self.batch = batch
        #: Optional :class:`repro.governor.QueryGuard` -- cancellation
        #: checkpoints and the revocable memory grant.  ``None`` (the
        #: default) costs one attribute test per page boundary.
        self.guard = None
        # Bound token.check, cached by set_guard so a checkpoint is one
        # attribute test + one call instead of a three-deep method chain.
        self._token_check = None

    def set_guard(self, guard) -> "JoinAlgorithm":
        """Attach a governor guard for this execution; returns self."""
        self.guard = guard
        self._token_check = None if guard is None else guard.token.check
        return self

    def checkpoint(self) -> None:
        """Cooperative cancellation point -- call once per page of work."""
        if self._token_check is not None:
            self._token_check()

    def effective_memory_pages(self, requested: int) -> int:
        """The memory grant's current view of a ``requested``-page budget."""
        if self.guard is not None:
            return self.guard.effective_pages(requested)
        return requested

    def join(self, spec: JoinSpec) -> JoinResult:
        """Execute the join and return the materialised result."""
        schema = join_schema(spec.r, spec.s)
        output = Relation(
            "%s(%s,%s)" % (self.name, spec.r.name, spec.s.name),
            schema,
            page_bytes=max(spec.r.page_bytes, schema.tuple_bytes),
        )
        self._execute(spec, output)
        return JoinResult(
            relation=output,
            counters=self.counters.snapshot(),
            params=spec.params,
            algorithm=self.name,
        )

    @abc.abstractmethod
    def _execute(self, spec: JoinSpec, output: Relation) -> None:
        """Algorithm body: emit matches into ``output``."""

    # -- shared helpers ----------------------------------------------------------

    def emit(self, output: Relation, r_row: Row, s_row: Row) -> None:
        """Materialise one matched pair (not charged, per the paper)."""
        output.insert_unchecked(r_row + s_row)

    def charge_heap_op(self, heap_size: int) -> None:
        """Priority-queue insert/replace: ~log2(n) comparisons and swaps."""
        levels = max(1, math.ceil(math.log2(heap_size + 1)))
        self.counters.compare(levels)
        self.counters.swap_tuples(levels)

    def scratch_name(self, spec: JoinSpec, tag: str) -> str:
        """A disk file name unique to this join and ``tag``."""
        return "%s:%s+%s:%s" % (self.name, spec.r.name, spec.s.name, tag)


__all__ = ["JoinAlgorithm", "JoinResult", "JoinSpec", "join_schema"]

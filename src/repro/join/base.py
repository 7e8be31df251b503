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
from typing import Any, Callable, List, Optional, Tuple

from repro.cost.counters import CostReport, OperationCounters
from repro.cost.parameters import CostParameters
from repro.errors import ConfigurationError, WorkerPoolError
from repro.join.parallel import (
    OK_SENTINEL,
    guarded_bucket_join_task,
    join_bucket,
    validate_workers,
)
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
        workers: int = 1,
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
        #: Worker processes for the partitioned hash joins (GRACE/hybrid).
        #: 1 means serial; >1 offloads pure-CPU bucket work to a fork pool
        #: with deterministic bucket-order assembly, so results and
        #: counters are independent of the worker count.  Invalid counts
        #: (negatives, non-integral floats) raise ConfigurationError.
        self.workers = validate_workers(workers)
        #: Optional :class:`repro.governor.QueryGuard` -- cancellation
        #: checkpoints, the revocable memory grant, and worker fault
        #: policy.  ``None`` (the default) costs one attribute test per
        #: page boundary.
        self.guard = None
        # Bound token.check, cached by set_guard so a checkpoint is one
        # attribute test + one call instead of a three-deep method chain.
        self._token_check = None
        #: True once a worker was killed or hung during this execution;
        #: a dirty pool must be terminate()d -- close()/join() would block
        #: forever behind a wedged worker.
        self.pool_dirty = False
        #: Bucket jobs that failed on the pool and were retried serially.
        self.pool_failures = 0

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
        output = Relation(
            "%s(%s,%s)" % (self.name, spec.r.name, spec.s.name),
            join_schema(spec.r, spec.s),
            page_bytes=max(
                spec.r.page_bytes,
                join_schema(spec.r, spec.s).tuple_bytes,
            ),
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

    def pool_workers(self) -> int:
        """The worker count to actually use: 1 once the breaker tripped."""
        if self.guard is not None and not self.guard.allows_parallel():
            return 1
        return self.workers

    def run_bucket_jobs(
        self, pool: Any, payloads: List[Tuple]
    ) -> List[Tuple[List[Row], OperationCounters]]:
        """Dispatch bucket-join payloads to the pool, surviving worker loss.

        Each payload is the :func:`repro.join.parallel.bucket_join_task`
        tuple.  Jobs go out via ``apply_async`` wrapped in
        :func:`~repro.join.parallel.guarded_bucket_join_task`, and results
        are collected in input order with the guard's worker timeout.  Any
        job that times out (killed or wedged worker -- the fork pool loses
        the tasks of a dead process), errors, or returns a payload without
        the OK sentinel (garbled result) is **retried serially in the
        coordinator** with fresh counters -- identical rows and charges to
        a healthy worker by construction, since the worker runs the very
        same :func:`~repro.join.parallel.join_bucket`.  Each failure is
        recorded against the session circuit breaker; a killed/hung worker
        also marks the pool dirty so teardown uses ``terminate()``.
        """
        guard = self.guard
        timeout = guard.worker_timeout if guard is not None else 60.0
        handles: List[Optional[Any]] = []
        for payload in payloads:
            fault = guard.worker_fault() if guard is not None else None
            try:
                handles.append(
                    pool.apply_async(guarded_bucket_join_task, ((payload, fault),))
                )
            except Exception:
                # The pool itself refused the dispatch (already broken);
                # fall through to the serial retry below.
                handles.append(None)
                self.pool_dirty = True
        results: List[Tuple[List[Row], OperationCounters]] = []
        for payload, handle in zip(payloads, handles):
            outcome: Optional[Tuple[List[Row], OperationCounters]] = None
            if handle is not None:
                try:
                    raw = handle.get(timeout)
                except Exception:
                    # Timeout (killed or hung worker) or a transport
                    # error: the pool can no longer be trusted to drain.
                    self.pool_dirty = True
                else:
                    if (
                        isinstance(raw, tuple)
                        and len(raw) == 3
                        and raw[0] == OK_SENTINEL
                    ):
                        outcome = (raw[1], raw[2])
                    # else: garbled result -- worker alive, payload junk.
            if outcome is None:
                self.pool_failures += 1
                if guard is not None:
                    guard.record_worker_failure()
                r_rows, s_rows, r_idx, s_idx, fudge = payload
                retry_counters = OperationCounters()
                try:
                    rows = join_bucket(
                        r_rows, s_rows, r_idx, s_idx, fudge, retry_counters
                    )
                except Exception as exc:
                    raise WorkerPoolError(
                        "bucket job failed on the pool and its serial "
                        "retry also failed: %s" % (exc,)
                    ) from exc
                outcome = (rows, retry_counters)
            results.append(outcome)
        return results

    def finish_pool(self, pool: Optional[Any]) -> None:
        """Tear a pool down; ``terminate()`` when a worker was lost."""
        if pool is None:
            return
        if self.pool_dirty:
            pool.terminate()
        else:
            pool.close()
        pool.join()

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

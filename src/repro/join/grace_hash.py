"""GRACE hash join -- Section 3.6.

Phase 1 partitions *both* relations into ``|M|`` buckets (one output-buffer
page each, so the fan-out equals the memory grant), flushing full buffers
with random IO.  Phase 2 joins bucket pairs: read R_i back, build its hash
table -- guaranteed to fit because R was split ``|M|`` ways -- then stream
S_i against it.  The original uses a hardware sorter in phase 2; like the
paper's own comparison, this implementation uses hashing "to provide a fair
comparison between the different algorithms".

GRACE never exploits memory beyond the fan-out: every tuple of both
relations goes to disk and comes back, which is why its Figure 1 curve is
flat while hybrid hash keeps improving.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.access.hash_index import HashIndex
from repro.join.base import JoinAlgorithm, JoinSpec
from repro.join.parallel import (
    make_pool,
    precomputed_classifier,
    residue_chunk_task,
)
from repro.join.partition import partition_relation, read_bucket
from repro.join.vectorized import join_bucket_columnar
from repro.storage.relation import Relation, Row


class GraceHashJoin(JoinAlgorithm):
    """Two-phase partition/build-probe join with full spill."""

    name = "grace-hash"

    def _execute(self, spec: JoinSpec, output: Relation) -> None:
        if self.batch:
            self._execute_batch(spec, output)
        else:
            self._execute_tuple(spec, output)

    def _bucket_count(self, spec: JoinSpec) -> int:
        # The paper partitions into |M| sets; more buckets than R has
        # pages would only create empty files.  The governor's grant (if
        # any) caps the grant the spec was planned with.
        memory = self.effective_memory_pages(spec.memory_pages)
        return max(1, min(memory, spec.r.page_count))

    def _execute_tuple(self, spec: JoinSpec, output: Relation) -> None:
        buckets = self._bucket_count(spec)

        r_files = partition_relation(
            spec.r,
            spec.r_key,
            buckets,
            self.disk,
            self.counters,
            file_prefix=self.scratch_name(spec, "r"),
            batch=False,
            checkpoint=self.checkpoint,
        )
        s_files = partition_relation(
            spec.s,
            spec.s_key,
            buckets,
            self.disk,
            self.counters,
            file_prefix=self.scratch_name(spec, "s"),
            batch=False,
            checkpoint=self.checkpoint,
        )

        r_key, s_key = spec.r_key, spec.s_key
        for r_file, s_file in zip(r_files, s_files):
            self.checkpoint()
            table = HashIndex(self.counters, max_load=spec.params.fudge)
            for row in read_bucket(self.disk, r_file):
                table.insert(r_key(row), row)
            for row in read_bucket(self.disk, s_file):
                # probe() charges the phase-2 hash and the F comparisons.
                for r_row in table.probe(s_key(row)):
                    self.emit(output, r_row, row)
            self.disk.delete(r_file)
            self.disk.delete(s_file)

    def _execute_batch(self, spec: JoinSpec, output: Relation) -> None:
        """Page-at-a-time variant, optionally with a worker pool.

        The coordinator performs every disk access in the serial order
        (partition writes, then per bucket: read R_i, read S_i, delete
        both); workers only classify keys and build/probe bucket pairs.
        """
        buckets = self._bucket_count(spec)
        pool = make_pool(self.pool_workers())
        try:
            classify_r: Optional[Callable[[Sequence[Any]], List[int]]] = None
            classify_s: Optional[Callable[[Sequence[Any]], List[int]]] = None
            r_ki, s_ki = spec.r_key_index, spec.s_key_index
            if pool is not None:
                # Keys for the workers come straight off the packed
                # join-key columns -- no per-row extractor calls.
                classify_r = precomputed_classifier(
                    pool,
                    [
                        list(page.column(r_ki))
                        for page in spec.r.pages
                        if len(page)
                    ],
                    residue_chunk_task,
                    (buckets,),
                )
                classify_s = precomputed_classifier(
                    pool,
                    [
                        list(page.column(s_ki))
                        for page in spec.s.pages
                        if len(page)
                    ],
                    residue_chunk_task,
                    (buckets,),
                )
            r_files = partition_relation(
                spec.r,
                spec.r_key,
                buckets,
                self.disk,
                self.counters,
                file_prefix=self.scratch_name(spec, "r"),
                classify=classify_r,
                checkpoint=self.checkpoint,
                key_index=r_ki,
            )
            s_files = partition_relation(
                spec.s,
                spec.s_key,
                buckets,
                self.disk,
                self.counters,
                file_prefix=self.scratch_name(spec, "s"),
                classify=classify_s,
                checkpoint=self.checkpoint,
                key_index=s_ki,
            )

            r_index = spec.r.schema.index_of(spec.r_field)
            s_index = spec.s.schema.index_of(spec.s_field)
            fudge = spec.params.fudge

            if pool is None:
                for r_file, s_file in zip(r_files, s_files):
                    self.checkpoint()
                    r_rows = read_bucket(self.disk, r_file)
                    s_rows = read_bucket(self.disk, s_file)
                    self.disk.delete(r_file)
                    self.disk.delete(s_file)
                    join_bucket_columnar(
                        r_rows,
                        s_rows,
                        r_index,
                        s_index,
                        fudge,
                        self.counters,
                        output,
                    )
                return

            jobs: List[Tuple[List[Row], List[Row], int, int, float]] = []
            for r_file, s_file in zip(r_files, s_files):
                self.checkpoint()
                r_rows = read_bucket(self.disk, r_file)
                s_rows = read_bucket(self.disk, s_file)
                self.disk.delete(r_file)
                self.disk.delete(s_file)
                jobs.append((r_rows, s_rows, r_index, s_index, fudge))
            for rows, worker_counters in self.run_bucket_jobs(pool, jobs):
                self.counters.absorb(worker_counters)
                output.extend_rows(rows)
        finally:
            self.finish_pool(pool)


__all__ = ["GraceHashJoin"]

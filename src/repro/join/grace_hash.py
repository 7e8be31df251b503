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

from repro.access.hash_index import HashIndex
from repro.join.base import JoinAlgorithm, JoinSpec
from repro.join.partition import (
    partition_relation,
    read_bucket,
    read_bucket_columns,
)
from repro.join.vectorized import join_bucket_columnar
from repro.storage.relation import Relation


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
        """Whole-column variant: the same files, page for page, written a
        bucket's slice at a time and read back as their column buffers."""
        buckets = self._bucket_count(spec)
        r_ki, s_ki = spec.r_key_index, spec.s_key_index

        r_files = partition_relation(
            spec.r,
            spec.r_key,
            buckets,
            self.disk,
            self.counters,
            file_prefix=self.scratch_name(spec, "r"),
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
            checkpoint=self.checkpoint,
            key_index=s_ki,
        )

        for r_file, s_file in zip(r_files, s_files):
            self.checkpoint()
            r_bucket = read_bucket_columns(self.disk, r_file)
            s_bucket = read_bucket_columns(self.disk, s_file)
            self.disk.delete(r_file)
            self.disk.delete(s_file)
            join_bucket_columnar(r_bucket, s_bucket, spec, self.counters, output)


__all__ = ["GraceHashJoin"]

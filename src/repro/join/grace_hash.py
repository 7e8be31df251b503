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

from repro.join.base import JoinAlgorithm, JoinSpec
from repro.join.partition import join_bucket_pairs, partition_relation
from repro.storage.relation import Relation


class GraceHashJoin(JoinAlgorithm):
    """Two-phase partition/build-probe join with full spill."""

    name = "grace-hash"

    def _bucket_count(self, spec: JoinSpec) -> int:
        # The paper partitions into |M| sets; more buckets than R has
        # pages would only create empty files.  The governor's grant (if
        # any) caps the grant the spec was planned with.
        memory = self.effective_memory_pages(spec.memory_pages)
        return max(1, min(memory, spec.r.page_count))

    def _execute(self, spec: JoinSpec, output: Relation) -> None:
        """Phase 1 partitions R, then S, into the same number of files
        (the production arm a block of whole columns at a time); phase 2
        joins the bucket pairs."""
        buckets = self._bucket_count(spec)
        files = [
            partition_relation(
                relation,
                key,
                buckets,
                self.disk,
                self.counters,
                file_prefix=self.scratch_name(spec, tag),
                batch=self.batch,
                checkpoint=self.checkpoint,
                key_index=key_index,
            )
            for relation, key, key_index, tag in (
                (spec.r, spec.r_key, spec.r_key_index, "r"),
                (spec.s, spec.s_key, spec.s_key_index, "s"),
            )
        ]
        join_bucket_pairs(self, spec, zip(*files), output)


__all__ = ["GraceHashJoin"]

"""Hybrid hash join -- Section 3.7, the paper's new algorithm.

Hybrid hash is GRACE with the leftover memory put to work: memory holds the
``B`` output buffers *plus* a live hash table for bucket R0 covering the
fraction ``q = (|M| - B) / (|R|*F)`` of R.  R0 tuples never touch disk, and
S0 tuples probe the resident table during partitioning.  Only the ``1-q``
spilled remainder pays IO and a second hashing pass, so the algorithm
interpolates smoothly between GRACE (``q -> 0``) and the one-pass simple
hash (``q = 1``), dominating both across Figure 1.

The partitioning function splits the hash-value space *unevenly*: a ``q``
share to the resident class, the rest evenly over the B spill buckets --
the Section 3.3 construction of a partition compatible with ``h`` (see
:func:`repro.join.partition.hybrid_class`).

Overflow has one remedy, Section 3.3's: "if we err slightly we can always
apply the hybrid hash join recursively, thereby adding an extra pass for the
overflow tuples" -- a bucket pair whose build side exceeds the phase-2
table capacity is re-joined one level deeper with a depth-salted hash.  A
bucket dominated by a single key cannot be split by any hash and is joined
directly, over budget.

Under the governor the memory grant is **live**: a mid-query revocation
(:meth:`repro.governor.grant.MemoryGrant.revoke`) can shrink the budget the
level was planned against.  The join reacts at the next page boundary by
**demoting** the resident partition R0 to an *overflow spill pair* --
dumping the live hash table to disk and routing all later class-0 tuples to
the pair -- which degrades the level toward pure GRACE (``q`` effectively
0) at the honest cost of the extra moves and IO.  Demotion is correct at
any boundary: the resident table only ever grows during phase 1a, so every
S0 tuple probed before the demotion saw *all* R0 tuples it could match
(phase 1a completed first), and every S0 tuple after it goes to the
overflow pair, where phase 2 joins it against the complete dumped R0.  The
overflow pair is processed exactly like a spill bucket, including the
recursion check against the *shrunken* capacity -- the degradation ladder
of docs/ROBUSTNESS.md.

Execution comes in two arms with identical results, counters and spill
files: the tuple-at-a-time specification (``batch=False``) and the
production batch arm (default), which never leaves the columnar world.
It takes each relation a block of pages at a time as whole columns
(:func:`~repro.join.vectorized.column_blocks`), runs the block's per-page
checks -- ``checkpoint()`` and the demotion test, with the exact resident
count before each page -- and then classifies the block's key column in
array arithmetic (:func:`~repro.join.partition.hybrid_classes`), groups
row positions by class with one stable sort and hands every class its
rows as one gathered slice: the resident class to a
:class:`~repro.join.vectorized.JoinTable`, each spill class to
:meth:`~repro.join.partition.SpillWriter.write_columns`.  Each level is
one loop per phase: partition R, partition S, then one pass over the
spilled bucket pairs -- GRACE's phase 2
(:func:`~repro.join.partition.join_bucket_pairs`, both arms), with the
Section 3.3 recursion as its split hook.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, List, Optional, Sequence, Sized, Tuple

from repro.access.hash_index import HashIndex
from repro.join.base import JoinAlgorithm, JoinSpec
from repro.join.partition import (
    SpillWriter,
    hybrid_class,
    hybrid_classes,
    join_bucket_pairs,
    partition_fan_out,
    scatter,
)
from repro.join.vectorized import JoinTable, column_blocks, take_rows
from repro.storage.page import Page
from repro.storage.relation import Relation


class HybridHashJoin(JoinAlgorithm):
    """Partitioned hash join with a memory-resident first bucket."""

    name = "hybrid-hash"

    #: Recursion backstop: 2 levels handle |R| up to ~|M|^3 / F pages;
    #: deeper than 8 means the partitioning hash has failed entirely.
    MAX_RECURSION = 8

    def _execute(
        self, spec: JoinSpec, output: Relation, depth: int = 0
    ) -> None:
        """One hybrid level; Section 3.3 recursion re-enters one deeper."""
        if self.batch:
            self._execute_level_batch(spec, output, depth)
        else:
            self._execute_level(spec, output, depth)

    # -- grant-aware degradation -------------------------------------------------

    def _bucket_capacity(self, spec: JoinSpec) -> int:
        """Tuples a phase-2 hash table may hold under the *current* grant."""
        if self.guard is None or self.guard.grant is None:
            return spec.memory_tuples(spec.r.tuples_per_page)
        pages = self.guard.effective_pages(spec.memory_pages)
        return max(1, int(pages * spec.r.tuples_per_page / spec.params.fudge))

    def _grant_cut(self, memory: int) -> bool:
        """Whether a revocation has cut the grant below the ``memory`` the
        level planned against.  The happy path (no guard, no grant, or a
        grant that still covers the budget) is two attribute loads and a
        compare."""
        guard = self.guard
        return (
            guard is not None
            and guard.grant is not None
            and guard.grant.pages < memory
        )

    def _over_budget(self, resident_rows: int, buckets: int, spec: JoinSpec) -> bool:
        """Whether the cut grant can no longer hold R0's live table of
        ``resident_rows`` tuples: the live footprint (table pages plus B
        output buffers -- the Section 3.7 memory layout) also feeds the
        grant's high-water accounting."""
        grant = self.guard.grant
        used = spec.table_pages(resident_rows, spec.r.tuples_per_page) + buckets
        grant.charge(used)
        return grant.over_budget(used)

    def _degrade_now(
        self, memory: int, buckets: int, resident: Sized, spec: JoinSpec
    ) -> bool:
        """Whether a revoked grant can no longer hold R0's live table.

        Checked at page boundaries during phase 1; only a constrained
        grant pays for the live footprint computation.
        """
        return self._grant_cut(memory) and self._over_budget(
            len(resident), buckets, spec
        )

    def _demote_resident(
        self, resident: Any, spec: JoinSpec, depth: int
    ) -> Tuple[SpillWriter, SpillWriter]:
        """Dump the live R0 table to a fresh overflow spill pair.

        Charges one move per dumped tuple plus the flush IO -- the honest
        price of giving the memory back.  The caller replaces ``resident``
        with an empty table and routes all later class-0 tuples to the
        returned writers; phase 2 then joins the pair like any spilled
        bucket.  Both arms dump in the chained table's order (same rows,
        same order, same charges): the specification row by row, the
        production arm as one gathered column slice.
        """
        base = self.scratch_name(spec, "ovf")
        ovf_r = SpillWriter(
            self.disk,
            ["%s.d%d.r" % (base, depth)],
            spec.r.tuples_per_page,
            self.counters,
        )
        ovf_s = SpillWriter(
            self.disk,
            ["%s.d%d.s" % (base, depth)],
            spec.s.tuples_per_page,
            self.counters,
        )
        if self.batch:
            ovf_r.write_columns(0, *resident.dump())
        else:
            for _, row in resident.items():
                ovf_r.write(0, row)
        return ovf_r, ovf_s

    # -- tuple-at-a-time path ----------------------------------------------------

    def _execute_level(
        self, spec: JoinSpec, output: Relation, depth: int
    ) -> None:
        params = spec.params
        memory = self.effective_memory_pages(spec.memory_pages)
        buckets, q = partition_fan_out(
            spec.r.page_count, memory, params.fudge
        )
        r_key, s_key = spec.r_key, spec.s_key

        resident = HashIndex(self.counters, max_load=params.fudge)
        demoted = False
        ovf_r: Optional[SpillWriter] = None
        ovf_s: Optional[SpillWriter] = None

        # ---- Phase 1a: partition R, building R0's table on the fly. ----
        r_writer = None
        if buckets > 0:
            r_names = [
                "%s.d%d.%d" % (self.scratch_name(spec, "r"), depth, i)
                for i in range(buckets)
            ]
            # A cancelled level leaves its open partition files on the
            # join's scratch disk, which dies with the statement, as
            # partition_relation's do; closing them on the way out would
            # charge flushes nothing reads.
            # repro-lint: disable=resource-lifecycle
            r_writer = SpillWriter(
                self.disk, r_names, spec.r.tuples_per_page, self.counters
            )
        r_tpp = max(1, spec.r.tuples_per_page)
        for i, row in enumerate(spec.r):
            if i % r_tpp == 0:
                self.checkpoint()
                if not demoted and self._degrade_now(
                    memory, buckets, resident, spec
                ):
                    ovf_r, ovf_s = self._demote_resident(resident, spec, depth)
                    resident = HashIndex(self.counters, max_load=params.fudge)
                    demoted = True
            k = r_key(row)
            cls = hybrid_class(k, q, buckets, depth)
            if cls == 0:
                if demoted:
                    self.counters.hash_key()
                    ovf_r.write(0, row)
                else:
                    # insert() charges the hash and the move into the table.
                    resident.insert(k, row)
            else:
                self.counters.hash_key()
                r_writer.write(cls - 1, row)
        r_files = r_writer.close() if r_writer is not None else []

        # ---- Phase 1b: partition S, probing R0 on the fly. ----
        s_writer = None
        if buckets > 0:
            s_names = [
                "%s.d%d.%d" % (self.scratch_name(spec, "s"), depth, i)
                for i in range(buckets)
            ]
            # Left open on the way out for the same reason as r_writer.
            # repro-lint: disable=resource-lifecycle
            s_writer = SpillWriter(
                self.disk, s_names, spec.s.tuples_per_page, self.counters
            )
        s_tpp = max(1, spec.s.tuples_per_page)
        for i, row in enumerate(spec.s):
            if i % s_tpp == 0:
                self.checkpoint()
                if not demoted and self._degrade_now(
                    memory, buckets, resident, spec
                ):
                    ovf_r, ovf_s = self._demote_resident(resident, spec, depth)
                    resident = HashIndex(self.counters, max_load=params.fudge)
                    demoted = True
            k = s_key(row)
            cls = hybrid_class(k, q, buckets, depth)
            if cls == 0:
                if demoted:
                    self.counters.hash_key()
                    ovf_s.write(0, row)
                else:
                    for r_row in resident.probe(k):
                        self.emit(output, r_row, row)
            else:
                self.counters.hash_key()
                s_writer.write(cls - 1, row)
        s_files = s_writer.close() if s_writer is not None else []

        pairs = list(zip(r_files, s_files))
        if demoted:
            pairs.extend(zip(ovf_r.close(), ovf_s.close()))

        self._phase_two(spec, output, pairs, depth)

    # -- batch path --------------------------------------------------------------

    def _execute_level_batch(
        self, spec: JoinSpec, output: Relation, depth: int
    ) -> None:
        params = spec.params
        memory = self.effective_memory_pages(spec.memory_pages)
        buckets, q = partition_fan_out(
            spec.r.page_count, memory, params.fudge
        )
        key_indexes = spec.r_key_index, spec.s_key_index

        # R0 staged column-wise under a table from keys to row indices;
        # ``overflow`` is the spill pair its class goes to once demoted.
        resident = JoinTable(spec, self.counters)
        overflow: Optional[Tuple[SpillWriter, SpillWriter]] = None

        def classify(block: Page) -> List[Sequence[int]]:
            """The block's row positions by class, each in input order."""
            if buckets == 0:  # q == 1: everything is resident
                return [range(len(block))]
            keys = block.column(key_indexes[side])
            return scatter(hybrid_classes(keys, q, buckets, depth), buckets + 1)

        def meet(block: Page, positions: Sequence[int]) -> None:
            """Class-0 rows meet the live table: R builds it, S probes it."""
            if len(positions):
                columns = take_rows(block, positions)
                if side == 0:
                    resident.insert_columns(columns, len(positions))
                else:
                    resident.probe_columns(columns, output)

        # ---- Phase 1a (side 0): partition R, building R0's table; phase
        # 1b (side 1): partition S, probing it -- a block of whole columns
        # at a time.  Per block the page loop's checks run first, then the
        # array work: classify the key column, group positions by class,
        # hand every class its rows as one gathered slice. ----
        files: List[List[str]] = []
        for side, relation in enumerate((spec.r, spec.s)):
            writer = None
            if buckets > 0:
                names = [
                    "%s.d%d.%d" % (self.scratch_name(spec, "rs"[side]), depth, i)
                    for i in range(buckets)
                ]
                # Left open on a cancellation for _execute_level's reason.
                # repro-lint: disable=resource-lifecycle
                writer = SpillWriter(
                    self.disk, names, relation.tuples_per_page, self.counters
                )
            for block, starts in column_blocks(relation):
                groups: Optional[List[Sequence[int]]] = None
                met = 0  # class-0 rows that met the table before a demotion
                for start in starts:
                    self.checkpoint()
                    if overflow is None and self._grant_cut(memory):
                        # The exact resident count before this page: the
                        # class-0 positions are in input order.
                        groups = groups or classify(block)
                        before = bisect_left(groups[0], start)
                        held = len(resident) + (before if side == 0 else 0)
                        if self._over_budget(held, buckets, spec):
                            # Class-0 rows before the page meet the table
                            # first: a build row is dumped with it, a probe
                            # row's matches precede what phase 2 re-reads.
                            met = before
                            meet(block, groups[0][:met])
                            overflow = self._demote_resident(resident, spec, depth)
                            resident = JoinTable(spec, self.counters)
                groups = groups or classify(block)
                mine = groups[0][met:]
                if overflow is None:
                    meet(block, mine)
                elif len(mine):
                    self.counters.hash_key(len(mine))
                    overflow[side].write_columns(
                        0, take_rows(block, mine), len(mine)
                    )
                spilled = len(block) - len(groups[0])
                if spilled:
                    self.counters.hash_key(spilled)
                    for bucket, positions in enumerate(groups[1:]):
                        if len(positions):
                            writer.write_columns(
                                bucket, take_rows(block, positions), len(positions)
                            )
            files.append(writer.close() if writer is not None else [])
        # A build nothing probed has still paid for its inserts.
        resident.settle()

        pairs = list(zip(*files))
        if overflow is not None:
            pairs.extend(zip(overflow[0].close(), overflow[1].close()))

        self._phase_two(spec, output, pairs, depth)

    def _phase_two(
        self,
        spec: JoinSpec,
        output: Relation,
        pairs: List[Tuple[str, str]],
        depth: int,
    ) -> None:
        """Join the spilled bucket pairs (GRACE's phase 2), re-joining one
        level deeper each pair whose build side exceeds the phase-2 table
        capacity -- Section 3.3's overflow remedy, with a fresh
        (depth-salted) partitioning.  A bucket dominated by one key is
        indivisible: repartitioning it would rewrite the same rows, so it
        is joined directly, its hash table over budget (the honest cost
        of an unsplittable hot key)."""
        bucket_capacity = self._bucket_capacity(spec)
        r_ki = spec.r_key_index

        def split(r_bucket: Page, s_bucket: Page) -> bool:
            if (
                len(r_bucket) > bucket_capacity
                and depth < self.MAX_RECURSION
                and len(set(r_bucket.column(r_ki))) > 1
            ):
                self._recurse_on_bucket(spec, output, r_bucket, s_bucket, depth)
                return True
            return False

        join_bucket_pairs(self, spec, pairs, output, split)

    def _recurse_on_bucket(
        self,
        spec: JoinSpec,
        output: Relation,
        r_bucket: Page,
        s_bucket: Page,
        depth: int,
    ) -> None:
        """Re-join one overflowing bucket pair, read back as its files'
        columns, one level deeper.  The sub-level plans against the
        *current* effective grant, so a revoked budget keeps shrinking
        the recursive fan-outs."""
        sub_r = Relation(
            "%s~%d" % (spec.r.name, depth + 1), spec.r.schema, spec.r.page_bytes
        )
        sub_s = Relation(
            "%s~%d" % (spec.s.name, depth + 1), spec.s.schema, spec.s.page_bytes
        )
        for sub, bucket in ((sub_r, r_bucket), (sub_s, s_bucket)):
            sub.extend_columns(bucket.columns, len(bucket))
        sub_spec = JoinSpec(
            r=sub_r,
            s=sub_s,
            r_field=spec.r_field,
            s_field=spec.s_field,
            memory_pages=self.effective_memory_pages(spec.memory_pages),
            params=spec.params,
        )
        # The sub-spec may have swapped sides if the bucket's S slice is
        # the smaller one; keep the original orientation so emitted rows
        # stay (R, S)-ordered.
        if sub_spec.r is not sub_r:
            sub_spec.r, sub_spec.s = sub_r, sub_s
            sub_spec.r_field, sub_spec.s_field = spec.r_field, spec.s_field
        self._execute(sub_spec, output, depth + 1)


__all__ = ["HybridHashJoin"]

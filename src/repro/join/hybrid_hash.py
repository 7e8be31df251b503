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

Execution comes in two arms with identical results and counters: the
tuple-at-a-time specification (``batch=False``) and the production batch
arm (default; the resident side is a
:class:`~repro.join.vectorized.JoinTable`: rows staged column-wise, the
table mapping keys to their indices, probes answered once per phase and
matches group-gathered buffer-to-buffer).  Each level is one loop per
phase: partition R, partition S, then one pass over the spilled bucket
pairs.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sized, Tuple

from repro.access.hash_index import HashIndex
from repro.join.base import JoinAlgorithm, JoinSpec
from repro.join.partition import (
    SpillWriter,
    hybrid_class,
    partition_fan_out,
    read_bucket,
)
from repro.join.vectorized import JoinTable, join_bucket_columnar
from repro.storage.relation import Relation, Row


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

    def _degrade_now(
        self, memory: int, buckets: int, resident: Sized, spec: JoinSpec
    ) -> bool:
        """Whether a revoked grant can no longer hold R0's live table.

        Checked at page boundaries during phase 1.  The happy path (no
        revocation: the grant still covers the planned budget) is two
        attribute loads and a compare; only a constrained grant pays for
        the live footprint computation (table pages plus B output
        buffers -- the Section 3.7 memory layout), which also feeds the
        grant's high-water accounting.
        """
        guard = self.guard
        if guard is None or guard.grant is None:
            return False
        grant = guard.grant
        if grant.pages >= memory:
            return False
        used = spec.table_pages(len(resident), spec.r.tuples_per_page) + buckets
        grant.charge(used)
        return grant.over_budget(used)

    def _demote_resident(
        self, resident: Any, spec: JoinSpec, depth: int
    ) -> Tuple[SpillWriter, SpillWriter]:
        """Dump the live R0 table to a fresh overflow spill pair.

        Charges one move per dumped tuple plus the flush IO -- the honest
        price of giving the memory back.  The caller replaces ``resident``
        with an empty table and routes all later class-0 tuples to the
        returned writers; phase 2 then joins the pair like any spilled
        bucket.  ``resident.items()`` yields ``(key, row)`` in the chained
        table's order in both arms (same order, same charges).
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

        # ---- Phase 2: join the spilled bucket pairs. ----
        bucket_capacity = self._bucket_capacity(spec)
        for r_file, s_file in pairs:
            self.checkpoint()
            r_rows = read_bucket(self.disk, r_file)
            s_rows = read_bucket(self.disk, s_file)
            self.disk.delete(r_file)
            self.disk.delete(s_file)

            if len(r_rows) > bucket_capacity and depth < self.MAX_RECURSION:
                # Section 3.3's overflow remedy: recurse on this bucket
                # pair with a fresh (depth-salted) partitioning -- but only
                # when partitioning can actually split it.  A bucket
                # dominated by one key is indivisible; repartitioning it
                # just rewrites the same rows, so it is processed directly
                # (the hash table runs over its budget, the honest cost of
                # an unsplittable hot key).
                if len({r_key(row) for row in r_rows}) > 1:
                    self._recurse_on_bucket(spec, output, r_rows, s_rows, depth)
                    continue

            table = HashIndex(self.counters, max_load=params.fudge)
            for row in r_rows:
                table.insert(r_key(row), row)
            for row in s_rows:
                for r_row in table.probe(s_key(row)):
                    self.emit(output, r_row, row)

    # -- batch path --------------------------------------------------------------

    def _execute_level_batch(
        self, spec: JoinSpec, output: Relation, depth: int
    ) -> None:
        params = spec.params
        memory = self.effective_memory_pages(spec.memory_pages)
        buckets, q = partition_fan_out(
            spec.r.page_count, memory, params.fudge
        )
        r_ki, s_ki = spec.r_key_index, spec.s_key_index

        # R0 staged column-wise under a table from keys to row indices.
        resident = JoinTable(spec, self.counters)
        demoted = False
        ovf_r: Optional[SpillWriter] = None
        ovf_s: Optional[SpillWriter] = None

        # ---- Phase 1a: partition R, building R0's table page by page. ----
        # Per page the resident class is collected as slots and the spill
        # classes as rows; ``demoted`` only changes where the resident
        # class goes -- the overflow writer instead of the table.
        r_writer = None
        if buckets > 0:
            r_names = [
                "%s.d%d.%d" % (self.scratch_name(spec, "r"), depth, i)
                for i in range(buckets)
            ]
            r_writer = SpillWriter(
                self.disk, r_names, spec.r.tuples_per_page, self.counters
            )
        for page in spec.r.pages:
            self.checkpoint()
            if not demoted and self._degrade_now(memory, buckets, resident, spec):
                ovf_r, ovf_s = self._demote_resident(resident, spec, depth)
                resident = JoinTable(spec, self.counters)
                demoted = True
            n = len(page)
            if not n:
                continue
            if buckets == 0:
                # Everything is resident (q == 1): no classification and
                # no spill; the key column is indexed and the page's
                # buffers staged without touching a row tuple.
                if demoted:
                    self.counters.hash_key(n)
                    ovf_r.write_many(0, page.tuples)
                else:
                    resident.insert(page)
                continue
            pending: List[List[Row]] = [[] for _ in range(buckets)]
            spilled = 0
            rows: Optional[List[Row]] = None
            res_pos: List[int] = []
            for i, k in enumerate(page.column(r_ki)):
                cls = hybrid_class(k, q, buckets, depth)
                if cls == 0:
                    res_pos.append(i)
                else:
                    if rows is None:
                        rows = page.tuples
                    pending[cls - 1].append(rows[i])
                    spilled += 1
            if res_pos:
                if demoted:
                    self.counters.hash_key(len(res_pos))
                    rows = page.tuples
                    ovf_r.write_many(0, [rows[i] for i in res_pos])
                else:
                    resident.insert(page, res_pos)
            if spilled:
                self.counters.hash_key(spilled)
                for b, bucket_rows in enumerate(pending):
                    r_writer.write_many(b, bucket_rows)
        r_files = r_writer.close() if r_writer is not None else []

        # ---- Phase 1b: partition S, probing R0 page by page. ----
        s_writer = None
        if buckets > 0:
            s_names = [
                "%s.d%d.%d" % (self.scratch_name(spec, "s"), depth, i)
                for i in range(buckets)
            ]
            s_writer = SpillWriter(
                self.disk, s_names, spec.s.tuples_per_page, self.counters
            )
        for page in spec.s.pages:
            self.checkpoint()
            if not demoted and self._degrade_now(memory, buckets, resident, spec):
                # Matches found so far precede what phase 2 re-reads.
                resident.flush(output)
                ovf_r, ovf_s = self._demote_resident(resident, spec, depth)
                resident = JoinTable(spec, self.counters)
                demoted = True
            n = len(page)
            if not n:
                continue
            if buckets == 0:
                if demoted:
                    self.counters.hash_key(n)
                    ovf_s.write_many(0, page.tuples)
                else:
                    resident.probe(page, output)
                continue
            pending = [[] for _ in range(buckets)]
            spilled = 0
            rows = None
            probe_pos: List[int] = []
            for i, k in enumerate(page.column(s_ki)):
                cls = hybrid_class(k, q, buckets, depth)
                if cls == 0:
                    probe_pos.append(i)
                else:
                    if rows is None:
                        rows = page.tuples
                    pending[cls - 1].append(rows[i])
                    spilled += 1
            if probe_pos:
                if demoted:
                    self.counters.hash_key(len(probe_pos))
                    rows = page.tuples
                    ovf_s.write_many(0, [rows[i] for i in probe_pos])
                else:
                    resident.probe(page, output, probe_pos)
            if spilled:
                self.counters.hash_key(spilled)
                for b, bucket_rows in enumerate(pending):
                    s_writer.write_many(b, bucket_rows)

        # The resident class is probed once per phase, not per page.
        resident.flush(output)
        s_files = s_writer.close() if s_writer is not None else []

        pairs = list(zip(r_files, s_files))
        if demoted:
            pairs.extend(zip(ovf_r.close(), ovf_s.close()))

        # ---- Phase 2: join the spilled bucket pairs. ----
        bucket_capacity = self._bucket_capacity(spec)
        r_key = spec.r_key
        for r_file, s_file in pairs:
            self.checkpoint()
            r_rows = read_bucket(self.disk, r_file)
            s_rows = read_bucket(self.disk, s_file)
            self.disk.delete(r_file)
            self.disk.delete(s_file)

            if (
                len(r_rows) > bucket_capacity
                and depth < self.MAX_RECURSION
                and len({r_key(row) for row in r_rows}) > 1
            ):
                self._recurse_on_bucket(spec, output, r_rows, s_rows, depth)
                continue

            join_bucket_columnar(
                r_rows, s_rows, r_ki, s_ki, params.fudge, self.counters, output
            )

    def _recurse_on_bucket(
        self,
        spec: JoinSpec,
        output: Relation,
        r_rows: List[Row],
        s_rows: List[Row],
        depth: int,
    ) -> None:
        """Re-join one overflowing bucket pair one level deeper.

        The sub-level plans against the *current* effective grant, so a
        revoked budget keeps shrinking the recursive fan-outs.
        """
        sub_r = Relation(
            "%s~%d" % (spec.r.name, depth + 1), spec.r.schema, spec.r.page_bytes
        )
        sub_r.extend_rows(r_rows)
        sub_s = Relation(
            "%s~%d" % (spec.s.name, depth + 1), spec.s.schema, spec.s.page_bytes
        )
        sub_s.extend_rows(s_rows)
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

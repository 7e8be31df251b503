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

Skew handling is two-tiered.  The backstop is Section 3.3's remedy: "if we
err slightly we can always apply the hybrid hash join recursively, thereby
adding an extra pass for the overflow tuples" -- an oversized bucket pair
found in phase 2 is re-joined recursively with a depth-salted hash.  On
top of that sits the **adaptive re-split** (``adaptive=True``, following
the dynamic-hybrid-hash literature): phase 1a counts each spill bucket's
build tuples, and a bucket whose hash table would overflow the grant is
re-split into sub-buckets *before S is partitioned* -- R's hot bucket is
read back and re-hashed once (the same work static recursion pays later),
but S's hot tuples are routed straight to the sub-buckets at one extra
hash each, instead of being written to the fat bucket, read back, re-hashed
and re-written by the recursion.  The memory split is adjusted mid-join
under the Governor grant machinery: the sub-bucket output buffers are
charged against the live grant, and a constrained grant vetoes the
re-split (the bucket falls back to static recursion).  The re-split
decision point is a chaos seam: an injected ``abort`` fails it before any
IO, an injected ``midway`` fault kills it after partially writing the R
sub-files (recovery restores the single bucket file); both degrade to the
static path with identical output rows.

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
matches group-gathered buffer-to-buffer).  With a worker pool (``workers > 1``) the batch arm's
coordinator keeps all disk IO in serial order and workers handle
classification and bucket build/probe (see :mod:`repro.join.parallel`).
Recursive overflow buckets are always joined serially in the coordinator,
at their in-order sequence point.  Worker failures in phase 2 are absorbed
by :meth:`~repro.join.base.JoinAlgorithm.run_bucket_jobs` (serial retry,
identical rows and counters).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Sized, Tuple

from repro.access.hash_index import HashIndex
from repro.join.base import JoinAlgorithm, JoinSpec
from repro.join.parallel import (
    hybrid_class_chunk_task,
    make_pool,
    precomputed_classifier,
)
from repro.join.partition import (
    SpillWriter,
    hybrid_class,
    partition_fan_out,
    read_bucket,
    resplit_class,
)
from repro.join.vectorized import JoinTable, join_bucket_columnar
from repro.storage.relation import Relation, Row


class _Resplit:
    """Routing state for one adaptively re-split spill bucket."""

    __slots__ = ("sub_buckets", "r_files", "s_writer")

    def __init__(
        self, sub_buckets: int, r_files: List[str], s_writer: SpillWriter
    ) -> None:
        self.sub_buckets = sub_buckets
        self.r_files = r_files
        self.s_writer = s_writer


class HybridHashJoin(JoinAlgorithm):
    """Partitioned hash join with a memory-resident first bucket."""

    name = "hybrid-hash"

    #: Recursion backstop: 2 levels handle |R| up to ~|M|^3 / F pages;
    #: deeper than 8 means the partitioning hash has failed entirely.
    MAX_RECURSION = 8

    #: Runtime-adaptive re-split of skew-hot spill buckets between phases
    #: 1a and 1b (the E24 ablation flips this off for the static baseline).
    adaptive = True

    #: Tallies of the adaptive path, reset at the start of each execution:
    #: buckets re-split, re-splits vetoed by the memory grant, re-splits
    #: killed by an injected chaos fault.
    resplits = 0
    resplit_denied = 0
    resplit_aborts = 0

    def _classify(
        self, key: Any, q: float, buckets: int, depth: int = 0
    ) -> int:
        """Class of ``key``: 0 = resident, 1..B = spill buckets."""
        return hybrid_class(key, q, buckets, depth)

    def _execute(self, spec: JoinSpec, output: Relation) -> None:
        self.resplits = 0
        self.resplit_denied = 0
        self.resplit_aborts = 0
        if not self.batch:
            self._execute_level(spec, output, depth=0)
            return
        pool = make_pool(self.pool_workers())
        try:
            self._execute_level_batch(spec, output, depth=0, pool=pool)
        finally:
            self.finish_pool(pool)

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

    # -- adaptive re-split --------------------------------------------------------

    def _plan_resplit(
        self,
        spec: JoinSpec,
        depth: int,
        count: int,
        key_load: Dict[Any, int],
        capacity: int,
    ) -> Optional[int]:
        """Sub-bucket fan-out for one hot bucket, or None to leave it alone.

        Two deterministic checks, both uncharged bookkeeping over the
        phase-1a counts: the salted re-hash must actually separate the
        bucket's keys into sub-buckets that fit the phase-2 capacity (a
        bucket dominated by one fat key is indivisible -- routing it
        would reshuffle the same overflow and then recurse anyway), and
        the IO forecast must favour routing over static recursion.
        """
        if count <= capacity or len(key_load) < 2:
            return None
        base = max(2, math.ceil(count / capacity))
        for k in (base, base + 1, 2 * base):
            loads = [0] * k
            for key, load in key_load.items():
                loads[resplit_class(key, k, depth)] += load
            if max(loads) <= capacity:
                return k if self._resplit_pays(spec, count, capacity) else None
        return None

    def _resplit_pays(self, spec: JoinSpec, count: int, capacity: int) -> bool:
        """Forecast: does routing beat static phase-2 recursion here?

        A static recursion on the fat pair is itself hybrid: it keeps
        ``q = capacity/count`` of the bucket resident and pays the spill
        round trip only on the rest.  The re-split instead re-reads and
        re-writes the whole R bucket now, double-moves the fraction a
        recursion would have kept resident, and charges every routed S
        tuple a second hash.  This mirrors the ``resplit`` term of
        :func:`repro.cost.join_model.hash_pipeline_forecast`; S's bucket
        share is forecast from the workload-wide S:R tuple ratio (phase
        1b has not run yet, so it cannot be measured).
        """
        p = spec.params
        q = capacity / count
        est_s = count * p.s_tuples / max(1, p.r_tuples)
        r_pages = count / max(1, spec.r.tuples_per_page)
        s_pages = est_s / max(1, spec.s.tuples_per_page)
        saved = (1.0 - q) * (est_s * p.move + 2.0 * s_pages * p.io_seq)
        extra = q * (est_s * p.hash + count * p.move)
        extra += 2.0 * q * r_pages * p.io_seq
        return saved > extra

    def _resplit_hot_buckets(
        self,
        spec: JoinSpec,
        r_files: List[str],
        depth: int,
        counts: List[int],
        key_counts: List[Dict[Any, int]],
    ) -> Dict[int, _Resplit]:
        """Re-split skew-hot spill buckets between phases 1a and 1b.

        A bucket whose build side exceeds the phase-2 hash-table capacity
        -- and whose per-key load forecast says splitting pays (see
        :meth:`_plan_resplit`) -- is read back, re-hashed with an
        independently salted function, and written out as sub-bucket
        files; phase 1b then routes its S tuples straight to the
        sub-buckets.  Decisions are driven purely by the phase-1a counts,
        so they are identical across the tuple, batch and parallel
        executions.  Charges: the bucket re-read (IO), one hash per
        re-hashed R tuple, one move per tuple into the sub-bucket buffers
        plus flush IO -- paid now to save S's fat-bucket round trip.
        """
        resplit: Dict[int, _Resplit] = {}
        if not self.adaptive or depth >= self.MAX_RECURSION:
            return resplit
        capacity = self._bucket_capacity(spec)
        budget = self.effective_memory_pages(spec.memory_pages)
        guard = self.guard
        r_key = spec.r_key
        r_tpp = spec.r.tuples_per_page
        for b, r_file in enumerate(r_files):
            sub_buckets = self._plan_resplit(
                spec, depth, counts[b], key_counts[b], capacity
            )
            if sub_buckets is None:
                continue
            # Mid-join memory-split adjustment: the sub-bucket output
            # buffers must fit the *effective* budget alongside the B
            # buffers already open.  An unrevoked grant sees the planned
            # budget, so guarded and unguarded runs decide identically;
            # only a revoked grant vetoes the re-split, and the bucket
            # falls back to static phase-2 recursion.
            used = len(r_files) + sub_buckets
            if guard is not None and guard.grant is not None:
                guard.grant.charge(used)
            if used > budget:
                self.resplit_denied += 1
                continue
            fault = guard.resplit_fault() if guard is not None else None
            if fault == "abort":
                # Chaos: the decision point fails before any IO; the
                # bucket stays intact for the static path.
                self.resplit_aborts += 1
                continue
            rows = read_bucket(self.disk, r_file)
            self.disk.delete(r_file)
            sub_names = ["%s.sub%d" % (r_file, i) for i in range(sub_buckets)]
            self.counters.hash_key(len(rows))
            # The whole bucket is in memory, so group rows by sub-bucket
            # and rewrite each sub-file with a dedicated single-bucket
            # writer: every flush is a full consecutive run and stays
            # *sequential* -- matching the B == 1 flush discount a static
            # recursion would enjoy, instead of paying random IO.
            groups: List[List[Row]] = [[] for _ in range(sub_buckets)]
            for row in rows:
                groups[resplit_class(r_key(row), sub_buckets, depth)].append(
                    row
                )
            if fault == "midway":
                # Chaos: the re-split dies after partially writing the R
                # sub-files.  Recovery deletes the partial subs, rewrites
                # the bucket as one file, and falls back to static.
                half = len(rows) // 2
                written = 0
                for name, group in zip(sub_names, groups):
                    take = min(len(group), half - written)
                    if take <= 0:
                        break
                    writer = SpillWriter(
                        self.disk, [name], r_tpp, self.counters
                    )
                    try:
                        writer.write_many(0, group[:take])
                    finally:
                        writer.close()
                    written += take
                for name in sub_names:
                    self.disk.delete(name)
                redo = SpillWriter(self.disk, [r_file], r_tpp, self.counters)
                try:
                    redo.write_many(0, rows)
                finally:
                    redo.close()
                self.resplit_aborts += 1
                continue
            sub_files: List[str] = []
            for name, group in zip(sub_names, groups):
                writer = SpillWriter(self.disk, [name], r_tpp, self.counters)
                try:
                    writer.write_many(0, group)
                finally:
                    closed = writer.close()
                sub_files.extend(closed)
            s_names = [
                "%s.d%d.%d.sub%d" % (self.scratch_name(spec, "s"), depth, b, i)
                for i in range(sub_buckets)
            ]
            resplit[b] = _Resplit(
                sub_buckets,
                sub_files,
                SpillWriter(
                    self.disk, s_names, spec.s.tuples_per_page, self.counters
                ),
            )
            self.resplits += 1
        return resplit

    def _assemble_pairs(
        self,
        r_files: List[str],
        s_files: List[str],
        resplit: Dict[int, _Resplit],
        demoted: bool,
        ovf_r: Optional[SpillWriter],
        ovf_s: Optional[SpillWriter],
    ) -> List[Tuple[str, str]]:
        """The phase-2 bucket pair list, with re-split buckets expanded."""
        pairs: List[Tuple[str, str]] = []
        for b in range(len(r_files)):
            plan = resplit.get(b)
            if plan is None:
                pairs.append((r_files[b], s_files[b]))
            else:
                # The bucket's own S file stayed empty (its rows were
                # routed straight to the sub-buckets in phase 1b).
                self.disk.delete(s_files[b])
                pairs.extend(zip(plan.r_files, plan.s_writer.close()))
        if demoted:
            pairs.extend(zip(ovf_r.close(), ovf_s.close()))
        return pairs

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

        track = self.adaptive and buckets > 0 and depth < self.MAX_RECURSION
        counts = [0] * buckets
        key_counts: List[Dict[Any, int]] = [{} for _ in range(buckets)]

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
            cls = self._classify(k, q, buckets, depth)
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
                if track:
                    b = cls - 1
                    counts[b] += 1
                    kc = key_counts[b]
                    kc[k] = kc.get(k, 0) + 1

        r_files = r_writer.close() if r_writer is not None else []
        resplit = (
            self._resplit_hot_buckets(spec, r_files, depth, counts, key_counts)
            if track
            else {}
        )

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
            cls = self._classify(k, q, buckets, depth)
            if cls == 0:
                if demoted:
                    self.counters.hash_key()
                    ovf_s.write(0, row)
                else:
                    for r_row in resident.probe(k):
                        self.emit(output, r_row, row)
            else:
                plan = resplit.get(cls - 1) if resplit else None
                if plan is None:
                    self.counters.hash_key()
                    s_writer.write(cls - 1, row)
                else:
                    # One class hash plus one sub-bucket hash: the hot
                    # tuple goes straight to its sub-bucket, skipping the
                    # fat bucket's write/read/re-hash/re-write round trip.
                    self.counters.hash_key(2)
                    plan.s_writer.write(
                        resplit_class(k, plan.sub_buckets, depth), row
                    )

        s_files = s_writer.close() if s_writer is not None else []
        pairs = self._assemble_pairs(
            r_files, s_files, resplit, demoted, ovf_r, ovf_s
        )
        if not pairs:
            return

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

    # -- batch path (optionally parallel) ----------------------------------------

    def _execute_level_batch(
        self,
        spec: JoinSpec,
        output: Relation,
        depth: int,
        pool: Optional[Any],
    ) -> None:
        params = spec.params
        memory = self.effective_memory_pages(spec.memory_pages)
        buckets, q = partition_fan_out(
            spec.r.page_count, memory, params.fudge
        )
        r_key = spec.r_key
        r_ki, s_ki = spec.r_key_index, spec.s_key_index

        # R0 staged column-wise under a table from keys to row indices.
        resident = JoinTable(spec, self.counters)
        demoted = False
        ovf_r: Optional[SpillWriter] = None
        ovf_s: Optional[SpillWriter] = None

        track = self.adaptive and buckets > 0 and depth < self.MAX_RECURSION
        counts = [0] * buckets
        key_counts: List[Dict[Any, int]] = [{} for _ in range(buckets)]

        classify_r: Optional[Callable[[Sequence[Any]], List[int]]] = None
        classify_s: Optional[Callable[[Sequence[Any]], List[int]]] = None
        if pool is not None and buckets > 0:
            # Worker keys come straight off the packed join-key columns.
            classify_r = precomputed_classifier(
                pool,
                [
                    list(page.column(r_ki))
                    for page in spec.r.pages
                    if len(page)
                ],
                hybrid_class_chunk_task,
                (q, buckets, depth),
            )
            classify_s = precomputed_classifier(
                pool,
                [
                    list(page.column(s_ki))
                    for page in spec.s.pages
                    if len(page)
                ],
                hybrid_class_chunk_task,
                (q, buckets, depth),
            )

        # ---- Phase 1a: partition R, building R0's table page by page. ----
        # Per page the resident class is collected as (keys, slots) and the
        # spill classes as rows; ``demoted`` only changes where the
        # resident class goes -- the overflow writer instead of the table.
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
            keys = page.column(r_ki)
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
            classes = (
                classify_r(keys)
                if classify_r is not None
                else [hybrid_class(k, q, buckets, depth) for k in keys]
            )
            pending: List[List[Row]] = [[] for _ in range(buckets)]
            spilled = 0
            rows: Optional[List[Row]] = None
            res_pos: List[int] = []
            for i, (k, cls) in enumerate(zip(keys, classes)):
                if cls == 0:
                    res_pos.append(i)
                else:
                    if rows is None:
                        rows = page.tuples
                    b = cls - 1
                    pending[b].append(rows[i])
                    spilled += 1
                    if track:
                        counts[b] += 1
                        kc = key_counts[b]
                        kc[k] = kc.get(k, 0) + 1
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
        resplit = (
            self._resplit_hot_buckets(spec, r_files, depth, counts, key_counts)
            if track
            else {}
        )

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
            keys = page.column(s_ki)
            if buckets == 0:
                if demoted:
                    self.counters.hash_key(n)
                    ovf_s.write_many(0, page.tuples)
                else:
                    resident.probe(page, output)
                continue
            classes = (
                classify_s(keys)
                if classify_s is not None
                else [hybrid_class(k, q, buckets, depth) for k in keys]
            )
            pending = [[] for _ in range(buckets)]
            spilled = 0
            routed = 0
            sub_pending: Optional[Dict[int, List[List[Row]]]] = (
                {
                    b: [[] for _ in range(plan.sub_buckets)]
                    for b, plan in resplit.items()
                }
                if resplit
                else None
            )
            rows = None
            probe_pos: List[int] = []
            for i, (k, cls) in enumerate(zip(keys, classes)):
                if cls == 0:
                    probe_pos.append(i)
                else:
                    if rows is None:
                        rows = page.tuples
                    b = cls - 1
                    plan = resplit.get(b) if resplit else None
                    if plan is None:
                        pending[b].append(rows[i])
                        spilled += 1
                    else:
                        sub_pending[b][
                            resplit_class(k, plan.sub_buckets, depth)
                        ].append(rows[i])
                        routed += 1
            if probe_pos:
                if demoted:
                    self.counters.hash_key(len(probe_pos))
                    rows = page.tuples
                    ovf_s.write_many(0, [rows[i] for i in probe_pos])
                else:
                    resident.probe(page, output, probe_pos)
            if spilled or routed:
                # One class hash per spilled tuple; routed (re-split)
                # tuples pay one extra sub-bucket hash each.
                self.counters.hash_key(spilled + 2 * routed)
                for b, bucket_rows in enumerate(pending):
                    s_writer.write_many(b, bucket_rows)
                if sub_pending is not None:
                    for b in sorted(sub_pending):
                        plan = resplit[b]
                        for sub, sub_rows in enumerate(sub_pending[b]):
                            plan.s_writer.write_many(sub, sub_rows)

        # The resident class is probed once per phase, not per page.
        resident.flush(output)
        s_files = s_writer.close() if s_writer is not None else []
        pairs = self._assemble_pairs(
            r_files, s_files, resplit, demoted, ovf_r, ovf_s
        )
        if not pairs:
            return

        # ---- Phase 2: join the spilled bucket pairs. ----
        # The coordinator reads and deletes every bucket in serial order;
        # recursion runs inline (it performs IO at its sequence point),
        # while plain bucket pairs either join serially or go to the pool.
        bucket_capacity = self._bucket_capacity(spec)
        r_index = spec.r.schema.index_of(spec.r_field)
        s_index = spec.s.schema.index_of(spec.s_field)
        fudge = params.fudge

        entries: List[Tuple[str, Any]] = []
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
                if pool is None:
                    self._recurse_on_bucket(
                        spec, output, r_rows, s_rows, depth, batch=True
                    )
                else:
                    # Recurse now (its IO belongs here) but emit into a
                    # side relation so bucket-ordered assembly holds.
                    side = Relation(
                        "%s~side%d" % (output.name, len(entries)),
                        output.schema,
                        output.page_bytes,
                    )
                    self._recurse_on_bucket(
                        spec, side, r_rows, s_rows, depth, batch=True
                    )
                    entries.append(("rel", side))
                continue

            if pool is None:
                join_bucket_columnar(
                    r_rows,
                    s_rows,
                    r_index,
                    s_index,
                    fudge,
                    self.counters,
                    output,
                )
            else:
                entries.append(("job", (r_rows, s_rows, r_index, s_index, fudge)))

        if pool is not None:
            results = iter(
                self.run_bucket_jobs(
                    pool,
                    [payload for kind, payload in entries if kind == "job"],
                )
            )
            for kind, payload in entries:
                if kind == "rel":
                    for page in payload.pages:
                        output.extend_rows(page.tuples)
                else:
                    rows, worker_counters = next(results)
                    self.counters.absorb(worker_counters)
                    output.extend_rows(rows)

    def _recurse_on_bucket(
        self,
        spec: JoinSpec,
        output: Relation,
        r_rows: List[Row],
        s_rows: List[Row],
        depth: int,
        batch: bool = False,
    ) -> None:
        """Re-join one overflowing bucket pair one level deeper.

        Always serial: recursion is rare (skew overflow only) and its IO
        must stay at the coordinator's in-order sequence point.  The
        sub-level plans against the *current* effective grant, so a
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
        if batch:
            self._execute_level_batch(sub_spec, output, depth + 1, pool=None)
        else:
            self._execute_level(sub_spec, output, depth + 1)


__all__ = ["HybridHashJoin"]

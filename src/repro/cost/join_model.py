"""Section 3: closed-form cost models of the four join algorithms.

These are the formulas behind the paper's Figure 1, transcribed from
Sections 3.4-3.7.  Conventions (Section 3.2):

* ``|R|``, ``|S|`` -- pages of the two inputs, ``|R| <= |S|``.
* ``||R||``, ``||S||`` -- tuples.
* ``|M|`` -- pages of main memory granted to the join.
* ``F`` -- the universal fudge factor: a hash table for R needs
  ``|R| * F`` pages.
* Costs ignore the initial read of both relations and the write of the
  result (identical for all four algorithms) and assume no CPU/IO overlap.

The two-pass algorithms (sort-merge, GRACE, hybrid) additionally assume
``sqrt(|S| * F) <= |M|``; :func:`JoinCostModel.validate_memory` enforces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.cost.parameters import CostParameters
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class JoinWorkload:
    """A join problem instance: the inputs and the memory grant."""

    params: CostParameters
    memory_pages: int

    def __post_init__(self) -> None:
        if self.memory_pages < 1:
            raise ConfigurationError("need at least one page of memory")

    @property
    def memory_ratio(self) -> float:
        """Figure 1's x-axis: ``|M| / (|R| * F)``."""
        return self.memory_pages / (self.params.r_pages * self.params.fudge)


def _validate_two_pass(workload: JoinWorkload) -> None:
    p = workload.params
    if workload.memory_pages ** 2 < p.s_pages * p.fudge:
        raise ConfigurationError(
            "two-pass algorithms need sqrt(|S|*F) <= |M|: "
            "|M|=%d, sqrt(|S|*F)=%.1f"
            % (workload.memory_pages, math.sqrt(p.s_pages * p.fudge))
        )


# ---------------------------------------------------------------------------
# Sort-merge (Section 3.4)
# ---------------------------------------------------------------------------

def sort_merge_cost(workload: JoinWorkload) -> float:
    """Cost of the classic sort-merge join.

    Phase 1 pushes every tuple through a priority queue of the ``{M}``
    tuples that fit in memory, yielding runs of ``2*|M|/F`` pages (Knuth's
    replacement selection); phase 2 merges all runs at once through a
    selection tree whose depth is log2 of the run count.

    When ``|M| >= (|R|+|S|)*F`` both relations fit and the algorithm
    degenerates to two in-memory sorts plus a merge -- no intermediate IO.
    This is why the paper notes sort-merge "will improve to approximately
    900 seconds" above a memory ratio of 1.0.
    """
    _validate_two_pass(workload)
    p = workload.params
    m = workload.memory_pages

    if m >= (p.r_pages + p.s_pages) * p.fudge:
        # Fully in-memory: sort each relation with a priority queue sized to
        # the whole relation, then merge -- the "approximately 900 seconds"
        # plateau the paper describes above a memory ratio of 1.0.
        sort_cpu = (
            p.r_tuples * math.log2(max(2, p.r_tuples))
            + p.s_tuples * math.log2(max(2, p.s_tuples))
        ) * (p.comp + p.swap)
        merge_cpu = (p.r_tuples + p.s_tuples) * p.comp
        return sort_cpu + merge_cpu

    # Tuples resident in the priority queue while forming runs.
    queue_tuples_r = max(2.0, m / p.fudge * p.r_tuples_per_page)
    queue_tuples_s = max(2.0, m / p.fudge * p.s_tuples_per_page)

    run_formation = (
        p.r_tuples * math.log2(queue_tuples_r)
        + p.s_tuples * math.log2(queue_tuples_s)
    ) * (p.comp + p.swap)

    runs_r = max(1.0, p.r_pages * p.fudge / (2.0 * m))
    runs_s = max(1.0, p.s_pages * p.fudge / (2.0 * m))
    total_runs = runs_r + runs_s

    write_runs = (p.r_pages + p.s_pages) * p.io_seq
    # Merging many runs alternates between them, so the rereads are random;
    # with one run per relation the two streams read back sequentially.
    read_io = p.io_rand if total_runs > 2 else p.io_seq
    read_runs = (p.r_pages + p.s_pages) * read_io

    merge_inserts = (
        (p.r_tuples + p.s_tuples)
        * math.log2(max(2.0, total_runs))
        * (p.comp + p.swap)
    )

    join_scan = (p.r_tuples + p.s_tuples) * p.comp
    return run_formation + write_runs + read_runs + merge_inserts + join_scan


# ---------------------------------------------------------------------------
# Simple hash (Section 3.5)
# ---------------------------------------------------------------------------

def simple_hash_passes(workload: JoinWorkload) -> int:
    """Number of passes ``A = ceil(|R| * F / |M|)``."""
    p = workload.params
    return max(1, math.ceil(p.r_pages * p.fudge / workload.memory_pages))


def simple_hash_cost(workload: JoinWorkload) -> float:
    """Cost of the multipass simple-hash join.

    Each pass pins a ``|M|``-page slice of R's hash table in memory and
    scans whatever is left of S against it; tuples outside the pass's hash
    range are *passed over* -- rehashed, rewritten, and reread on every
    later pass.  The quadratic passed-over volume is what makes the simple
    hash curve blow up as memory shrinks in Figure 1.
    """
    p = workload.params
    passes = simple_hash_passes(workload)
    # Fraction of R (by tuples) consumed per pass.
    per_pass = min(1.0, workload.memory_pages / (p.r_pages * p.fudge))

    cost = p.r_tuples * (p.hash + p.move)          # build hash table slices
    cost += p.s_tuples * (p.hash + p.comp * p.fudge)  # probe every S tuple once

    passed_r_tuples = 0.0
    passed_s_tuples = 0.0
    for i in range(1, passes):
        remaining = max(0.0, 1.0 - i * per_pass)
        passed_r_tuples += p.r_tuples * remaining
        passed_s_tuples += p.s_tuples * remaining

    cost += passed_r_tuples * (p.hash + p.move)
    cost += passed_s_tuples * (p.hash + p.move)

    passed_r_pages = passed_r_tuples / p.r_tuples_per_page
    passed_s_pages = passed_s_tuples / p.s_tuples_per_page
    cost += (passed_r_pages + passed_s_pages) * 2.0 * p.io_seq  # write + reread
    return cost


# ---------------------------------------------------------------------------
# GRACE hash (Section 3.6)
# ---------------------------------------------------------------------------

def grace_hash_cost(workload: JoinWorkload) -> float:
    """Cost of the GRACE hash join (software phase 2, as in the paper).

    Phase 1 partitions both relations into buckets small enough that each
    R-bucket's hash table fits in memory, staging them through one output
    buffer page per bucket (random writes).  Phase 2 reads each pair of
    buckets back sequentially, builds a hash table for the R-bucket, and
    probes with the S-bucket.  The cost is independent of ``|M|`` above the
    two-pass floor -- GRACE always pays the full partitioning pass, which is
    exactly why hybrid hash dominates it on the right of Figure 1.
    """
    _validate_two_pass(workload)
    p = workload.params
    cost = (p.r_tuples + p.s_tuples) * p.hash            # partition hash
    cost += (p.r_tuples + p.s_tuples) * p.move           # into output buffers
    cost += (p.r_pages + p.s_pages) * p.io_rand          # flush buckets
    cost += (p.r_pages + p.s_pages) * p.io_seq           # reread buckets
    cost += (p.r_tuples + p.s_tuples) * p.hash           # phase-2 hash
    cost += p.r_tuples * p.move                          # build hash tables
    cost += p.s_tuples * p.fudge * p.comp                # probe
    return cost


# ---------------------------------------------------------------------------
# Hybrid hash (Section 3.7)
# ---------------------------------------------------------------------------

def hybrid_partition_plan(workload: JoinWorkload) -> Tuple[int, float]:
    """Choose the hybrid-hash partition count B and resident fraction q.

    Memory holds B output-buffer pages plus a hash table for the resident
    bucket R0, so ``|R0| = (|M| - B) / F`` pages.  The B spilled buckets
    must each satisfy ``|Ri| * F <= |M|``, which gives the minimal

        B = ceil((|R|*F - |M|) / (|M| - 1))

    and ``q = |R0| / |R|``.  ``B == 0`` (q = 1) when R's hash table fits
    outright.
    """
    p = workload.params
    m = workload.memory_pages
    table_pages = p.r_pages * p.fudge
    if table_pages <= m:
        return 0, 1.0
    if m < 2:
        raise ConfigurationError("hybrid hash needs at least 2 pages of memory")
    b = math.ceil((table_pages - m) / (m - 1))
    q = max(0.0, (m - b) / table_pages)
    return b, q


def hybrid_hash_cost(workload: JoinWorkload) -> float:
    """Cost of the hybrid hash join.

    Like GRACE, but bucket R0 never touches disk: its hash table is built
    *during* partitioning, and S0 probes it on the fly.  Only the ``1-q``
    fraction of both relations pays the partitioning IO and the second hash.

    Following the paper's note on Figure 1: with a single output buffer
    (``B == 1``, memory ratio above 0.5) the spill writes are sequential, so
    ``IOrand`` is replaced by ``IOseq`` -- the source of the abrupt
    discontinuity at 0.5 on the x-axis.
    """
    _validate_two_pass(workload)
    p = workload.params
    b, q = hybrid_partition_plan(workload)
    spill = 1.0 - q

    write_io = p.io_seq if b <= 1 else p.io_rand

    cost = (p.r_tuples + p.s_tuples) * p.hash              # partition hash
    cost += (p.r_tuples + p.s_tuples) * spill * p.move     # to output buffers
    cost += (p.r_pages + p.s_pages) * spill * write_io     # flush spilled
    cost += (p.r_tuples + p.s_tuples) * spill * p.hash     # phase-2 hash
    cost += p.s_tuples * p.fudge * p.comp                  # probe all of S
    cost += p.r_tuples * p.move                            # R into hash tables
    cost += (p.r_pages + p.s_pages) * spill * p.io_seq     # reread spilled
    return cost


def hash_pipeline_forecast(
    workload: JoinWorkload,
    hot_fraction: float = 0.0,
) -> Dict[str, float]:
    """Term-by-term forecast of the hybrid-hash pipeline.

    Decomposes :func:`hybrid_hash_cost` into named build / probe / spill
    terms and adds a skew term: ``hot_fraction`` of the *spilled* tuples
    land in buckets whose phase-2 hash table would overflow the grant.
    Section 3.3's recursion repartitions that hot slice in phase 2, so on
    both R and S every hot tuple pays a re-hash and a move, and every hot
    page an extra write/read round trip::

        recursion = hot_fraction * (1 - q) * (
            (||R|| + ||S||) * (hash + move) + (|R| + |S|) * 2 * IOseq)

    Returns ``{"partition", "spill", "build", "probe", "recursion",
    "total"}`` in seconds.  With ``hot_fraction == 0`` the total equals
    :func:`hybrid_hash_cost` exactly, so the forecast degrades to the
    paper's closed form on uniform data.
    """
    _validate_two_pass(workload)
    if not 0.0 <= hot_fraction <= 1.0:
        raise ConfigurationError("hot_fraction must be within [0, 1]")
    p = workload.params
    b, q = hybrid_partition_plan(workload)
    spill_frac = 1.0 - q
    write_io = p.io_seq if b <= 1 else p.io_rand

    partition = (p.r_tuples + p.s_tuples) * p.hash
    spill = (
        (p.r_tuples + p.s_tuples) * spill_frac * p.move
        + (p.r_pages + p.s_pages) * spill_frac * write_io
        + (p.r_pages + p.s_pages) * spill_frac * p.io_seq
        + (p.r_tuples + p.s_tuples) * spill_frac * p.hash
    )
    build = p.r_tuples * p.move
    probe = p.s_tuples * p.fudge * p.comp

    hot = spill_frac * hot_fraction
    round_trip = 2.0 * p.io_seq  # rewrite the slice, read it back
    recursion = hot * (
        (p.r_tuples + p.s_tuples) * (p.hash + p.move)
        + (p.r_pages + p.s_pages) * round_trip
    )

    total = partition + spill + build + probe + recursion
    return {
        "partition": partition,
        "spill": spill,
        "build": build,
        "probe": probe,
        "recursion": recursion,
        "total": total,
    }


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------

ALGORITHMS: Dict[str, Callable[[JoinWorkload], float]] = {
    "sort-merge": sort_merge_cost,
    "simple-hash": simple_hash_cost,
    "grace-hash": grace_hash_cost,
    "hybrid-hash": hybrid_hash_cost,
}


@dataclass(frozen=True)
class JoinCostModel:
    """Convenience wrapper evaluating all four algorithms on one instance."""

    params: CostParameters

    def workload(self, memory_pages: int) -> JoinWorkload:
        return JoinWorkload(params=self.params, memory_pages=memory_pages)

    def validate_memory(self, memory_pages: int) -> None:
        _validate_two_pass(self.workload(memory_pages))

    def costs(self, memory_pages: int) -> Dict[str, float]:
        """Seconds for each algorithm at ``memory_pages`` of memory."""
        w = self.workload(memory_pages)
        return {name: fn(w) for name, fn in ALGORITHMS.items()}

    def best(self, memory_pages: int) -> str:
        """Name of the cheapest algorithm at this memory grant."""
        costs = self.costs(memory_pages)
        return min(costs, key=costs.get)


def figure1_series(
    params: CostParameters,
    ratios: Sequence[float] = (),
    points: int = 40,
) -> List[Dict[str, float]]:
    """Regenerate Figure 1: cost of each algorithm vs ``|M| / (|R|*F)``.

    Sweeps the x-axis from the two-pass floor ``sqrt(|S|*F) / (|R|*F)`` up
    to 1.0 (where all of R's hash table is resident).  Each row carries the
    ratio, the memory grant in pages, and the four modelled costs.
    """
    model = JoinCostModel(params)
    if not ratios:
        floor = params.minimum_memory_pages / (params.r_pages * params.fudge)
        lo, hi = math.log10(floor), 0.0
        ratios = [10 ** (lo + (hi - lo) * i / (points - 1)) for i in range(points)]
    rows: List[Dict[str, float]] = []
    for ratio in ratios:
        memory = params.memory_for_ratio(ratio)
        memory = max(memory, params.minimum_memory_pages)
        row: Dict[str, float] = {
            "ratio": ratio,
            "memory_pages": float(memory),
        }
        row.update(model.costs(memory))
        rows.append(row)
    return rows


__all__ = [
    "ALGORITHMS",
    "JoinCostModel",
    "JoinWorkload",
    "figure1_series",
    "grace_hash_cost",
    "hash_pipeline_forecast",
    "hybrid_hash_cost",
    "hybrid_partition_plan",
    "simple_hash_cost",
    "simple_hash_passes",
    "sort_merge_cost",
]

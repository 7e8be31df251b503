"""E19 -- Governor overhead on the happy path: governed vs ungoverned.

The resource governor (docs/ROBUSTNESS.md) threads a cooperative
cancellation token and an enforced memory grant through every executor
hot loop: one ``guard.checkpoint()`` per page of work, one grant lookup
per memory-budget decision, and one admit/release round-trip per query.
The design claim is that all of this is *pay-for-what-you-use* -- a
governed query that is never cancelled and never revoked must run within
a few percent of the same query with no governor attached, with
bit-identical rows and operation counters.

This benchmark measures that overhead at the Table 2 join shape
(4000x4000 tuples, 40 tuples/page) for the two partitioned hash joins
plus a full-scan selection, and microbenchmarks the admission
round-trip.  Results go to ``benchmarks/out/bench_governor.json`` (the
repo-root ``BENCH_PR3.json`` is the frozen PR-3 run of it).

Knobs:

* ``REPRO_BENCH_SCALE`` scales the tuple counts (CI smoke runs 0.25).
  The <= 5% headline assertion only applies at full scale; smoke scales
  use a loose noise bound because sub-100ms runs jitter.
"""

from __future__ import annotations

import os
import time
from statistics import median
from typing import Any, Callable, Dict, List, Tuple

from repro.cost.counters import OperationCounters
from repro.cost.parameters import CostParameters
from repro.governor import CancellationToken, Governor, GovernorConfig
from repro.governor import MemoryGrant, QueryGuard
from repro.join import ALL_JOINS, JoinSpec
from repro.operators.selection import Comparison, select
from repro.workload.generator import join_inputs

from conftest import emit, emit_json, format_table

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
R_TUPLES = max(200, int(4000 * SCALE))
S_TUPLES = R_TUPLES
PAGE_BYTES = 320  # 40 x 8-byte tuples per page, the Table 2 shape
MEMORY_RATIO = 0.3
REPS = 7
#: Inner repetitions per timed sample: each component is fast (~10ms at
#: full scale), so one sample spans several runs to rise above timer
#: jitter; plain and governed samples are interleaved to cancel drift.
INNER = 16
#: Happy-path governor tax ceiling (acceptance criterion) at full scale;
#: tiny smoke runs are dominated by timer jitter, so the bound loosens.
MAX_OVERHEAD = 0.05 if SCALE >= 1.0 else 0.50

JOINS = ["grace-hash", "hybrid-hash"]
ADMIT_ROUNDS = 2000


def build_instance(tuples: int):
    r, s = join_inputs(
        tuples, tuples, key_domain=20 * tuples, page_bytes=PAGE_BYTES
    )
    params = CostParameters(
        r_pages=r.page_count,
        s_pages=s.page_count,
        r_tuples_per_page=r.tuples_per_page,
        s_tuples_per_page=s.tuples_per_page,
    )
    memory = max(
        params.minimum_memory_pages, params.memory_for_ratio(MEMORY_RATIO)
    )
    return r, s, params, memory


def fresh_guard(memory: int) -> QueryGuard:
    """A guard exactly as the governor grants it: full budget, no cancel."""
    return QueryGuard(token=CancellationToken(qid=1), grant=MemoryGrant(memory))


def timed_pair(plain_fn, governed_fn):
    """Interleaved median-of-REPS samples of INNER runs for both modes.

    Plain and governed samples alternate within each rep, so sustained
    machine noise (CPU contention, frequency shifts) hits both modes of a
    rep alike; the median over reps then discards transient spikes.
    Returns ``(plain_s, plain_out, governed_s, governed_out)`` where the
    seconds are the median single-run time (sample / INNER) and the outs
    are the last run's ``(rows, counters)``.
    """
    samples: Dict[str, List[float]] = {"plain": [], "governed": []}
    outs: Dict[str, Any] = {"plain": None, "governed": None}
    for _ in range(REPS):
        for mode, fn in (("plain", plain_fn), ("governed", governed_fn)):
            start = time.perf_counter()
            for _ in range(INNER):
                outs[mode] = fn()
            samples[mode].append((time.perf_counter() - start) / INNER)
    return (
        median(samples["plain"]),
        outs["plain"],
        median(samples["governed"]),
        outs["governed"],
    )


def join_runner(name: str, governed: bool):
    r, s, params, memory = build_instance(R_TUPLES)

    def run():
        algo = ALL_JOINS[name](batch=True)
        if governed:
            algo.set_guard(fresh_guard(memory))
        result = algo.join(
            JoinSpec(
                r=r, s=s, r_field="rkey", s_field="skey",
                memory_pages=memory, params=params,
            )
        )
        return sorted(result.relation), result.counters.as_dict()

    return run


def select_runner(governed: bool):
    r, _, _, _ = build_instance(R_TUPLES)
    predicate = Comparison("rkey", "<", 10 * R_TUPLES)

    def run():
        counters = OperationCounters()
        token = CancellationToken(qid=1) if governed else None
        rows = list(select(r, predicate, counters, batch=True, token=token))
        return rows, counters.as_dict()

    return run


def admission_microbench() -> float:
    """Mean microseconds for one admit/release round-trip."""
    governor = Governor(GovernorConfig(max_concurrent=4, max_memory_pages=400))
    start = time.perf_counter()
    for _ in range(ADMIT_ROUNDS):
        handle = governor.admit(10)
        governor.release(handle)
    return (time.perf_counter() - start) / ADMIT_ROUNDS * 1e6


def test_governor_happy_path_overhead():
    components: List[Dict[str, Any]] = []
    total_plain = total_governed = 0.0

    cases: List[Tuple[str, Callable[[bool], Callable]]] = [
        ("join:%s" % name, lambda governed, n=name: join_runner(n, governed))
        for name in JOINS
    ]
    cases.append(("operator:select", select_runner))

    for label, make in cases:
        t_plain, out_plain, t_governed, out_governed = timed_pair(
            make(False), make(True)
        )
        assert out_governed[0] == out_plain[0], "%s: rows diverge" % label
        assert out_governed[1] == out_plain[1], "%s: counters diverge" % label
        components.append({
            "component": label,
            "rows": R_TUPLES,
            "plain_s": round(t_plain, 6),
            "governed_s": round(t_governed, 6),
            "overhead": round(t_governed / t_plain - 1.0, 4),
            "identical_results": True,
            "identical_counters": True,
        })
        total_plain += t_plain
        total_governed += t_governed

    admit_us = admission_microbench()
    headline = total_governed / total_plain - 1.0
    payload = {
        "experiment": "bench_governor",
        "scale": SCALE,
        "r_tuples": R_TUPLES,
        "s_tuples": S_TUPLES,
        "page_bytes": PAGE_BYTES,
        "memory_ratio": MEMORY_RATIO,
        "reps": REPS,
        "components": components,
        "admission_us_per_query": round(admit_us, 2),
        "total": {
            "plain_s": round(total_plain, 6),
            "governed_s": round(total_governed, 6),
            "overhead": round(headline, 4),
        },
        "threshold": {"max_overhead": MAX_OVERHEAD, "full_scale": SCALE >= 1.0},
    }
    emit_json("bench_governor", payload)
    emit(
        "governor_overhead",
        format_table(
            ["component", "plain (s)", "governed (s)", "overhead"],
            [
                (c["component"], c["plain_s"], c["governed_s"],
                 "%+.2f%%" % (100 * c["overhead"]))
                for c in components
            ]
            + [("TOTAL", round(total_plain, 4), round(total_governed, 4),
                "%+.2f%%" % (100 * headline))],
        )
        + ["", "admission round-trip: %.1f us/query" % admit_us],
    )

    assert headline <= MAX_OVERHEAD, (
        "governed happy path %.2f%% over ungoverned; budget is %.0f%%"
        % (100 * headline, 100 * MAX_OVERHEAD)
    )

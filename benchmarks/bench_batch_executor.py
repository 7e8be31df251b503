"""E18 -- Page-at-a-time batch executor: wall-clock vs tuple-at-a-time.

The counted cost model (the paper's operation counters) is identical
between the tuple-at-a-time loops and the batch executor -- that is
asserted here, component by component.  What batching buys is *real*
wall-clock time: the Python interpreter overhead of per-tuple function
calls and per-operation counter bumps disappears into page-sized bulk
operations, exactly the argument vectorised / block-at-a-time executors
make against classic Volcano iterators.

This benchmark runs one composite executor workload (the five Section 3
join algorithms plus selection, distinct projection, and both aggregation
engines) at the Table 2 join shape (4000x4000 tuples, 40 tuples/page),
once per execution mode, and emits a machine-readable comparison to
``benchmarks/out/bench_batch_executor.json`` (the repo-root
``BENCH_PR2.json`` is the frozen PR-2 run of it).

Knobs:

* ``REPRO_BENCH_SCALE`` scales the tuple counts (CI smoke runs 0.25).
  The >= 3x headline assertion only applies at full scale; any scale
  asserts batch is not slower than tuple-at-a-time.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.cost.counters import OperationCounters
from repro.cost.parameters import CostParameters
from repro.join import ALL_JOINS, JoinSpec
from repro.operators.aggregate import (
    AggregateFunction,
    AggregateSpec,
    hash_aggregate,
    sort_aggregate,
)
from repro.operators.projection import hash_project
from repro.operators.selection import Comparison, select
from repro.storage.disk import SimulatedDisk
from repro.workload.generator import join_inputs

from conftest import emit, emit_json, format_table

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
R_TUPLES = max(200, int(4000 * SCALE))
S_TUPLES = R_TUPLES
PAGE_BYTES = 320  # 40 x 8-byte tuples per page, the Table 2 shape
MEMORY_RATIO = 0.3
REPS = 3
MIN_SPEEDUP = 3.0 if SCALE >= 1.0 else 1.0

JOINS = ["nested-loops", "simple-hash", "grace-hash", "hybrid-hash", "sort-merge"]


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


def timed(fn: Callable[[], Tuple[Any, Dict[str, int]]]):
    """Best-of-REPS wall seconds plus the last run's (rows, counters)."""
    best = float("inf")
    outcome = None
    for _ in range(REPS):
        start = time.perf_counter()
        outcome = fn()
        best = min(best, time.perf_counter() - start)
    return best, outcome


def join_runner(name: str, tuples: int, **algo_kwargs):
    r, s, params, memory = build_instance(tuples)

    def run():
        algo = ALL_JOINS[name](**algo_kwargs)
        result = algo.join(
            JoinSpec(
                r=r, s=s, r_field="rkey", s_field="skey",
                memory_pages=memory, params=params,
            )
        )
        return sorted(result.relation), result.counters.as_dict()

    return run


def operator_components(r) -> List[Tuple[str, Callable[[bool], Any]]]:
    aggs = [
        AggregateSpec(AggregateFunction.COUNT),
        AggregateSpec(AggregateFunction.SUM, "rpayload"),
    ]
    mid_key = 10 * R_TUPLES
    return [
        (
            "select",
            lambda batch: (lambda c: (
                list(select(r, Comparison("rkey", "<", mid_key), c, batch=batch)),
                c.as_dict(),
            ))(OperationCounters()),
        ),
        (
            "project-distinct",
            lambda batch: (lambda c: (
                sorted(hash_project(
                    r, ["rkey"], True, c,
                    memory_pages=None, disk=SimulatedDisk(c), batch=batch,
                )),
                c.as_dict(),
            ))(OperationCounters()),
        ),
        (
            "hash-aggregate",
            lambda batch: (lambda c: (
                sorted(hash_aggregate(r, ["rkey"], aggs, c, batch=batch)),
                c.as_dict(),
            ))(OperationCounters()),
        ),
        (
            "sort-aggregate",
            lambda batch: (lambda c: (
                list(sort_aggregate(r, ["rkey"], aggs, c, batch=batch)),
                c.as_dict(),
            ))(OperationCounters()),
        ),
    ]


def test_batch_executor_speedup():
    components: List[Dict[str, Any]] = []
    total_tuple = total_batch = 0.0

    for name in JOINS:
        tuples = R_TUPLES
        t_tuple, out_tuple = timed(join_runner(name, tuples, batch=False))
        t_batch, out_batch = timed(join_runner(name, tuples, batch=True))
        assert out_batch[0] == out_tuple[0], "%s: rows diverge" % name
        assert out_batch[1] == out_tuple[1], "%s: counters diverge" % name
        components.append({
            "component": "join:%s" % name,
            "rows": tuples,
            "tuple_s": round(t_tuple, 6),
            "batch_s": round(t_batch, 6),
            "speedup": round(t_tuple / t_batch, 3),
            "identical_results": True,
            "identical_counters": True,
        })
        total_tuple += t_tuple
        total_batch += t_batch

    r, _, _, _ = build_instance(R_TUPLES)
    for name, runner in operator_components(r):
        t_tuple, out_tuple = timed(lambda: runner(False))
        t_batch, out_batch = timed(lambda: runner(True))
        assert out_batch[0] == out_tuple[0], "%s: rows diverge" % name
        assert out_batch[1] == out_tuple[1], "%s: counters diverge" % name
        components.append({
            "component": "operator:%s" % name,
            "rows": R_TUPLES,
            "tuple_s": round(t_tuple, 6),
            "batch_s": round(t_batch, 6),
            "speedup": round(t_tuple / t_batch, 3),
            "identical_results": True,
            "identical_counters": True,
        })
        total_tuple += t_tuple
        total_batch += t_batch

    headline = total_tuple / total_batch
    payload = {
        "experiment": "bench_batch_executor",
        "scale": SCALE,
        "r_tuples": R_TUPLES,
        "s_tuples": S_TUPLES,
        "page_bytes": PAGE_BYTES,
        "memory_ratio": MEMORY_RATIO,
        "reps": REPS,
        "components": components,
        "total": {
            "tuple_s": round(total_tuple, 6),
            "batch_s": round(total_batch, 6),
            "speedup": round(headline, 3),
        },
        "threshold": {"min_speedup": MIN_SPEEDUP, "full_scale": SCALE >= 1.0},
    }
    emit_json("bench_batch_executor", payload)
    emit(
        "batch_executor",
        format_table(
            ["component", "tuple (s)", "batch (s)", "speedup"],
            [
                (c["component"], c["tuple_s"], c["batch_s"], "%.2fx" % c["speedup"])
                for c in components
            ]
            + [("TOTAL", round(total_tuple, 4), round(total_batch, 4),
                "%.2fx" % headline)],
        ),
    )

    assert headline >= MIN_SPEEDUP, (
        "batch executor %.2fx vs tuple-at-a-time; need >= %.1fx"
        % (headline, MIN_SPEEDUP)
    )

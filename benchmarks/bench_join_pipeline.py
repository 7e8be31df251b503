"""E24 -- the skew-adaptive hybrid hash and its pipeline forecast.

Two claims, both measured:

**E24 skew ablation.**  The hybrid hash join's runtime-adaptive
re-split (phase 1a tracks per-spill-bucket key loads; overflowing buckets
are re-split into salted sub-buckets *before* S streams through phase 1b)
against the static baseline (``adaptive=False``), which falls back to the
classic phase-2 recursion.  Adaptive routes S's hot tuples straight to
sub-buckets -- one extra hash each -- where static recursion pays a full
extra write+read round trip for the same tuples.  Zipf ``theta`` in
{0.0, 0.8, 1.2}: rows must be identical everywhere, the modelled seconds
must never regress, and at full scale the skewed rungs must show a strict
adaptive win while uniform stays resplit-free (the forecast gate vetoes
unprofitable re-splits).

**Forecast sanity.**  ``hash_pipeline_forecast`` degrades to the
paper's closed-form ``hybrid_hash_cost`` at ``hot_fraction == 0`` and its
adaptive-vs-static gap widens monotonically with the hot fraction -- the
planner-facing justification for keeping the adaptive path on by default.

Knobs: ``REPRO_BENCH_SCALE`` scales tuple counts (CI smoke runs 0.25);
strict win assertions only apply at full scale.  Emits
``benchmarks/out/bench_join_pipeline.json``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Tuple

from repro.cost.join_model import (
    JoinWorkload,
    hash_pipeline_forecast,
    hybrid_hash_cost,
)
from repro.cost.parameters import CostParameters
from repro.join import HybridHashJoin, JoinSpec
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema
from repro.workload.distributions import zipf_keys

from conftest import emit, emit_json, format_table

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
#: E24 workload shape (see docs/EXPERIMENTS.md): |S| = 4|R|, a key domain
#: wide enough that hot buckets hold many separable keys, narrow pages so
#: per-tuple work dominates, and a grant ~1/7th of R's footprint.
E24_R_TUPLES = max(400, int(4000 * SCALE))
E24_PAGE_BYTES = 512
E24_THETAS = (0.0, 0.8, 1.2)


def make_relation(name, rows, columns, page_bytes):
    schema = Schema([Field(c, DataType.INTEGER) for c in columns])
    rel = Relation(name, schema, page_bytes)
    rel.extend_rows(rows)
    return rel


def chain_spec(r, s, r_field, s_field, memory_pages):
    params = CostParameters(
        r_pages=max(1, min(r.page_count, s.page_count)),
        s_pages=max(1, max(r.page_count, s.page_count)),
        r_tuples_per_page=r.tuples_per_page,
        s_tuples_per_page=s.tuples_per_page,
    )
    return JoinSpec(
        r=r,
        s=s,
        r_field=r_field,
        s_field=s_field,
        memory_pages=memory_pages,
        params=params,
    )


# -- E24 skew ablation ----------------------------------------------------------


def e24_inputs(theta: float):
    nr, ns = E24_R_TUPLES, 4 * E24_R_TUPLES
    domain = max(16, nr // 8)
    r_keys = zipf_keys(nr, domain, theta=theta, seed=31)
    s_keys = zipf_keys(ns, domain, theta=theta, seed=32)
    r = make_relation(
        "zr", [(k, i) for i, k in enumerate(r_keys)], ("rk", "rp"),
        page_bytes=E24_PAGE_BYTES,
    )
    s = make_relation(
        "zs", [(k, i) for i, k in enumerate(s_keys)], ("sk", "sp"),
        page_bytes=E24_PAGE_BYTES,
    )
    return r, s, domain


def e24_run(theta: float, adaptive: bool):
    r, s, _ = e24_inputs(theta)
    memory_pages = max(3, int(r.page_count * 1.2 / 7.0) + 1)
    algo = HybridHashJoin()
    algo.adaptive = adaptive
    start = time.perf_counter()
    result = algo.join(chain_spec(r, s, "rk", "sk", memory_pages))
    wall = time.perf_counter() - start
    return algo, result, wall


def skew_ablation() -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    rows: List[Dict[str, Any]] = []
    for theta in E24_THETAS:
        adaptive, a_result, a_wall = e24_run(theta, adaptive=True)
        static, s_result, s_wall = e24_run(theta, adaptive=False)
        assert sorted(a_result.relation) == sorted(s_result.relation), (
            "theta=%.1f: adaptive and static joins disagree on rows" % theta
        )
        assert static.resplits == 0
        a_cost = a_result.modelled_seconds
        s_cost = s_result.modelled_seconds
        # The forecast gate only approves profitable re-splits, so the
        # adaptive arm must never model slower than the static fallback.
        assert a_cost <= s_cost + 1e-9, (
            "theta=%.1f: adaptive %.4fs regressed vs static %.4fs"
            % (theta, a_cost, s_cost)
        )
        if SCALE >= 1.0:
            if theta >= 0.8:
                assert adaptive.resplits > 0, (
                    "theta=%.1f: skew should trigger a re-split" % theta
                )
                assert a_cost < s_cost, (
                    "theta=%.1f: adaptive should strictly win" % theta
                )
        rows.append({
            "theta": theta,
            "output_rows": a_result.cardinality,
            "resplits": adaptive.resplits,
            "resplit_denied": adaptive.resplit_denied,
            "adaptive_model_s": round(a_cost, 6),
            "static_model_s": round(s_cost, 6),
            "model_saving_s": round(s_cost - a_cost, 6),
            "adaptive_wall_s": round(a_wall, 6),
            "static_wall_s": round(s_wall, 6),
            "identical_results": True,
        })
    r, _, domain = e24_inputs(0.0)
    config = {
        "r_tuples": E24_R_TUPLES,
        "s_tuples": 4 * E24_R_TUPLES,
        "key_domain": domain,
        "page_bytes": E24_PAGE_BYTES,
        "memory_pages": max(3, int(r.page_count * 1.2 / 7.0) + 1),
    }
    return config, rows


# -- forecast sanity -------------------------------------------------------------


def forecast_sanity() -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    params = CostParameters(r_pages=1000, s_pages=4000)
    workload = JoinWorkload(params, memory_pages=100)
    closed_form = hybrid_hash_cost(workload)
    baseline = hash_pipeline_forecast(workload, hot_fraction=0.0)
    assert abs(baseline["total"] - closed_form) < 1e-9, (
        "forecast at hot_fraction=0 must equal hybrid_hash_cost"
    )
    rows: List[Dict[str, Any]] = []
    prev_gap = -1.0
    for hot in (0.0, 0.1, 0.3, 0.5):
        fc_adaptive = hash_pipeline_forecast(workload, hot, adaptive=True)
        fc_static = hash_pipeline_forecast(workload, hot, adaptive=False)
        gap = fc_static["total"] - fc_adaptive["total"]
        assert fc_adaptive["total"] <= fc_static["total"] + 1e-12
        assert gap >= prev_gap - 1e-12, "gap must grow with hot_fraction"
        prev_gap = gap
        rows.append({
            "hot_fraction": hot,
            "adaptive_total_s": round(fc_adaptive["total"], 4),
            "static_total_s": round(fc_static["total"], 4),
            "gap_s": round(gap, 4),
            "resplit_term_s": round(fc_adaptive["resplit"], 4),
        })
    workload_doc = {
        "r_pages": 1000,
        "s_pages": 4000,
        "memory_pages": 100,
        "closed_form_s": round(closed_form, 4),
    }
    return workload_doc, rows


def test_skew_ablation_and_forecast():
    e24_config, e24_rows = skew_ablation()
    forecast_workload, forecast_rows = forecast_sanity()

    payload = {
        "experiment": "bench_join_pipeline",
        "scale": SCALE,
        "e24_skew": {"config": e24_config, "rows": e24_rows},
        "forecast": {"workload": forecast_workload, "rows": forecast_rows},
    }
    emit_json("bench_join_pipeline", payload)
    emit(
        "join_pipeline",
        format_table(
            ["theta", "resplits", "adaptive model (s)", "static model (s)",
             "saving (s)"],
            [
                (e["theta"], e["resplits"], e["adaptive_model_s"],
                 e["static_model_s"], e["model_saving_s"])
                for e in e24_rows
            ],
        )
        + [""]
        + format_table(
            ["hot fraction", "adaptive fc (s)", "static fc (s)", "gap (s)"],
            [
                (f["hot_fraction"], f["adaptive_total_s"],
                 f["static_total_s"], f["gap_s"])
                for f in forecast_rows
            ],
        ),
    )

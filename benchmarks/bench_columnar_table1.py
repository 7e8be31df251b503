"""E22 -- Executable indexes over packed pages (the Table 1 story).

**The Table 1 access-method crossover, by measurement.**
Section 2 of the paper ranks access methods by CPU cost: an index lookup
costs a ``log2(n)`` descent plus ``s*n`` qualifying-tuple fetches (one
comparison + one TID dereference each), while a full scan pays one
predicate comparison for every tuple.  Equating the two, the index wins
below a *formula-predicted* selectivity crossover

    s* ~= comp / (comp + move)            (executed-operator charges)

(the planner's version adds the scan node's per-tuple touch, giving the
more generous ``2*comp/(comp+move)``).  This benchmark builds executable
B+-tree and AVL indexes over a packed relation and walks a selectivity
ladder, recording for every rung the wall-clock **and** the modelled
seconds of full-scan vs index-range-scan execution, then locates the
measured crossover and asserts it brackets the formula's prediction.
Point lookups (selectivity ``1/n``, far below any crossover) must beat
the full scan on wall-clock for both tree indexes.

Both sides run the production batch arm: the scan through the predicate's
column mask, the index probe through the TID gather.

Knobs: ``REPRO_BENCH_SCALE`` scales tuple counts (CI smoke runs 0.25).
Emits ``benchmarks/out/bench_columnar_table1.json``.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.access.avl import AVLTree
from repro.access.btree import BPlusTree
from repro.cost.counters import OperationCounters
from repro.cost.parameters import CostParameters
from repro.operators.selection import Comparison, select, select_via_index
from repro.storage.relation import Relation
from repro.storage.tuples import DataType, Field, Schema

from conftest import emit, emit_json, format_table

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
N_TUPLES = max(200, int(4000 * SCALE))
PAGE_BYTES = 4096  # full pages: hundreds of tuples per packed column buffer
REPS = 3

#: Selectivity ladder for the range-predicate crossover walk.
LADDER = [0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0]
#: Point lookups per timing batch (amortises per-call noise).
POINT_PROBES = 64


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Best-of-REPS wall seconds plus the last run's outcome."""
    best = float("inf")
    outcome = None
    for _ in range(REPS):
        start = time.perf_counter()
        outcome = fn()
        best = min(best, time.perf_counter() - start)
    return best, outcome


# -- executable indexes vs full scans -------------------------------------------


def build_indexed_relation():
    """A packed two-column relation with B+-tree and AVL indexes on key.

    Keys are a shuffled permutation of ``0..n-1`` so a range predicate
    ``key < c`` has selectivity exactly ``c/n`` and the trees are built
    from unordered input (the honest case).
    """
    schema = Schema([
        Field("key", DataType.INTEGER),
        Field("payload", DataType.FLOAT),
    ])
    relation = Relation("indexed", schema, PAGE_BYTES)
    keys = list(range(N_TUPLES))
    random.Random(7).shuffle(keys)
    for k in keys:
        relation.insert_unchecked((k, float(k) * 0.5))

    trees = {}
    for name, factory in (("btree", BPlusTree), ("avl", AVLTree)):
        counters = OperationCounters()
        index = factory(counters=counters)
        for tid, row in relation.scan():
            index.insert(row[0], tid)
        trees[name] = (index, counters)
    return relation, trees


def measured_access(relation, trees, params: CostParameters):
    """Walk the selectivity ladder; return (ladder rows, point-lookup row)."""
    n = relation.cardinality

    def scan_run(pred):
        c = OperationCounters()
        out = select(relation, pred, c)
        return sorted(out), c.cost(params)

    def index_run(name, pred):
        index, tree_counters = trees[name]
        c = OperationCounters()
        before = tree_counters.cost(params)
        out = select_via_index(relation, index, pred, c)
        cost = c.cost(params) + tree_counters.cost(params) - before
        return sorted(out), cost

    ladder_rows = []
    for s in LADDER:
        pred = Comparison("key", "<", int(s * n))
        scan_t, (scan_rows, scan_cost) = timed(lambda: scan_run(pred))
        entry: Dict[str, Any] = {
            "selectivity": s,
            "matching_rows": int(s * n),
            "scan_wall_s": round(scan_t, 6),
            "scan_model_s": round(scan_cost, 6),
        }
        for name in ("btree", "avl"):
            idx_t, (idx_rows, idx_cost) = timed(lambda: index_run(name, pred))
            assert idx_rows == scan_rows, (
                "%s range scan at s=%.2f returned different rows" % (name, s)
            )
            entry["%s_wall_s" % name] = round(idx_t, 6)
            entry["%s_model_s" % name] = round(idx_cost, 6)
        ladder_rows.append(entry)

    # Point lookups: POINT_PROBES equality probes spread over the domain.
    probe_keys = [int(i * n / POINT_PROBES) for i in range(POINT_PROBES)]

    def point_scan():
        c = OperationCounters()
        rows = []
        for k in probe_keys:
            rows.extend(select(relation, Comparison("key", "=", k), c))
        return sorted(rows), c.cost(params)

    def point_index(name):
        index, tree_counters = trees[name]
        c = OperationCounters()
        before = tree_counters.cost(params)
        rows = []
        for k in probe_keys:
            rows.extend(
                select_via_index(relation, index, Comparison("key", "=", k), c)
            )
        cost = c.cost(params) + tree_counters.cost(params) - before
        return sorted(rows), cost

    scan_t, (scan_rows, scan_cost) = timed(point_scan)
    point = {
        "probes": POINT_PROBES,
        "scan_wall_s": round(scan_t, 6),
        "scan_model_s": round(scan_cost, 6),
    }
    for name in ("btree", "avl"):
        idx_t, (idx_rows, idx_cost) = timed(lambda: point_index(name))
        assert idx_rows == scan_rows, "%s point lookups diverge" % name
        point["%s_wall_s" % name] = round(idx_t, 6)
        point["%s_model_s" % name] = round(idx_cost, 6)
    return ladder_rows, point


def model_crossover(ladder_rows: List[Dict[str, Any]], tree: str) -> float:
    """First ladder selectivity where the modelled scan beats the index."""
    for entry in ladder_rows:
        if entry["scan_model_s"] <= entry["%s_model_s" % tree]:
            return entry["selectivity"]
    return float("inf")


def test_table1_crossover_by_measurement():
    params = CostParameters()
    relation, trees = build_indexed_relation()
    stats = relation.storage_stats()
    assert stats["packed_columns"] == stats["total_columns"] > 0
    ladder_rows, point = measured_access(relation, trees, params)

    # The formula-predicted crossovers (see module docstring): executed
    # operators charge comp per scanned tuple vs (comp + move) per
    # qualifying tuple; the planner's ScanNode adds one more comp touch.
    predicted_exec = params.comp / (params.comp + params.move)
    predicted_planner = 2 * params.comp / (params.comp + params.move)

    crossovers = {t: model_crossover(ladder_rows, t) for t in ("btree", "avl")}
    for tree, crossing in crossovers.items():
        # Below the predicted crossover the index must win on the model...
        for entry in ladder_rows:
            if entry["selectivity"] <= 0.05:
                assert entry["%s_model_s" % tree] < entry["scan_model_s"], (
                    "%s model should win at s=%.2f" % (tree, entry["selectivity"])
                )
            # ...and well above it the scan must win.
            if entry["selectivity"] >= 0.5:
                assert entry["scan_model_s"] < entry["%s_model_s" % tree], (
                    "scan model should win at s=%.2f" % entry["selectivity"]
                )
        # The measured crossover brackets the formula's prediction.
        assert 0.05 < crossing <= 0.5, (
            "%s crossover %.3f escaped the predicted band around %.3f"
            % (tree, crossing, predicted_exec)
        )

    # Point lookups (selectivity 1/n) sit far below any crossover: the
    # trees must beat the full scan on wall clock, not just on the model.
    for tree in ("btree", "avl"):
        assert point["%s_wall_s" % tree] < point["scan_wall_s"], (
            "%s point lookups (%.6fs) should beat full scans (%.6fs)"
            % (tree, point["%s_wall_s" % tree], point["scan_wall_s"])
        )
        assert point["%s_model_s" % tree] < point["scan_model_s"]

    payload = {
        "experiment": "bench_columnar_table1",
        "scale": SCALE,
        "tuples": N_TUPLES,
        "page_bytes": PAGE_BYTES,
        "reps": REPS,
        "table1": {
            "storage_stats": stats,
            "ladder": ladder_rows,
            "point_lookups": point,
            "predicted_crossover_exec": round(predicted_exec, 4),
            "predicted_crossover_planner": round(predicted_planner, 4),
            "measured_model_crossover": crossovers,
        },
    }
    emit_json("bench_columnar_table1", payload)
    emit(
        "columnar_table1",
        format_table(
            ["s", "scan model", "btree model", "avl model", "scan wall",
             "btree wall", "avl wall"],
            [
                (e["selectivity"], e["scan_model_s"], e["btree_model_s"],
                 e["avl_model_s"], e["scan_wall_s"], e["btree_wall_s"],
                 e["avl_wall_s"])
                for e in ladder_rows
            ],
        )
        + [
            "",
            "predicted crossover (exec charges)  s* = %.3f" % predicted_exec,
            "predicted crossover (planner)       s* = %.3f" % predicted_planner,
            "measured model crossover            btree %.3f  avl %.3f"
            % (crossovers["btree"], crossovers["avl"]),
        ],
    )

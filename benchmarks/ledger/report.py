"""From pass records to named metrics.

Three tables live here.  :data:`END_TO_END` and :data:`PER_LAYER` are the
names, units and directions ``BENCHMARK.json`` repeats (a test keeps them
in step); :data:`MOVES` says, for each per-layer metric, which end-to-end
metric it should move on which workload -- ``BENCHMARK.json`` entries may
carry a name, a unit and a direction and nothing else, so the mapping is
kept here and in README.md.  :data:`LEDGER_ONLY` are the two end-to-end
metrics that exist on some workloads only and therefore cannot be in
``BENCHMARK.json``; ``compare`` and ``--calibrate`` judge them beside the
other six.

:func:`end_to_end` computes the first table from an untraced run,
:func:`per_layer` the second from a traced one.  Every time is what the
clock read.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cost.counters import OperationCounters
from repro.cost.parameters import TABLE2_DEFAULTS

import stats
import workloads

Metric = Tuple[str, str, str]  # (name, unit, better)

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
#: The one place results and traces are written.
OUT = os.path.join(_HERE, "out")


def record_path(workload: str, seed: int, trace: bool, full: bool) -> str:
    """Where a run's record goes.  Anything smaller than full scale is a
    ``_partial`` file, which ``compare`` refuses."""
    return os.path.join(OUT, "%s_seed%d_t%d%s.json" % (
        workload, seed, int(trace), "" if full else "_partial"))


def manifest() -> Dict[str, Any]:
    """``BENCHMARK.json``: the run length, and the bounds of
    :data:`END_TO_END`."""
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


END_TO_END: Tuple[Metric, ...] = (
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_W, _D, _J, _B = workloads.WORKLOADS

#: (name, unit, better, bound, workloads that have it).  The paper's clock
#: is an exact count where one caller drives the engine, and zero where no
#: SQL runs; a restart exists only where there is a durable log.
LEDGER_ONLY: Tuple[Tuple[str, str, str, float, Tuple[str, ...]], ...] = (
    ("modelled_ms_per_op", "model_ms", "lower", 0.01, (_D, _J)),
    ("restart_ms", "ms", "lower", 0.25, (_B,)),
)

_TIMES = ("throughput_ops_s", "latency_p50_ms", "latency_p95_ms", "cpu_ms_per_op")
_SERVER = (("cpu_ms_per_op", "latency_p50_ms"), (_W, _B))
_SESSION = (("cpu_ms_per_op",), (_W, _B))
_HOP = (("latency_p50_ms",), (_B, _W))
_BANK = (("latency_p50_ms", "throughput_ops_s"), (_B,))
_RESTART = (("restart_ms",), (_B,))
_LOCKS = (("cpu_ms_per_op",), (_B,))
_GOVERNOR = (("latency_p50_ms",), (_W,))
_PLANNER = (("latency_p50_ms",), (_W, _D))
_OPERATORS = (("throughput_ops_s", "latency_p95_ms"), (_W, _D))
_JOIN = (_TIMES, (_J, _W, _D))
_STORAGE = (("latency_p95_ms", "peak_rss_mb"), (_D,))
_COST = (("modelled_ms_per_op",), (_D, _J, _W))
_HARNESS: Tuple[Tuple[str, ...], Tuple[str, ...]] = ((), ())

#: (name, unit, better, (end-to-end metrics it should move, on workloads)).
_LAYERS = (
    ("server.protocol.encode_us_per_frame", "us", "lower", _SERVER),
    ("server.protocol.decode_us_per_frame", "us", "lower", _SERVER),
    ("server.protocol.bytes_per_op", "B", "lower", _SERVER),
    ("server.net.frames_per_op", "count", "lower", _HOP),
    ("server.net.hop_ms_per_frame", "ms", "lower", _HOP),
    ("server.session.execute_ms_per_frame", "ms", "lower", _SESSION),
    ("server.session.lock_parks", "count", "lower", _SESSION),
    ("server.session.retries", "count", "lower", _SESSION),
    ("server.bank.commit_ms_per_txn", "ms", "lower", _BANK),
    ("server.bank.group_wait_ms_per_txn", "ms", "lower", _BANK),
    ("server.bank.mean_group_size", "count", "higher", _BANK),
    ("server.bank.timer_flush_share", "%", "lower", _BANK),
    ("server.bank.log_records_per_txn", "count", "lower", _RESTART),
    ("server.bank.recover_records_per_ms", "1/ms", "higher", _RESTART),
    ("recovery.lock_table.acquire_us_per_lock", "us", "lower", _LOCKS),
    ("recovery.lock_table.waits", "count", "lower", _LOCKS),
    ("governor.admit_us_per_stmt", "us", "lower", _GOVERNOR),
    ("governor.queue_wait_ms_per_stmt", "ms", "lower", _GOVERNOR),
    ("governor.rejections", "count", "lower", _GOVERNOR),
    ("planner.parse_ms_per_stmt", "ms", "lower", _PLANNER),
    ("planner.plan_ms_per_stmt", "ms", "lower", _PLANNER),
    ("planner.reuse_hit_ratio", "%", "higher", _PLANNER),
    ("planner.reuse_evictions", "count/op", "lower", _PLANNER),
    ("planner.reuse_invalidated_per_write", "count", "lower", (("latency_p50_ms",), (_D,))),
    ("operators.self_ms_per_stmt", "ms", "lower", _OPERATORS),
    ("operators.rows_examined_per_row_returned", "count", "lower", _OPERATORS),
    ("join.self_ms_per_join", "ms", "lower", _JOIN),
    ("join.joins_per_op", "count", "lower", _JOIN),
    ("join.spill_pages_per_op", "count", "lower", (_TIMES, (_J,))),
    ("join.resplits_per_op", "count", "lower", (_TIMES, (_J,))),
    ("access.lookup_us_per_probe", "us", "lower", (("latency_p50_ms",), (_W,))),
    ("access.maintain_us_per_row_written", "us", "lower", (("throughput_ops_s",), (_D,))),
    ("storage.insert_us_per_row", "us", "lower", _STORAGE),
    ("storage.delete_ms_per_stmt", "ms", "lower", _STORAGE),
    ("storage.packed_fraction", "%", "higher", _STORAGE),
    ("storage.buffer_bytes_per_row", "B", "lower", _STORAGE),
    ("core.database.write_lock_wait_ms_per_write", "ms", "lower", _STORAGE),
    ("cost.comparisons_per_op", "count", "lower", _COST),
    ("cost.hashes_per_op", "count", "lower", _COST),
    ("cost.moves_per_op", "count", "lower", _COST),
    ("cost.sequential_ios_per_op", "count", "lower", _COST),
    ("cost.random_ios_per_op", "count", "lower", _COST),
    ("cost.modelled_ms_per_op", "model_ms", "lower", _COST),
) + tuple(
    (
        "class.%s.p50_ms" % cls, "ms", "lower",
        (
            ("latency_p50_ms", "latency_p95_ms"),
            tuple(w for w in workloads.WORKLOADS if cls in workloads.classes_of(w)),
        ),
    )
    for cls in workloads.ALL_CLASSES
) + (
    ("harness.steadiness", "%", "lower", _HARNESS),
    ("harness.stall_share", "%", "lower", _HARNESS),
    ("harness.trace_overhead_ratio", "ratio", "higher", _HARNESS),
    ("harness.self_time_coverage", "ratio", "higher", _HARNESS),
    ("harness.kernel_ms", "ms", "lower", _HARNESS),
)

PER_LAYER: Tuple[Metric, ...] = tuple(layer[:3] for layer in _LAYERS)
#: per-layer metric -> (end-to-end metrics it should move, on workloads);
#: empty for the harness's own readings.
MOVES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    layer[0]: layer[3] for layer in _LAYERS
}

#: ``cpu_ms_per_op`` is read from this share of the measured passes, the
#: ones that used the least CPU.  A pass's wall time has percentiles to
#: feed, so half the passes are kept for it; its CPU time is one number,
#: and timeit's rule can be followed further.  The machine's slow spells
#: inflate CPU time as they do wall time, for ``bank_wire`` (eighteen
#: context switches an operation, every one onto cold caches) most of all:
#: over three sets of ten runs of it the fastest half by wall time spread
#: 5.3 % and 10.4 % in two ordinary sets and 14.4 % in one a slow spell ran
#: through, the least-CPU eighth 3.5 %, 5.8 % and 10.7 %.  On the other three
#: workloads the two rules read within two points of each other.
CPU_SHARE = 1 / 8

_COUNTER_FIELDS = (
    "comparisons", "hashes", "moves", "swaps", "sequential_ios", "random_ios",
)


class PassResult:
    """One timed pass, after verification."""

    __slots__ = ("wall", "cpu", "ops")

    def __init__(
        self, wall: float, cpu: Sequence[float], ops: List["OpResult"]
    ) -> None:
        self.wall = wall
        #: CPU seconds of every process that worked in the pass.
        self.cpu = sum(cpu)
        self.ops = ops


class OpResult:
    __slots__ = ("cls", "kind", "seconds", "ok", "counters", "trace")

    def __init__(self, cls, kind, seconds, ok, counters, trace=None) -> None:
        self.cls = cls
        self.kind = kind
        self.seconds = seconds
        self.ok = ok
        self.counters = counters
        #: Merged per-operation trace (spans, notes) on a traced pass.
        self.trace = trace


def steady(passes: Sequence[PassResult]) -> List[PassResult]:
    chosen = stats.steady_half([p.wall for p in passes], len(passes[0].ops))
    return [passes[i] for i in chosen]


def _latencies(passes: Sequence[PassResult]) -> List[float]:
    """Pooled latencies; a failed or wrong operation misses every limit,
    so it ranks above everything that succeeded."""
    return [
        op.seconds if op.ok else float("inf") for p in passes for op in p.ops
    ]


def _finite(value: float, pool: Sequence[float]) -> float:
    if value != float("inf"):
        return value
    finite = [v for v in pool if v != float("inf")]
    return max(finite) if finite else 0.0


def modelled_seconds(counters: Dict[str, int]) -> float:
    """The paper's clock: operation counts times the Table 2 weights."""
    return OperationCounters(**counters).cost(TABLE2_DEFAULTS)


def cost_totals(passes: Sequence[PassResult]) -> Dict[str, float]:
    totals = dict.fromkeys(_COUNTER_FIELDS, 0)
    for p in passes:
        for op in p.ops:
            if op.counters:
                for field in _COUNTER_FIELDS:
                    totals[field] += op.counters.get(field, 0)
    return totals


def end_to_end(
    workload: str,
    passes: Sequence[PassResult],
    setup_seconds: Sequence[float],
    peak_rss_mb: float,
    restart: Optional[Dict[str, Any]],
    kernel_seconds: Sequence[float],
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Any]]:
    """(the :data:`END_TO_END` metrics, the :data:`LEDGER_ONLY` metrics
    this workload has, detail).  Wall-clock metrics use the steady half
    only and ``cpu_ms_per_op`` the least-CPU eighth (:data:`CPU_SHARE`); the
    untrimmed values go in the detail record."""
    half = steady(passes)
    ops_ok = sum(1 for p in half for op in p.ops if op.ok)
    pool = _latencies(half)
    p95 = stats.supported_percentile(len(pool), 95.0)
    metrics = {
        "setup_s": stats.median_of_quickest(setup_seconds),
        "throughput_ops_s": ops_ok / sum(p.wall for p in half),
        "latency_p50_ms": 1e3 * _finite(stats.nearest_rank(pool, 50.0), pool),
        "latency_p95_ms": 1e3 * _finite(stats.nearest_rank(pool, p95), pool),
        "cpu_ms_per_op": 1e3 * stats.mean_fastest(
            [p.cpu / len(p.ops) for p in passes], CPU_SHARE
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    every = _latencies(passes)
    all_ops = sum(len(p.ops) for p in passes)
    totals = cost_totals(passes)
    measured = {
        "modelled_ms_per_op": 1e3 * modelled_seconds(totals) / all_ops,
        "restart_ms": restart["restart_ms"] if restart else 0.0,
    }
    ledger_only = {
        name: measured[name]
        for name, _unit, _better, _bound, where in LEDGER_ONLY if workload in where
    }
    detail = {
        "passes": len(passes),
        "steady_passes": len(half),
        "latency_samples": len(pool),
        "latency_high_percentile": p95,
        "samples_beyond_high_percentile": stats.samples_beyond(len(pool), p95),
        "all_passes": {
            "throughput_ops_s": all_ops / sum(p.wall for p in passes),
            "latency_p50_ms": 1e3 * _finite(stats.nearest_rank(every, 50.0), every),
            "latency_p95_ms": 1e3 * _finite(stats.nearest_rank(every, p95), every),
            "cpu_ms_per_op": 1e3 * sum(p.cpu for p in passes) / all_ops,
        },
        "setup_seconds": list(setup_seconds),
        "pass_wall_seconds": [p.wall for p in passes],
        "pass_cpu_seconds": [p.cpu for p in passes],
        "op_classes": [op.cls for op in passes[0].ops],
        "op_seconds": [[round(op.seconds, 7) for op in p.ops] for p in passes],
        "steadiness": stats.spread([p.wall for p in passes]),
        "stall_share": stall_share(passes, half),
        # The machine beside the work (see machine.py): a reading, never a
        # correction.
        "kernel_ms": 1e3 * stats.quartiles(kernel_seconds)[1],
        "kernel_seconds": [round(k, 6) for k in kernel_seconds],
        # Exact counts (they do not depend on which passes were steady).
        "cost_per_op": {k: v / all_ops for k, v in totals.items()},
        "modelled_ms_per_op": measured["modelled_ms_per_op"],
    }
    return metrics, ledger_only, detail


def stall_share(passes: Sequence[PassResult], half: Sequence[PassResult]) -> float:
    """Share of all measured wall time above what the steady half
    predicts -- stalls the trimming hides from the named metrics."""
    total = sum(p.wall for p in passes)
    predicted = len(passes) * sum(p.wall for p in half) / len(half)
    return max(0.0, (total - predicted) / total)


# -- per-layer -----------------------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class _Sums:
    """Span and note sums over the operations of some passes."""

    def __init__(self, passes: Sequence[PassResult]) -> None:
        self.count: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.notes: Dict[str, float] = {}
        for p in passes:
            for op in p.ops:
                if op.trace is not None:
                    self._add(op.trace)

    def _add(self, trace: Dict[str, Any]) -> None:
        for name, (count, self_s, total_s) in trace["spans"].items():
            self.count[name] = self.count.get(name, 0) + count
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s
            self.total_s[name] = self.total_s.get(name, 0.0) + total_s
        for name, amount in trace["notes"].items():
            self.notes[name] = self.notes.get(name, 0) + amount

    def self_per_call(self, name: str, unit: float) -> float:
        return unit * _ratio(self.self_s.get(name, 0.0), self.count.get(name, 0))

    def total_per_call(self, name: str, unit: float) -> float:
        return unit * _ratio(self.total_s.get(name, 0.0), self.count.get(name, 0))


class _Counts:
    """Differences between two snapshots of the ``*_stats()`` surfaces."""

    def __init__(self, before: Dict[str, Any], after: Dict[str, Any]) -> None:
        self.before = before
        self.after = after

    def delta(self, *path: str) -> float:
        a: Any = self.after
        b: Any = self.before
        for key in path:
            a = a.get(key, {}) if isinstance(a, dict) else {}
            b = b.get(key, {}) if isinstance(b, dict) else {}
        return (a or 0) - (b or 0)

    def sessions(self, key: str) -> float:
        """Sum over the live sessions of how far ``key`` moved."""
        before = {s["session"]: s for s in self.before.get("sessions", [])}
        return sum(
            info[key] - before.get(info["session"], {}).get(key, 0)
            for info in self.after.get("sessions", [])
        )

    def flushed_txns(self) -> float:
        """Transactions flushed in groups (``bank_stats`` exposes the
        running mean group size and the group count, not their product)."""
        def so_far(snapshot: Dict[str, Any]) -> float:
            bank = snapshot.get("bank", {})
            return bank.get("mean_group_size", 0.0) * bank.get("groups_flushed", 0)
        return so_far(self.after) - so_far(self.before)


def per_layer(
    traced: Sequence[PassResult],
    untraced: Sequence[PassResult],
    stats_before: Dict[str, Any],
    stats_after: Dict[str, Any],
    background: Dict[str, Any],
    restart: Optional[Dict[str, Any]],
    kernel_seconds: Sequence[float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``traced`` passes carry merged per-operation traces; span times come
    from their steady half.  Counts come from the two ``*_stats()``
    snapshots taken around the traced passes, so they cover all of them.
    ``background`` holds the server's spans that ran outside any operation
    (its event loop encoding and decoding frames); ``restart`` the restart
    cycles' timings on ``bank_wire``; ``kernel_seconds`` the machine
    readings taken between the passes.
    """
    half = steady(traced)
    sums = _Sums(half)
    counts = _Counts(stats_before, stats_after)
    ops = [op for p in half for op in p.ops]
    n_ops = len(ops)
    all_ops = sum(len(p.ops) for p in traced)
    out: Dict[str, float] = {}
    out.update(_wire_layers(sums, counts, background, n_ops, all_ops))
    out.update(_bank_layers(sums, counts, restart))
    out.update(_engine_layers(sums, counts, traced, n_ops, all_ops, stats_after))

    totals = cost_totals(traced)
    for field in _COUNTER_FIELDS:
        if field != "swaps":
            out["cost.%s_per_op" % field] = _ratio(totals[field], all_ops)
    out["cost.modelled_ms_per_op"] = 1e3 * _ratio(modelled_seconds(totals), all_ops)

    by_class: Dict[str, List[float]] = {}
    for op in ops:
        by_class.setdefault(op.cls, []).append(op.seconds)
    for cls in workloads.ALL_CLASSES:
        values = by_class.get(cls)
        out["class.%s.p50_ms" % cls] = (
            1e3 * stats.nearest_rank(values, 50.0) if values else 0.0
        )

    def throughput(passes: Sequence[PassResult]) -> float:
        return _ratio(sum(len(p.ops) for p in passes), sum(p.wall for p in passes))

    out["harness.steadiness"] = 100.0 * stats.spread([p.wall for p in traced])
    out["harness.stall_share"] = 100.0 * stall_share(traced, half)
    out["harness.trace_overhead_ratio"] = _ratio(
        throughput(half), throughput(steady(untraced)) if untraced else 0.0
    )
    out["harness.self_time_coverage"] = _ratio(
        sum(sums.self_s.values()), sum(op.seconds for op in ops)
    )
    out["harness.kernel_ms"] = 1e3 * stats.quartiles(kernel_seconds)[1]
    return out


def _wire_layers(
    sums: _Sums, counts: _Counts, background: Dict[str, Any],
    n_ops: int, all_ops: int,
) -> Dict[str, float]:
    # The server's codec runs on its event loop, outside any operation, so
    # its spans cover every traced pass; operation spans cover the steady
    # half.  Scale the former to the same number of operations.
    share = _ratio(n_ops, all_ops)
    spans = background.get("spans", {})

    def both_ends(name: str, index: int, ours: Dict[str, float]) -> float:
        return ours.get(name, 0.0) + share * spans.get(name, [0, 0.0, 0.0])[index]

    encodes = both_ends("protocol.encode", 0, sums.count)
    wire_bytes = sums.notes.get("bytes_encoded", 0) + share * background.get(
        "notes", {}
    ).get("bytes_encoded", 0)
    frames = sums.count.get("client.execute", 0)
    return {
        "server.protocol.encode_us_per_frame":
            1e6 * _ratio(both_ends("protocol.encode", 1, sums.self_s), encodes),
        "server.protocol.decode_us_per_frame":
            1e6 * _ratio(both_ends("protocol.decode", 1, sums.self_s), encodes),
        "server.protocol.bytes_per_op": _ratio(wire_bytes, n_ops),
        "server.net.frames_per_op": _ratio(frames, n_ops),
        "server.net.hop_ms_per_frame":
            1e3 * _ratio(sums.self_s.get("net.hop", 0.0), frames),
        "server.session.execute_ms_per_frame":
            sums.total_per_call("session.execute", 1e3),
        "server.session.lock_parks": counts.sessions("lock_parks"),
        "server.session.retries": counts.sessions("retries"),
    }


def _bank_layers(
    sums: _Sums, counts: _Counts, restart: Optional[Dict[str, Any]]
) -> Dict[str, float]:
    logged = sums.notes.get("commits_logged", 0)
    # A commit that logged nothing never waits for a group: its span is
    # the bookkeeping floor the group wait is measured above.
    floor = _ratio(
        sums.notes.get("commit_unlogged_s", 0.0), sums.notes.get("commits_unlogged", 0)
    )
    groups = counts.delta("bank", "groups_flushed")
    return {
        "server.bank.commit_ms_per_txn": sums.total_per_call("bank.commit", 1e3),
        "server.bank.group_wait_ms_per_txn": 1e3 * max(
            0.0, _ratio(sums.notes.get("commit_logged_s", 0.0), logged) - floor
        ) if logged else 0.0,
        "server.bank.mean_group_size": _ratio(counts.flushed_txns(), groups),
        "server.bank.timer_flush_share":
            100.0 * _ratio(counts.delta("bank", "flush_reasons", "timer"), groups),
        "server.bank.log_records_per_txn": _ratio(
            counts.delta("bank", "durable_log_records"),
            counts.delta("bank", "commits"),
        ),
        "server.bank.recover_records_per_ms": _ratio(
            restart["log_records_scanned"], 1e3 * restart["recover_seconds"]
        ) if restart else 0.0,
        "recovery.lock_table.acquire_us_per_lock":
            sums.self_per_call("lock.acquire", 1e6),
        "recovery.lock_table.waits": counts.delta("bank", "lock_waits"),
    }


def _engine_layers(
    sums: _Sums, counts: _Counts, traced: Sequence[PassResult],
    n_ops: int, all_ops: int, stats_after: Dict[str, Any],
) -> Dict[str, float]:
    hits = counts.delta("reuse", "hits")
    misses = counts.delta("reuse", "misses")
    writes = sum(
        1 for p in traced for op in p.ops
        if op.kind in ("insert", "insert_many", "delete_where")
    )
    statements = sums.count.get("planner.parse", 0)
    biggest = max(
        (t["storage"] for t in stats_after.get("storage", {}).values()),
        key=lambda storage: storage["tuples"], default=None,
    )
    return {
        "governor.admit_us_per_stmt": sums.total_per_call("governor.admit", 1e6),
        "governor.queue_wait_ms_per_stmt": 1e3 * _ratio(
            sums.notes.get("admit_wait_s", 0.0), sums.count.get("governor.admit", 0)),
        "governor.rejections": sum(
            counts.delta("governor", key) for key in (
                "rejected_queue_full", "rejected_memory", "sheds",
                "admission_timeouts",
            )
        ),
        "planner.parse_ms_per_stmt": sums.self_per_call("planner.parse", 1e3),
        "planner.plan_ms_per_stmt": sums.self_per_call("planner.plan", 1e3),
        "planner.reuse_hit_ratio": 100.0 * _ratio(hits, hits + misses),
        "planner.reuse_evictions":
            _ratio(counts.delta("reuse", "evictions"), all_ops),
        "planner.reuse_invalidated_per_write":
            _ratio(counts.delta("reuse", "invalidations"), writes),
        "operators.self_ms_per_stmt": 1e3 * _ratio(
            sums.self_s.get("operators.execute", 0.0), statements),
        "operators.rows_examined_per_row_returned": _ratio(
            sums.notes.get("rows_examined", 0), sums.notes.get("rows_returned", 0)),
        "join.self_ms_per_join": sums.self_per_call("join", 1e3),
        "join.joins_per_op": _ratio(sums.notes.get("joins", 0), n_ops),
        "join.spill_pages_per_op": _ratio(sums.notes.get("spill_pages", 0), n_ops),
        "join.resplits_per_op": _ratio(sums.notes.get("resplits", 0), n_ops),
        "access.lookup_us_per_probe": sums.self_per_call("access.lookup", 1e6),
        "access.maintain_us_per_row_written":
            sums.self_per_call("access.insert", 1e6),
        "storage.insert_us_per_row": sums.self_per_call("storage.insert", 1e6),
        "storage.delete_ms_per_stmt": sums.total_per_call("db.delete_where", 1e3),
        "storage.packed_fraction":
            100.0 * biggest["packed_fraction"] if biggest else 0.0,
        "storage.buffer_bytes_per_row": biggest["bytes_per_row"] if biggest else 0.0,
        "core.database.write_lock_wait_ms_per_write":
            sums.self_per_call("rwlock.acquire_write", 1e3),
    }

"""E6 -- Section 5.2: the transaction-throughput ladder.

The paper's arithmetic: one log device, 10 ms per 4096-byte page, ~400
bytes of log per transaction.

* conventional WAL forces a page per commit  -> ~100 tps;
* group commit packs ~10 commits per page    -> ~1000 tps;
* partitioning the log over k devices scales the group-commit rate ~k x
  (given the topological ordering of commit groups);
* stable memory commits instantly (latency ~0) and sustains the drain
  bandwidth; with new-value-only compression the same bandwidth carries
  ~1.7x the transactions.
"""

import pytest

from repro.recovery.log_manager import CommitPolicy, LogManager
from repro.recovery.stable_memory import StableMemory
from repro.recovery.state import DatabaseState
from repro.recovery.transactions import TransactionEngine
from repro.sim.clock import SimulatedClock
from repro.sim.events import EventQueue
from repro.workload.banking import BankingWorkload

from conftest import emit, format_table

HORIZON = 4.0
N_ACCOUNTS = 20_000  # low contention: the log, not locks, is the bottleneck


def run_policy(policy, devices=1, compress=False, arrival_rate=8000):
    queue = EventQueue(SimulatedClock())
    state = DatabaseState(N_ACCOUNTS, records_per_page=64, initial_value=100)
    stable = (
        StableMemory(64 * 1024 * 1024)
        if policy is CommitPolicy.STABLE
        else None
    )
    lm = LogManager(
        queue, policy=policy, devices=devices, stable=stable, compress=compress
    )
    engine = TransactionEngine(state, queue, lm)
    bank = BankingWorkload(
        N_ACCOUNTS, transfer_fraction=1.0, deposit_fraction=0.0, seed=17
    )
    t = 0.0
    step = 1.0 / arrival_rate
    while t < HORIZON:
        script, _ = bank.next_script()
        engine.submit_at(t, script)
        t += step
    queue.run_until(HORIZON)
    return {
        "throughput": engine.throughput(HORIZON),
        "latency_ms": engine.mean_commit_latency() * 1000,
        "pages": lm.log.pages_written,
        "disk_bytes": lm.bytes_written_to_disk,
    }


def test_throughput_ladder(benchmark):
    def ladder():
        return {
            "conventional (1 dev)": run_policy(
                CommitPolicy.CONVENTIONAL, arrival_rate=2000
            ),
            "group commit (1 dev)": run_policy(CommitPolicy.GROUP),
            "group commit (2 dev)": run_policy(CommitPolicy.GROUP, devices=2),
            "group commit (4 dev)": run_policy(CommitPolicy.GROUP, devices=4),
            "stable memory": run_policy(CommitPolicy.STABLE, arrival_rate=1400),
            "stable + compression": run_policy(
                CommitPolicy.STABLE, compress=True, arrival_rate=2200
            ),
        }

    results = benchmark.pedantic(ladder, rounds=1, iterations=1)

    lines = format_table(
        ["configuration", "tps", "mean latency (ms)", "log pages"],
        [
            (name, "%.0f" % r["throughput"], "%.1f" % r["latency_ms"], r["pages"])
            for name, r in results.items()
        ],
    )
    emit("recovery_throughput_ladder", lines)

    conventional = results["conventional (1 dev)"]["throughput"]
    group1 = results["group commit (1 dev)"]["throughput"]
    group4 = results["group commit (4 dev)"]["throughput"]
    stable = results["stable memory"]["throughput"]
    compressed = results["stable + compression"]["throughput"]

    # The paper's 100 -> 1000 headline (one order of magnitude).
    assert 80 <= conventional <= 120
    assert 700 <= group1 <= 1300
    assert group1 / conventional >= 7

    # Partitioned log scales group commit.
    assert group4 >= 2.5 * group1

    # Stable memory: commit latency collapses to ~0.
    assert results["stable memory"]["latency_ms"] < 0.5
    assert results["group commit (1 dev)"]["latency_ms"] > 5.0

    # Compression stretches the drain bandwidth without losing sustain.
    assert compressed > 1.3 * stable


def test_group_commit_batches_about_ten(benchmark):
    result = benchmark.pedantic(
        lambda: run_policy(CommitPolicy.GROUP), rounds=1, iterations=1
    )
    commits_per_page = result["throughput"] * HORIZON / max(1, result["pages"])
    # "we could have up to ten transactions per commit group" -- our
    # transfers log 328 bytes, so ~12 fit a page.
    assert 8 <= commits_per_page <= 14


# ---------------------------------------------------------------------------
# PR 4 -- the batched commit + parallel restart pipeline, gated.
#
# Two ends of the durability pipeline, one payload (the repo-root
# ``BENCH_PR4.json`` is the frozen PR-4 run of it):
#
# * write side: adaptive group commit vs the durable-per-commit baseline
#   on the Section 5 transfer workload (simulated tps; the paper's
#   100 -> 1000 ladder).  CI gate: >= 2x; full scale shows ~10x.
# * read side: parallel partitioned-log redo (4 workers) vs the serial
#   interpreter on the same crashed history (simulated restart seconds,
#   Section 5.5's multi-disk argument), with real wall-clock reported
#   alongside and the recovered images compared byte-for-byte.
#
# ``REPRO_BENCH_SCALE`` scales the history length (CI smoke runs 0.25).
# ---------------------------------------------------------------------------

import os
import time

from repro.recovery.checkpoint import Checkpointer
from repro.recovery.restart import crash, recover
from repro.recovery.state import DiskSnapshot

from conftest import emit_json

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def crashed_history(horizon):
    """A Section-5-shaped banking history, crashed mid-checkpoint-sweep."""
    queue = EventQueue(SimulatedClock())
    state = DatabaseState(2000, records_per_page=64, initial_value=100)
    lm = LogManager(queue, policy=CommitPolicy.GROUP)
    engine = TransactionEngine(state, queue, lm)
    snap = DiskSnapshot()
    ck = Checkpointer(engine, snap, interval=0.5)
    ck.start()
    bank = BankingWorkload(2000, seed=41)
    t = 0.0
    while t < horizon:
        script, _ = bank.next_script()
        engine.submit_at(t, script)
        t += 0.001
    queue.run_until(horizon)
    return crash(engine, ck)


def timed_recover(crash_state, workers):
    t0 = time.perf_counter()
    out = recover(crash_state, initial_value=100, workers=workers)
    return out, (time.perf_counter() - t0) * 1000


def test_batched_pipeline_gate(benchmark):
    """The PR 4 acceptance gate, both ends of the pipeline."""

    def pipeline():
        conventional = run_policy(CommitPolicy.CONVENTIONAL, arrival_rate=2000)
        group = run_policy(CommitPolicy.GROUP)
        crash_state = crashed_history(horizon=4.0 * SCALE)
        serial, serial_ms = timed_recover(crash_state, workers=1)
        parallel, parallel_ms = timed_recover(crash_state, workers=4)
        return conventional, group, serial, serial_ms, parallel, parallel_ms

    conventional, group, serial, serial_ms, parallel, parallel_ms = (
        benchmark.pedantic(pipeline, rounds=1, iterations=1)
    )

    commit_speedup = group["throughput"] / conventional["throughput"]
    restart_speedup = serial.seconds / parallel.seconds
    identical = (
        parallel.state.values == serial.state.values
        and parallel.state.page_lsn == serial.state.page_lsn
        and parallel.committed_tids == serial.committed_tids
        and parallel.log_records_scanned == serial.log_records_scanned
        and parallel.updates_redone == serial.updates_redone
        and parallel.updates_undone == serial.updates_undone
    )
    full_scale = SCALE >= 1.0

    payload = {
        "experiment": "bench_recovery_pipeline",
        "scale": SCALE,
        "commit": {
            "conventional_tps": round(conventional["throughput"], 1),
            "group_tps": round(group["throughput"], 1),
            "speedup": round(commit_speedup, 2),
            "conventional_log_pages": conventional["pages"],
            "group_log_pages": group["pages"],
        },
        "restart": {
            "serial_seconds": round(serial.seconds, 6),
            "workers4_seconds": round(parallel.seconds, 6),
            "speedup": round(restart_speedup, 2),
            "serial_wall_ms": round(serial_ms, 3),
            "workers4_wall_ms": round(parallel_ms, 3),
            "log_records_scanned": serial.log_records_scanned,
            "updates_redone": serial.updates_redone,
            "pages_skipped_clean": parallel.pages_skipped_clean,
            "identical_results": identical,
        },
        "threshold": {
            "commit_speedup_min": 2.0,
            "restart_speedup_min": 2.0 if full_scale else 1.5,
            "full_scale": full_scale,
        },
    }
    emit_json("bench_recovery_pipeline", payload)

    # Correctness before speed: the parallel image must be byte-identical.
    assert identical

    # CI smoke gate: batched commit >= 2x durable-per-commit (full scale
    # reproduces the paper's order of magnitude, asserted in the ladder).
    assert commit_speedup >= 2.0

    # Parallel restart: the straggler stream's share of the modelled cost.
    assert restart_speedup >= payload["threshold"]["restart_speedup_min"]

"""E21 -- Multi-session server load: tps and latency vs. session count.

The load driver hammers the banking transfer workload over the real wire
protocol: each rung of the ladder runs S concurrent client workers, and
every worker opens, drives, and closes multiple *separate connections*
(so the run exercises thousands of simulated clients in total, plus the
connect/disconnect path on every batch).  Each transaction is a
BEGIN / ADD debit / ADD credit / COMMIT round-trip; COMMIT blocks until
the transaction's commit group is durable.

The paper's claim under test is the Section 5 pre-commit + group-commit
design: a commit waits for its *peers*, not for a clock.  A session with
nobody else running has no peer to wait for and commits at once (a group
of one, well under the ``GROUP_DELAY`` bound); concurrent sessions share
flushes -- committed transactions per flush grows with the session
count, because under load someone is always still running and the open
group keeps filling.  The PR-8 admission-aware lock waits add a second
claim: **past** the saturation knee (the governor's ``max_concurrent``)
throughput must *plateau*, not collapse -- a statement blocked in the
lock table parks its admission slot, so contention no longer eats
admission capacity and the overloaded rungs keep committing.  The
emitted numbers
(``benchmarks/out/bench_server.json``, with the pre-parking
``BENCH_PR6.json`` run embedded as ``before``; ``BENCH_PR8.json`` is the
frozen PR-8 run) record tps, p50/p99 latency, group sizes, parks,
requeues, and governor admissions per rung.

Assertions:

* every rung commits transactions (nonzero tps) and conserves the total
  balance (transfers never create money);
* a lone session does not wait out the timer: the 1-session rung's p50
  (four round trips, commit included) is below ``GROUP_DELAY`` and its
  mean durable group size is exactly 1;
* group commit batches under load: the mean durable group size is > 2
  from ``max_concurrent`` sessions up, the busiest rung included;
* **overload robustness**: the busiest rung keeps at least
  ``MIN_PLATEAU`` (0.7) of the best tps *at or past the knee* (rungs of
  ``max_concurrent`` sessions or more) -- the collapse this guards
  against read 0.12;
* shutdown is clean (no crashed store, no stuck workers).

(Until PR 22 the scaling assertion was ``peak >= 1.5 x single``: it
encoded "a lone session pays the full group-commit delay", which is what
quiescent sealing removed, and the plateau was taken against the peak
over all rungs.  Both old-style ratios are still emitted, under
``ratios``, so runs stay comparable with ``BENCH_PR8.json``.)

The ladder runs on **one CPU** (``sched_setaffinity``, restored
afterwards; the ledger does the same, ``benchmarks/ledger/machine.py``):
client workers and server threads are one process under one interpreter
lock, so a second core buys them nothing but lock hand-offs between
cores, and with 130 threads on a 2-vCPU guest those cost the 64-session
rung two thirds of its throughput, parent and change alike (docs/PERF.md,
"Commit path").

Knobs: ``REPRO_BENCH_SCALE`` scales connection and transaction counts
(CI smoke runs 0.25).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.errors import AdmissionRejected, ReproError
from repro.server import DatabaseServer, ServerClient

from conftest import emit, emit_json, format_table

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

SESSION_LADDER = [1, 2, 4, 8, 16, 32, 64]
if SCALE < 1.0:
    # The smoke ladder keeps a past-saturation rung (32) so CI exercises
    # the overload plateau, not just the scaling slope.
    SESSION_LADDER = [s for s in SESSION_LADDER if s <= 32]

#: Connections per worker per rung and transactions per connection.  At
#: full scale the ladder totals 127 workers x 16 connections = 2032
#: simulated clients across the run.
CONNECTIONS_PER_WORKER = max(2, int(16 * SCALE))
TXNS_PER_CONNECTION = max(2, int(4 * SCALE))

N_ACCOUNTS = 128
INITIAL_BALANCE = 1_000
GROUP_SIZE = 32
GROUP_DELAY = 0.002
SEED = 1984

#: The busiest rung must keep this share of the best past-knee tps.
MIN_PLATEAU = 0.7


def percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


def run_worker(
    host: str,
    port: int,
    worker_seed: int,
    latencies: List[float],
    tallies: Dict[str, int],
    mu: threading.Lock,
) -> None:
    import random

    rng = random.Random(worker_seed)
    committed = aborted = rejected = connections = 0
    local_latencies: List[float] = []
    for _ in range(CONNECTIONS_PER_WORKER):
        client = ServerClient(host, port)
        connections += 1
        for _ in range(TXNS_PER_CONNECTION):
            src = rng.randrange(N_ACCOUNTS)
            dst = rng.randrange(N_ACCOUNTS)
            amount = rng.randrange(1, 100)
            started = time.perf_counter()
            try:
                client.execute("BEGIN")
                client.execute("ADD %d %d" % (src, -amount))
                client.execute("ADD %d %d" % (dst, amount))
                client.execute("COMMIT")
                committed += 1
                local_latencies.append(time.perf_counter() - started)
            except ReproError as exc:
                # Deadlock victim, lock timeout, or admission rejection:
                # the transaction (if any) must not leak into the next.
                aborted += 1
                if isinstance(exc, AdmissionRejected):
                    rejected += 1
                try:
                    client.execute("ROLLBACK")
                except ReproError:
                    pass  # already rolled back (or never began)
        client.close()
    with mu:
        latencies.extend(local_latencies)
        tallies["committed"] = tallies.get("committed", 0) + committed
        tallies["aborted"] = tallies.get("aborted", 0) + aborted
        tallies["rejected"] = tallies.get("rejected", 0) + rejected
        tallies["connections"] = tallies.get("connections", 0) + connections


def run_rung(server: DatabaseServer, sessions: int) -> Dict[str, Any]:
    host, port = server.address
    bank = server.manager.bank
    before_bank = bank.bank_stats()
    before_commits = before_bank["commits"]
    before_groups = before_bank["groups_flushed"]
    before_deadlocks = before_bank["deadlocks"]
    before_gov = server.manager.db.governor_stats()
    latencies: List[float] = []
    tallies: Dict[str, int] = {}
    mu = threading.Lock()
    workers = [
        threading.Thread(
            target=run_worker,
            args=(host, port, SEED + sessions * 1000 + i, latencies, tallies, mu),
        )
        for i in range(sessions)
    ]
    started = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    elapsed = time.perf_counter() - started
    stats = bank.bank_stats()
    governor = server.manager.db.governor_stats()
    assert (
        governor["active"] == governor["parked"] == governor["pages_in_use"] == 0
    ), "admission capacity leaked at %d sessions: %r" % (sessions, governor)
    commits = stats["commits"] - before_commits
    groups = stats["groups_flushed"] - before_groups
    with ServerClient(host, port) as probe:
        total = probe.value("AUDIT")
    assert total == N_ACCOUNTS * INITIAL_BALANCE, (
        "balance not conserved at %d sessions: %d" % (sessions, total)
    )
    return {
        "sessions": sessions,
        "elapsed_s": elapsed,
        "tps": tallies.get("committed", 0) / elapsed if elapsed else 0.0,
        "p50_ms": percentile(latencies, 0.50) * 1000,
        "p99_ms": percentile(latencies, 0.99) * 1000,
        "committed": tallies.get("committed", 0),
        "aborted": tallies.get("aborted", 0),
        "admission_rejected": tallies.get("rejected", 0),
        "connections": tallies.get("connections", 0),
        "durable_commits": commits,
        "mean_group_size": (commits / groups) if groups else 0.0,
        "deadlocks": stats["deadlocks"] - before_deadlocks,
        "lock_parks": (
            governor["slots_released_in_wait"]
            - before_gov["slots_released_in_wait"]
        ),
        "requeues": governor["requeues"] - before_gov["requeues"],
        "sheds": governor["sheds"] - before_gov["sheds"],
    }


def test_server_throughput_ladder():
    pinned = hasattr(os, "sched_setaffinity")
    if pinned:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
    try:
        run_ladder()
    finally:
        if pinned:
            os.sched_setaffinity(0, cpus)


def run_ladder():
    server = DatabaseServer(
        n_accounts=N_ACCOUNTS,
        initial_balance=INITIAL_BALANCE,
        group_size=GROUP_SIZE,
        group_delay=GROUP_DELAY,
        lock_wait_timeout=10.0,
        statement_timeout=30.0,
    )
    server.start_in_thread()
    knee = server.manager.db.governor.config.max_concurrent
    try:
        rungs = [run_rung(server, sessions) for sessions in SESSION_LADDER]
        wire = server.wire_stats()
        governor = server.manager.db.governor_stats()
    finally:
        server.stop()
    assert server.manager.bank.bank_stats()["crashed"] is False

    headers = [
        "sessions", "tps", "p50 ms", "p99 ms",
        "committed", "aborted", "parks", "grp size",
    ]
    rows = [
        (
            r["sessions"], "%.0f" % r["tps"], "%.2f" % r["p50_ms"],
            "%.2f" % r["p99_ms"], r["committed"], r["aborted"],
            r["lock_parks"], "%.2f" % r["mean_group_size"],
        )
        for r in rungs
    ]
    lines = format_table(headers, rows)
    lines.append("")
    lines.append(
        "total connections: %d, frames: %d in / %d out, admitted: %d"
        % (
            sum(r["connections"] for r in rungs),
            wire["frames_in"],
            wire["frames_out"],
            governor.get("admitted", 0),
        )
    )
    emit("bench_server", lines)
    busiest = max(rungs, key=lambda r: r["sessions"])
    peak = max(r["tps"] for r in rungs)
    past_knee = max(r["tps"] for r in rungs if r["sessions"] >= knee)
    ratios = {
        "knee_sessions": knee,
        "peak_past_knee_tps": past_knee,
        "plateau": busiest["tps"] / past_knee,
        # As asserted until PR 22, kept for comparison with BENCH_PR8.json.
        "old_peak_over_single": peak / rungs[0]["tps"],
        "old_busiest_over_peak": busiest["tps"] / peak,
    }
    payload: Dict[str, Any] = {
        "experiment": "E21",
        "scale": SCALE,
        "config": {
            "n_accounts": N_ACCOUNTS,
            "initial_balance": INITIAL_BALANCE,
            "group_size": GROUP_SIZE,
            "group_delay_s": GROUP_DELAY,
            "connections_per_worker": CONNECTIONS_PER_WORKER,
            "txns_per_connection": TXNS_PER_CONNECTION,
        },
        "rungs": rungs,
        "ratios": ratios,
        "wire": wire,
        "governor": governor,
    }
    # Embed the pre-parking run (PR 6) so before/after travels together.
    before_path = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"
    if before_path.exists():
        before = json.loads(before_path.read_text())
        payload["before"] = {
            "source": "BENCH_PR6.json (blocking lock waits held slots)",
            "scale": before.get("scale"),
            "rungs": [
                {k: r.get(k) for k in ("sessions", "tps", "aborted")}
                for r in before.get("rungs", [])
            ],
        }
    emit_json("bench_server", payload)

    # Nonzero throughput everywhere.
    for rung in rungs:
        assert rung["committed"] > 0, rung
        assert rung["tps"] > 0, rung
    # A lone session has no peer to wait for: it must not pay the timer.
    lone = rungs[0]
    assert lone["sessions"] == 1
    assert lone["p50_ms"] < GROUP_DELAY * 1000, lone
    assert lone["mean_group_size"] == 1.0, lone
    # Group commit batches under load: someone is always still running,
    # so the open group keeps filling.
    for rung in rungs:
        if rung["sessions"] >= knee:
            assert rung["mean_group_size"] > 2.0, rung
    # Overload robustness (PR 8): past the saturation knee, parked lock
    # waits keep admission capacity flowing -- the busiest rung must hold
    # a plateau, not collapse (pre-parking this ratio was ~0.12).
    assert ratios["plateau"] >= MIN_PLATEAU, (
        "throughput collapsed past the knee: best past-knee rung %.0f tps, "
        "busiest %.0f tps (floor %.0f%%)"
        % (ratios["peak_past_knee_tps"], busiest["tps"], MIN_PLATEAU * 100)
    )

"""The performance ledger: one command, four workloads.

    python benchmarks/ledger/run.py --workload W --seed N --trace 0|1
    python benchmarks/ledger/run.py --smoke
    python benchmarks/ledger/run.py --selftest
    python benchmarks/ledger/run.py --calibrate
    python benchmarks/ledger/run.py --set NAME
    python benchmarks/ledger/run.py compare A.json B.json

A run is one workload in a fresh interpreter under ``PYTHONHASHSEED=0``:
generate the inputs and their right answers from ``(workload, seed)``,
set the engine up many times, warm up, run the measured passes, check
every answer, print every metric by name and end with one JSON line.
README.md defines the workloads and metrics and says why each exists.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
HASH_SEED = "0"

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    # String hashing is the one thing a fresh interpreter randomises.
    os.execve(
        sys.executable,
        [sys.executable] + sys.argv,
        dict(os.environ, PYTHONHASHSEED=HASH_SEED),
    )

import time  # noqa: E402

_interpreter_ready = time.perf_counter()
sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import repro  # noqa: E402,F401
except ImportError:
    sys.exit(
        "the ledger measures the engine in %s and it is not there"
        % os.path.join(ROOT, "src")
    )
IMPORT_SECONDS = time.perf_counter() - _interpreter_ready

import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

import engine  # noqa: E402
import machine  # noqa: E402
import oracle  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from report import OpResult, PassResult  # noqa: E402

OUT = report.OUT
#: Timed crash -> recover -> first-answer cycles on ``bank_wire``: a
#: restart is ten milliseconds, so it is repeated until the timings fill a
#: second (see ``workloads.SETUPS``).
RESTART_CYCLES = 75
#: A run whose measured phase has taken this many seconds stops adding
#: passes: the driver allows a run 180, and a much slower machine must
#: still finish.  The record says ``truncated``.
MEASURE_DEADLINE = 90.0


# -- the two ways to hold the engine ---------------------------------------------------


class InProcess:
    """The engine in this process, one caller."""

    def __init__(self, spec: workloads.Spec) -> None:
        self.spec = spec
        self.db = None
        self.child_import_seconds = 0.0

    def discard(self) -> None:
        """Drop the engine, off the clock, before the next set-up."""
        self.db = None
        gc.collect()

    def setup(self) -> None:
        self.db = engine.build_engine(self.spec.tables, self.spec.db_kwargs)

    def run_pass(self, per_client, on_op=None):
        return [engine.run_pass_inproc(self.db, per_client[0], on_op)]

    def cpu(self) -> List[float]:
        """CPU seconds so far of each process that works in a pass."""
        return [time.process_time()]

    def settle(self) -> None:
        """Between passes, off the clock: see ``Run.timed_pass``."""
        gc.collect()

    def stats(self) -> Dict[str, Any]:
        return {
            "reuse": self.db.reuse_stats(),
            "governor": self.db.governor_stats(),
            "storage": self.db.storage_stats(),
        }

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def trace_on(self) -> spans.Tracer:
        tracer = spans.Tracer()
        spans.install(tracer, server_side=True)
        return tracer

    def trace_off(self, tracer: spans.Tracer, stem: str) -> Dict[str, Any]:
        tracer.uninstall()
        tracer.write_raw(stem + "_spans.jsonl")
        return {"ops": [], "background": {}}

    def close(self) -> None:
        self.db = None


class OverWire:
    """The engine in a server child; this process is the load generator."""

    def __init__(self, spec: workloads.Spec) -> None:
        self.spec = spec
        self.child = engine.ServerChild(spec.name, spec.seed, spec.scale)
        self.child_import_seconds = self.child.import_seconds
        self.clients: Optional[engine.WireClients] = None
        self.address: Tuple[str, int] = ("", 0)

    def discard(self) -> None:
        """Stop the server, off the clock, before the next set-up."""
        if self.clients is not None:
            self.clients.close()
            self.clients = None
        self.child.call("teardown")

    def setup(self) -> None:
        reply = self.child.call("setup")
        self.address = (reply["host"], reply["port"])
        self.clients = engine.WireClients(self.address, self.spec.clients)

    def settle(self) -> None:
        self.child.call("settle")
        gc.collect()

    def run_pass(self, per_client, on_op=None, **crash_args):
        return self.clients.run_pass(per_client, on_op, **crash_args)

    def cpu(self) -> List[float]:
        return [self.child.call("cpu")["cpu"], time.process_time()]

    def stats(self) -> Dict[str, Any]:
        return self.child.call("stats")

    def peak_rss_mb(self) -> float:
        return self.stats()["peak_rss_kb"] / 1024.0

    def trace_on(self) -> spans.Tracer:
        for client in self.clients.clients:
            # From here the generator numbers its frames as the server
            # numbers the session's statements (this STATS included).
            reply = client.execute("STATS")
            client.ledger_frames = reply["value"]["session"]["statements"]
        self.child.call("trace_on")
        tracer = spans.Tracer()
        spans.install(tracer, server_side=False)
        return tracer

    def trace_off(self, tracer: spans.Tracer, stem: str) -> Dict[str, Any]:
        tracer.uninstall()
        tracer.write_raw(stem + "_spans_generator.jsonl")
        return self.child.call("trace_dump", raw_path=stem + "_spans_server.jsonl")

    def close(self) -> None:
        if self.clients is not None:
            self.clients.close()
        self.child.stop()


# -- one run ---------------------------------------------------------------------------


class Run:
    """State of one run: the engine holder, the answers, the tallies."""

    def __init__(self, spec: workloads.Spec) -> None:
        self.spec = spec
        # The server child starts first: it imports the engine while this
        # process works out the right answers.
        self.holder = OverWire(spec) if spec.wire else InProcess(spec)
        try:
            self.answers = oracle.expected(spec)
        except BaseException:
            self.holder.close()
            raise
        # The rows, statements and answers are the benchmark's, not the
        # engine's, and they are a large part of this process's heap.  Out
        # of the collector's sight, so that a collection inside a pass
        # walks the engine's objects and not the harness's.
        gc.collect()
        gc.freeze()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.bank = (
            oracle.BankOracle(
                spec.serve_kwargs["n_accounts"], spec.serve_kwargs["initial_balance"]
            )
            if spec.name == "bank_wire" else None
        )
        self.next_pass = 0
        self.kernel = machine.Kernel()
        #: One machine reading before the first measured pass and one
        #: after each: a diagnostic, applied to nothing.
        self.kernel_seconds: List[float] = []
        self.tracer: Optional[spans.Tracer] = None
        self._op_seq = itertools.count(1)
        self._op_traces: Dict[int, spans.OpTrace] = {}

    # -- passes ------------------------------------------------------------------

    def _on_op(self, record, done: bool, client: int) -> None:
        if done:
            self.tracer.end_op()
        else:
            self._op_traces[id(record)] = self.tracer.begin_op(
                "%s#%d" % (record.op.cls, next(self._op_seq))
            )

    def timed_pass(self, counted: bool = True) -> PassResult:
        """Run the next pass, then -- off the clock -- check its answers.

        Before it, also off the clock, every process that holds the engine
        or the clients collects its garbage.  Left to itself the cyclic
        collector runs a full collection of the engine's heap (18 ms on
        ``wisc_dml_inproc``) in every second or third pass, and which
        passes those are decides what "the fastest half" means; collected
        here, every pass starts from the same heap and only the garbage a
        pass makes itself is collected inside it."""
        index = self.next_pass
        self.next_pass += 1
        per_client = self.spec.passes[index]
        on_op = self._on_op if self.tracer is not None else None
        self.holder.settle()
        cpu_before = self.holder.cpu()
        records = self.holder.run_pass(per_client, on_op)
        cpu = [after - before for after, before in zip(self.holder.cpu(), cpu_before)]
        ops = self._verify(records, self.answers[index], counted)
        if self.bank is not None:
            self._check_balances("after pass %d" % index)
        first = min(r[0].start for r in records)
        last = max(r[-1].end for r in records)
        return PassResult(last - first, cpu, ops)

    def _verify(self, records, answers, counted: bool) -> List[OpResult]:
        ops: List[OpResult] = []
        for client_records, client_answers in zip(records, answers):
            for record, answer in zip(client_records, client_answers):
                ok = record.error is None
                if not ok:
                    self.problems.append("%s failed: %s" % (record.op.cls, record.error))
                elif oracle.answer_of(record.op, record.result) != answer:
                    ok = False
                    self.problems.append("%s answered wrongly" % record.op.cls)
                if ok and self.bank is not None and record.op.kind == "transfer":
                    self.bank.apply(record.op.arg)
                if counted:
                    self.attempted += 1
                    self.failed += 0 if ok else 1
                trace = self._op_traces.pop(id(record), None)
                ops.append(OpResult(
                    record.op.cls, record.op.kind, record.seconds, ok,
                    record.counters, trace,
                ))
                record.result = None
        return ops

    def _check_balances(self, when: str) -> None:
        wrong = self.bank.mismatches(self.holder.child.call("balances")["balances"])
        if wrong:
            self.problems.append(
                "%d balances differ from the replay %s (first: account %d)"
                % (len(wrong), when, wrong[0])
            )

    # -- phases ------------------------------------------------------------------

    def one_shots(self, count: int, before, shot) -> List[float]:
        """``count`` wall-clock timings of ``shot()`` (a set-up, a
        restart), each after an untimed ``before()``."""
        timed: List[float] = []
        for _ in range(count):
            before()
            started = time.perf_counter()
            shot()
            timed.append(time.perf_counter() - started)
        return timed

    def set_up(self) -> List[float]:
        return self.one_shots(
            workloads.setup_count(self.spec.name, self.spec.scale),
            self.holder.discard, self.holder.setup,
        )

    def measure(self, n_passes: int) -> List[PassResult]:
        passes: List[PassResult] = []
        self.kernel_seconds.append(self.kernel.run())
        started = time.perf_counter()
        for _ in range(n_passes):
            passes.append(self.timed_pass())
            self.kernel_seconds.append(self.kernel.run())
            if time.perf_counter() - started > MEASURE_DEADLINE and len(passes) >= 8:
                break
        return passes

    def crash_midpass(self) -> None:
        """``bank_wire`` only.  Crash the server while both clients are in
        the middle of a pass, recover, and check that every acknowledged
        commit is in the recovered image."""
        holder = self.holder
        per_client = self.spec.passes[self.next_pass]
        self.next_pass += 1
        half = sum(len(ops) for ops in per_client) // 2

        def crash_midway(records) -> None:
            deadline = time.monotonic() + engine.CHILD_TIMEOUT
            while time.monotonic() < deadline:
                if sum(1 for rs in records for r in rs if r.end) >= half:
                    break
                time.sleep(0.0005)
            holder.child.call("crash")

        records = holder.run_pass(per_client, stop_on_error=True, meanwhile=crash_midway)
        holder.clients.close()
        holder.child.call("recover")
        observed = holder.child.call("balances")["balances"]
        for record in (r for rs in records for r in rs if r.end):
            if record.op.kind != "transfer":
                continue
            lo, _hi, amount = record.op.arg
            # A transfer cut off by the crash may have become durable before
            # its acknowledgement was lost -- but never half of it, which
            # the comparison below would show on the other account.
            if record.error is None or observed[lo] == self.bank.balances[lo] - amount:
                self.bank.apply(record.op.arg)
        wrong = self.bank.mismatches(observed)
        if wrong:
            self.problems.append(
                "%d balances lost or torn by the crash (first: account %d)"
                % (len(wrong), wrong[0])
            )

    def restart_cycles(self) -> Dict[str, Any]:
        """``bank_wire`` only: time crash -> recover -> first answer over
        the full durable log, ``RESTART_CYCLES`` times, then audit."""
        holder = self.holder
        recovered: List[Dict[str, Any]] = []

        def restart() -> None:
            holder.child.call("crash")
            recovered.append(holder.child.call("recover"))
            holder.clients = engine.WireClients(holder.address, 1)

        restarts = self.one_shots(
            max(5, int(RESTART_CYCLES * self.spec.scale)),
            lambda: holder.clients.close(), restart,
        )
        holder.clients.close()
        holder.clients = engine.WireClients(holder.address, self.spec.clients)
        audit = holder.clients.clients[0].execute("AUDIT")["value"]
        if not self.bank.conserved(audit):
            self.problems.append("AUDIT total %d is not conserved" % audit)
        self._check_balances("after the restart cycles")
        return {
            "restart_ms": 1e3 * stats.mean_fastest(restarts),
            "restart_seconds": restarts,
            "log_records_scanned": recovered[-1]["report"]["log_records_scanned"],
            "recover_seconds": recovered[-1]["recover_seconds"],
        }

    def close(self) -> None:
        self.holder.close()


def merge_traces(
    passes: Sequence[PassResult], server_dump: Dict[str, Any]
) -> None:
    """Join each operation's generator-side trace with the server's record
    of its frames, in place.  The client's wait for a reply, less what
    ``Session.execute`` accounts for, is the hop: socket, event loop,
    executor hand-off and the server's frame codec."""
    by_key = {tuple(op["key"]): op for op in server_dump.get("ops", [])}
    for p in passes:
        for op in p.ops:
            trace = op.trace
            merged = {
                "spans": {k: list(v) for k, v in trace.spans.items()},
                "notes": dict(trace.notes),
            }
            op.trace = merged
            waited = merged["spans"].pop("client.execute", None)
            if waited is None:
                continue
            merged["spans"]["client.execute"] = [waited[0], 0.0, waited[2]]
            hop = waited[1]
            for key in trace.frames:
                served = by_key.get(tuple(key))
                if served is None:
                    continue
                hop -= served["spans"]["session.execute"][2]
                for name, cell in served["spans"].items():
                    mine = merged["spans"].setdefault(name, [0, 0.0, 0.0])
                    for i in range(3):
                        mine[i] += cell[i]
                for name, amount in served["notes"].items():
                    merged["notes"][name] = merged["notes"].get(name, 0) + amount
            merged["spans"]["net.hop"] = [waited[0], hop, hop]


def run_once(
    workload: str, seed: int, trace: bool, scale: float, cpu_held_awake: bool
) -> Dict[str, Any]:
    n_passes = workloads.pass_count(workload, scale)
    generating = time.perf_counter()
    spec = workloads.build(workload, seed, scale, n_passes)
    run = Run(spec)
    generate_seconds = time.perf_counter() - generating
    stem = os.path.join(OUT, "%s_seed%d" % (workload, seed))
    os.makedirs(OUT, exist_ok=True)
    restart: Optional[Dict[str, Any]] = None
    per_layer: Dict[str, float] = {}
    #: Where the run's own time went: what the driver's time cap pays for.
    phases = {"generate_and_oracle": generate_seconds}
    try:
        mark = time.perf_counter()
        setups = run.set_up()
        phases["set_ups"] = time.perf_counter() - mark
        for _ in range(workloads.WARMUP_PASSES):
            run.timed_pass(counted=False)
        mark = time.perf_counter()
        if not trace:
            passes = run.measure(n_passes)
        else:
            untraced = run.measure(n_passes // 2)
            run.tracer = run.holder.trace_on()
            run.timed_pass(counted=False)  # the wrappers' own warm-up
            before = run.holder.stats()
            traced_from = len(run.kernel_seconds)
            passes = run.measure(n_passes - n_passes // 2)
            after = run.holder.stats()
            server_dump = run.holder.trace_off(run.tracer, stem)
            run.tracer = None
            merge_traces(passes, server_dump)
        phases["measured_passes_with_checks"] = time.perf_counter() - mark
        if workload == "bank_wire":
            run.crash_midpass()
            restart = run.restart_cycles()
        if trace:
            per_layer = report.per_layer(
                passes, untraced, before, after,
                server_dump.get("background", {}), restart,
                run.kernel_seconds[traced_from:],
            )
        peak_rss_mb = run.holder.peak_rss_mb()
    finally:
        run.close()
    metrics, ledger_only, detail = report.end_to_end(
        workload, passes, setups, peak_rss_mb, restart, run.kernel_seconds
    )
    detail["restart"] = restart
    table = report.PER_LAYER if trace else report.END_TO_END
    values = per_layer if trace else metrics
    full = scale == 1.0
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, _ in table
        },
    }
    record = dict(
        result,
        workload=workload, seed=seed, scale=scale, traced=trace, full_scale=full,
        # The two end-to-end metrics BENCHMARK.json cannot hold; from the
        # untraced passes only, like the other six.
        ledger_only={} if trace else ledger_only,
        problems=run.problems[:20],
        detail=dict(
            detail,
            end_to_end_from_this_run=metrics,
            interpreter_import_seconds=IMPORT_SECONDS,
            server_child_import_seconds=run.holder.child_import_seconds,
            phase_seconds=phases,
            truncated=len(passes) < (n_passes - n_passes // 2 if trace else n_passes),
        ),
        fingerprint=machine.fingerprint(ROOT, cpu_held_awake),
    )
    name = report.record_path(workload, seed, trace, full)
    with open(name, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    record["file"] = name
    return record


def print_run(record: Dict[str, Any]) -> None:
    detail = record["detail"]
    print("workload %s  seed %d  %s  %s" % (
        record["workload"], record["seed"],
        "traced" if record["traced"] else "untraced",
        "full scale" if record["full_scale"] else "PARTIAL (not comparable)",
    ))
    for name, cell in record["metrics"].items():
        print("  %-46s %14.6g %s" % (name, cell["value"], cell["unit"]))
    for name, unit, _better, _bound, _where in report.LEDGER_ONLY:
        if name in record["ledger_only"]:
            print("  %-46s %14.6g %s" % (name, record["ledger_only"][name], unit))
    print("  latency samples %d, %d beyond p%g; %d of %d passes steady" % (
        detail["latency_samples"], detail["samples_beyond_high_percentile"],
        detail["latency_high_percentile"], detail["steady_passes"],
        detail["passes"],
    ))
    print("  steadiness %.3f  stalls %.3f  machine kernel %.3f ms" % (
        detail["steadiness"], detail["stall_share"], detail["kernel_ms"],
    ))
    print("  attempted %d  failed %d  correct %s" % (
        record["attempted"], record["failed"], record["correct"],
    ))
    for problem in record["problems"]:
        print("  PROBLEM: %s" % problem)
    print("  written to %s" % os.path.relpath(record["file"], ROOT))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "compare":
        import compare
        return compare.compare_files(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    # The driver passes the manifest's run_seconds.  A run is fixed work
    # sized for that length, so no other value means anything.
    parser.add_argument("--seconds", type=float, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--set", metavar="NAME", help="run one set, save out/NAME.json")
    args = parser.parse_args(argv)
    if args.seconds not in (None, report.manifest()["run_seconds"]):
        parser.error(
            "a run measures a fixed amount of work, sized for run_seconds = %s "
            "in BENCHMARK.json; --seconds cannot change it"
            % report.manifest()["run_seconds"]
        )
    if args.selftest:
        problems = oracle.selftest()
        for problem in problems:
            print("SELFTEST: %s" % problem)
        print("oracle self-test: %s" % ("FAILED" if problems else "both corruptions caught"))
        return 1 if problems else 0
    if args.smoke or args.calibrate or args.set:
        import compare
        if args.smoke:
            return compare.smoke()
        if args.set:
            return compare.save_set(args.set)
        return compare.calibrate()
    if args.workload is None:
        parser.error("--workload is required")
    machine.use_one_cpu()
    awake = machine.Awake()
    try:
        record = run_once(
            args.workload, args.seed, bool(args.trace), args.scale, awake.held
        )
    finally:
        awake.stop()
    print_run(record)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Sets of runs: calibrate the bounds, compare two commits, smoke-test.

A *set* is the ledger run on ten seeds, every workload, in fresh
interpreters.  ``--calibrate`` makes two sets of the same code and reports
how far they disagree -- the evidence the bounds in ``BENCHMARK.json`` were
fixed from.  ``compare A.json B.json`` classifies every (metric, workload)
pair of two saved sets by the choosing-metrics rule.  ``--smoke`` runs
everything at a twentieth of the size, twice, and checks the names, the
units and that exact counts repeat.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import report
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = report.OUT
RUN = os.path.join(HERE, "run.py")
#: Runs per workload in a set: the nine-wins-in-ten rule needs ten pairs.
SEEDS = tuple(range(1, 11))
SMOKE_SCALE = 0.05
#: One run may take this long before the set gives up on it.
RUN_TIMEOUT = 300.0
#: Two sets whose machine readings differ by more than this share were
#: measured at different machine speeds; ``compare`` says so.
MACHINE_DRIFT = 0.05

#: Per-layer metrics that are exact counts when one caller drives the
#: engine in-process: they must repeat digit for digit.
EXACT_INPROC = tuple(
    name for name, _unit, _better in report.PER_LAYER
    if name.startswith(("cost.", "join.joins", "join.spill", "join.resplits"))
    or name in (
        "planner.reuse_hit_ratio", "planner.reuse_evictions",
        "planner.reuse_invalidated_per_write",
        "operators.rows_examined_per_row_returned",
    )
)


def one_run(
    workload: str, seed: int, trace: int, scale: float = 1.0
) -> Dict[str, Any]:
    """Run the ledger once in a fresh interpreter; the record it wrote."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--scale", repr(scale)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(
            "%s seed %d exited %d: %s"
            % (workload, seed, done.returncode, done.stderr.strip()[-400:])
        )
    last_line = json.loads(done.stdout.strip().splitlines()[-1])
    with open(report.record_path(workload, seed, bool(trace), scale == 1.0)) as f:
        record = json.load(f)
    if {k: record[k] for k in last_line} != last_line:
        raise RuntimeError("%s seed %d: record and printed result differ" % (workload, seed))
    return record


def run_set(label: str) -> Dict[str, Any]:
    """Every workload on every seed, untraced, at full scale.  A run of a
    set keeps the eight end-to-end metrics, the exact operation counts
    (the paper's clock and the tallies behind it) and the machine reading."""
    runs = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            record = one_run(workload, seed, 0)
            detail = record["detail"]
            metrics = {n: cell["value"] for n, cell in record["metrics"].items()}
            metrics.update(record["ledger_only"])
            runs.append({
                "workload": workload, "seed": seed,
                "correct": record["correct"], "attempted": record["attempted"],
                "failed": record["failed"], "metrics": metrics,
                "exact": dict(detail["cost_per_op"], modelled_ms=detail["modelled_ms_per_op"]),
                "kernel_ms": detail["kernel_ms"],
            })
            print("  %s %-16s seed %-3d %s  machine %.2f ms" % (
                label, workload, seed,
                "ok" if record["correct"] and not record["failed"] else "WRONG",
                detail["kernel_ms"],
            ), flush=True)
    return {
        "label": label, "full_scale": True, "runs": runs,
        "fingerprint": record["fingerprint"],
    }


def pairs() -> Iterator[Tuple[str, str, str, float]]:
    """Every (workload, metric, better, bound) the ledger judges: the six
    of ``BENCHMARK.json`` on every workload, and the two ledger-only ones
    where they exist."""
    bounded = report.manifest()["end_to_end"]
    for workload in workloads.WORKLOADS:
        for metric in bounded:
            yield workload, metric["name"], metric["better"], metric["bound"]
        for name, _unit, better, bound, where in report.LEDGER_ONLY:
            if workload in where:
                yield workload, name, better, bound


def values_of(a_set: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric] for run in a_set["runs"] if run["workload"] == workload
    ]


def machine_of(a_set: Dict[str, Any], workload: str) -> float:
    """Median machine reading (ms) of a set's runs of one workload."""
    return stats.quartiles(
        [run["kernel_ms"] for run in a_set["runs"] if run["workload"] == workload]
    )[1]


def all_right(a_set: Dict[str, Any]) -> bool:
    return all(r["correct"] and not r["failed"] for r in a_set["runs"])


def save_set(name: str) -> int:
    """One set of runs, saved as ``out/<name>.json`` for ``compare``."""
    made = run_set(name)
    path = os.path.join(OUT, name + ".json")
    with open(path, "w") as f:
        json.dump(made, f, indent=1)
    print("set written to %s" % os.path.relpath(path, ROOT))
    return 0 if all_right(made) else 1


def calibrate() -> int:
    """Two sets of the same code, judged against the bounds."""
    return judge(run_set("set 1"), run_set("set 2"))


def judge(first: Dict[str, Any], second: Dict[str, Any]) -> int:
    """The spreads and the disagreement of two sets of the same code
    against the bounds.  Writes ``out/calibration.json`` and ``.txt``."""
    lines = [
        "calibration: two sets of %d runs per workload, same code, same seeds"
        % len(SEEDS),
        "spread = (Q3 - Q1) / median of a set; disagreement = how much worse",
        "the second set's median is than the first's; both as shares.  A pair",
        "is inside its bound when both spreads and the disagreement are.",
        "",
        "%-16s %-18s %12s %8s %12s %8s %9s %6s  %s" % (
            "workload", "metric", "median 1", "spread", "median 2", "spread",
            "disagree", "bound", "verdict"),
    ]
    rows = []
    outside = 0
    for workload, name, better, bound in pairs():
        a = values_of(first, workload, name)
        b = values_of(second, workload, name)
        qa, qb = stats.quartiles(a), stats.quartiles(b)
        spread = max(stats.spread(a), stats.spread(b))
        disagree = stats.worsening(qa[1], qb[1], better)
        ok = abs(disagree) <= bound and spread <= bound
        outside += 0 if ok else 1
        rows.append({
            "workload": workload, "metric": name, "bound": bound,
            "set1": {"q1": qa[0], "median": qa[1], "q3": qa[2]},
            "set2": {"q1": qb[0], "median": qb[1], "q3": qb[2]},
            "spread": spread, "disagreement": disagree, "within_bound": ok,
        })
        lines.append("%-16s %-18s %12.6g %8.4f %12.6g %8.4f %+9.4f %6.2f  %s" % (
            workload, name, qa[1], stats.spread(a), qb[1], stats.spread(b),
            disagree, bound, "ok" if ok else "OUTSIDE",
        ))
    moved = moved_counts(first, second)
    lines.append("")
    lines.append("%d of %d pairs outside their bound" % (outside, len(rows)))
    lines.append(
        "operation counts (the paper's clock) of the two sets: %s"
        % ("; ".join(moved) if moved else "identical, run for run")
    )
    lines.extend(machine_lines(first, second))
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(OUT, "calibration.txt"), "w") as f:
        f.write(text + "\n")
    with open(os.path.join(OUT, "calibration.json"), "w") as f:
        json.dump({"rows": rows, "set1": first, "set2": second}, f, indent=1)
    return 0 if not outside and not moved and all_right(first) and all_right(second) else 1


def machine_lines(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """The machine reading of each set, per workload, and whether the two
    sets saw the same machine."""
    lines = []
    for workload in workloads.WORKLOADS:
        a, b = machine_of(parent, workload), machine_of(change, workload)
        drift = (b - a) / a
        lines.append("machine during %-16s %.3f ms, then %.3f ms (%+.1f%%)%s" % (
            workload, a, b, 100.0 * drift,
            "  <- the machine changed speed between the sets: measure again"
            if abs(drift) > MACHINE_DRIFT else "",
        ))
    return lines


def moved_counts(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """Exact counts that differ between two sets, seed for seed.  Counts
    repeat digit for digit, so any difference is a change of behaviour,
    not noise: they are held to equality, not to a bound."""
    theirs = {(r["workload"], r["seed"]): r["exact"] for r in parent["runs"]}
    moved = []
    for run in change["runs"]:
        before = theirs.get((run["workload"], run["seed"]))
        if before is None:
            continue
        for name, value in run["exact"].items():
            if before.get(name) != value:
                moved.append("%s seed %d %s %r -> %r" % (
                    run["workload"], run["seed"], name, before.get(name), value))
    return moved


# -- compare -------------------------------------------------------------------------


def classify(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """improved / unchanged / unresolved / regressed, by the
    choosing-metrics rule (sections 6 and 8): a gain needs nine wins in
    ten pairs and a median shift beyond the parent's own quartile
    distance; a regression is a median worse by more than the bound;
    where the parent's spread exceeds the bound nothing smaller than a
    clean sweep can be told apart from noise."""
    qp = stats.quartiles(parent)
    qc = stats.quartiles(change)
    worse_by = stats.worsening(qp[1], qc[1], better)
    lower = better == "lower"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    ties = sum(1 for p, c in pairs if c == p)
    decided = len(pairs) - ties
    sweep = (
        max(change) < min(parent) if lower else min(change) > max(parent)
    )
    if sweep or (
        decided and wins >= 0.9 * decided and abs(qc[1] - qp[1]) > qp[2] - qp[0]
        and worse_by < 0
    ):
        return "improved"
    if stats.spread(parent) > bound:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    return "unchanged"


def compare_files(paths: Sequence[str]) -> int:
    """0 when nothing regressed and no exact count moved, 1 when something
    did, 2 when the files are not two full-scale sets."""
    if len(paths) != 2:
        print("usage: run.py compare PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    sets = []
    for path in paths:
        if path.endswith("_partial.json"):
            print("%s is a partial result; only full-scale sets compare" % path,
                  file=sys.stderr)
            return 2
        with open(path) as f:
            loaded = json.load(f)
        if "runs" not in loaded or not loaded.get("full_scale"):
            print("%s is not a full-scale set of runs" % path, file=sys.stderr)
            return 2
        sets.append(loaded)
    parent, change = sets
    regressed = 0
    print("%-16s %-18s %12s %12s %9s  %s" % (
        "workload", "metric", "parent", "change", "worse by", "verdict"))
    for workload, name, better, bound in pairs():
        a = values_of(parent, workload, name)
        b = values_of(change, workload, name)
        verdict = classify(a, b, better, bound)
        regressed += verdict == "regressed"
        ma, mb = stats.quartiles(a)[1], stats.quartiles(b)[1]
        print("%-16s %-18s %12.6g %12.6g %+9.4f  %s" % (
            workload, name, ma, mb, stats.worsening(ma, mb, better), verdict))
    moved = moved_counts(parent, change)
    for line in moved[:40]:
        print("count moved: %s" % line)
    print("operation counts: %s" % (
        "%d moved: the change has altered what the engine does, and the "
        "comparison fails unless its issue said it would" % len(moved)
        if moved else "identical, run for run"))
    for line in machine_lines(parent, change):
        print(line)
    return 1 if regressed or moved else 0


# -- smoke ---------------------------------------------------------------------------


def smoke() -> int:
    """Every workload at a twentieth of the size, twice, traced and not."""
    spec = report.manifest()
    problems: List[str] = []
    named = [w["name"] for w in spec["workloads"]]
    if named != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads %r != %r" % (named, workloads.WORKLOADS))
    for key, table in (("end_to_end", report.END_TO_END), ("per_layer", report.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(table):
            problems.append("BENCHMARK.json %s differs from report.py" % key)
    for workload in workloads.WORKLOADS:
        for trace, table in ((0, report.END_TO_END), (1, report.PER_LAYER)):
            twice = [one_run(workload, 3, trace, SMOKE_SCALE) for _ in range(2)]
            for result in twice:
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append("%s trace %d: wrong or failed operations" % (workload, trace))
                for name, unit, _better in table:
                    cell = result["metrics"].get(name)
                    if cell is None or cell["unit"] != unit:
                        problems.append("%s trace %d: %s missing or mis-united" % (workload, trace, name))
                if set(result["metrics"]) - {m[0] for m in table}:
                    problems.append("%s trace %d: unnamed metrics printed" % (workload, trace))
            if twice[0]["attempted"] != twice[1]["attempted"]:
                problems.append("%s: attempted differs between identical runs" % workload)
            if not trace:
                want = {m[0] for m in report.LEDGER_ONLY if workload in m[4]}
                if any(set(r["ledger_only"]) != want for r in twice):
                    problems.append("%s: ledger-only metrics are not %s" % (workload, sorted(want)))
                modelled = [r["ledger_only"].get("modelled_ms_per_op") for r in twice]
                if modelled[0] != modelled[1]:
                    problems.append("%s: modelled_ms_per_op read %r then %r" % (workload, *modelled))
            if trace and not workload.endswith("_wire"):
                for name in EXACT_INPROC:
                    a, b = (r["metrics"][name]["value"] for r in twice)
                    if a != b:
                        problems.append("%s: exact count %s read %r then %r" % (workload, name, a, b))
            print("  smoke %-16s trace %d done" % (workload, trace), flush=True)
    for problem in problems:
        print("SMOKE: %s" % problem)
    print("smoke: %s" % ("FAILED" if problems else "every name emitted, exact counts repeat"))
    return 1 if problems else 0

"""Tests of the ledger itself.  Not part of tier-1: run them with

    python -m pytest benchmarks/ledger -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import oracle  # noqa: E402
import report  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# -- estimators ------------------------------------------------------------------


def test_nearest_rank_returns_an_observed_value():
    values = [15, 20, 35, 40, 50]
    assert stats.nearest_rank(values, 5) == 15
    assert stats.nearest_rank(values, 30) == 20
    assert stats.nearest_rank(values, 40) == 20
    assert stats.nearest_rank(values, 50) == 35
    assert stats.nearest_rank(values, 100) == 50
    assert stats.nearest_rank(list(range(1, 101)), 95) == 95
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank(values, 0)


def test_high_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(200, 95) == 10
    assert stats.supported_percentile(200) == 95
    assert stats.samples_beyond(199, 95) == 9
    assert stats.supported_percentile(199) == 90
    assert stats.supported_percentile(99) == 75
    assert stats.supported_percentile(30) == 50
    assert stats.supported_percentile(5) == 50


def test_steady_half_is_half_unless_that_pools_too_few_samples():
    assert stats.steady_count(96, 28) == 48
    assert stats.steady_count(97, 28) == 49
    # 6 operations a pass: half of 40 passes pools 120 < 200 samples.
    assert stats.steady_count(40, 6) == 34
    assert stats.steady_count(10, 6) == 10


def test_steady_half_keeps_the_fastest_passes():
    walls = [0.30, 0.20, 0.50, 0.20, 0.90, 0.25]
    assert stats.steady_half(walls, 1000) == [1, 3, 5]
    # Ties go to the earlier pass, so the choice depends on times alone.
    assert stats.steady_half([1.0, 1.0, 1.0, 1.0], 1000) == [0, 1]


def test_setup_time_is_the_median_of_five_quickest():
    quick, slow = 1.0, 1.6
    # Two of the five stretches sit wholly inside a slow spell, the others
    # partly: the minima of three are quick, and so is their median.
    values = [slow] * 8 + [quick, slow, slow, slow] + [slow, quick, quick, quick] + [quick] * 4
    assert stats.median_of_quickest(values) == quick
    assert stats.median_of_quickest([3.0, 1.0, 2.0]) == 2.0


def test_spread_is_the_drivers_formula():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == (q3 - q1) / q2
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.mean_fastest([5.0, 1.0, 3.0, 9.0]) == 2.0
    assert stats.mean_fastest([5.0, 1.0, 3.0, 9.0, 7.0, 8.0, 6.0, 4.0, 2.0], 1 / 8) == 1.5


# -- workloads -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_pass_has_the_same_shape(workload, seed):
    spec = workloads.build(workload, seed, 0.05, measured_passes=24)
    first = [workloads.shape(ops) for ops in spec.passes[0]]
    assert len(first) == spec.clients
    assert all(len(ops) >= 6 for ops in first)
    for per_client in spec.passes:
        assert [workloads.shape(ops) for ops in per_client] == first
    # Clients run the same classes in the same order as each other.
    assert all(shape == first[0] for shape in first)


@pytest.mark.parametrize("workload", ["wisc_wire", "wisc_dml_inproc"])
def test_cold_statements_do_not_come_back_within_the_cycle(workload):
    spec = workloads.build(workload, 5, 0.05, measured_passes=40)
    hot = {op.arg for ops in spec.passes[0] for op in ops if op.hot}
    assert len(hot) == len(workloads.WISC_CLASSES)
    last_seen = {}
    for p, per_client in enumerate(spec.passes):
        for ops in per_client:
            for op in ops:
                if op.kind != "sql" or op.hot:
                    continue
                assert op.arg not in hot
                if op.arg in last_seen:
                    assert p - last_seen[op.arg] >= workloads.COLD_CYCLE
                last_seen[op.arg] = p


def test_inputs_are_a_function_of_the_seed():
    a = workloads.build("wisc_wire", 4, 0.05, 8)
    b = workloads.build("wisc_wire", 4, 0.05, 8)
    c = workloads.build("wisc_wire", 5, 0.05, 8)
    assert a == b
    assert a.tables != c.tables and a.passes != c.passes


def test_bank_clients_own_their_accounts():
    spec = workloads.build("bank_wire", 2, 0.05, 8)
    for per_client in spec.passes:
        for client, ops in enumerate(per_client):
            for op in ops:
                touched = op.arg[:2] if op.kind == "transfer" else (op.arg,)
                assert all(a % spec.clients == client for a in touched)
                if op.kind == "transfer":
                    assert op.arg[0] < op.arg[1]


def test_zipf_frequencies_are_exact():
    counts = workloads.zipf_counts(3072, 384, 1.1)
    assert sum(counts) == 3072
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 10 * counts[100]


# -- oracles ---------------------------------------------------------------------


def test_oracle_selftest_catches_both_corruptions():
    assert oracle.selftest() == []


def test_digest_ignores_order_not_content():
    rows = [(1, 2), (3, 4), (5, 6)]
    assert oracle.digest(rows) == oracle.digest([[5, 6], [1, 2], [3, 4]])
    assert oracle.digest(rows) != oracle.digest([(1, 2), (3, 4), (5, 7)])
    assert oracle.digest(rows) != oracle.digest(rows + [(1, 2)])


# -- compare ---------------------------------------------------------------------


def test_classify_follows_the_choosing_metrics_rule():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 0.9 for v in parent]
    slower = [v * 1.2 for v in parent]
    assert compare.classify(parent, faster, "lower", 0.05) == "improved"
    assert compare.classify(parent, slower, "lower", 0.05) == "regressed"
    assert compare.classify(parent, parent, "lower", 0.05) == "unchanged"
    assert compare.classify(parent, slower, "higher", 0.05) == "improved"
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0, 125.0, 85.0, 110.0, 95.0, 105.0]
    shifted = [v * 1.04 for v in noisy]
    assert compare.classify(noisy, shifted, "lower", 0.05) == "unresolved"


def _a_set(shift=1.0, modelled=109.5):
    runs = []
    for workload, name, _better, _bound in compare.pairs():
        for seed in compare.SEEDS:
            run = next(
                (r for r in runs if r["workload"] == workload and r["seed"] == seed), None
            )
            if run is None:
                run = {"workload": workload, "seed": seed, "metrics": {},
                       "exact": {"modelled_ms": modelled}, "kernel_ms": 2.7}
                runs.append(run)
            worse = shift if name == "restart_ms" else 1.0
            run["metrics"][name] = (100.0 + seed) * worse
    return {"full_scale": True, "runs": runs}


def test_compare_judges_restart_and_exact_counts(tmp_path, capsys):
    """The two end-to-end metrics BENCHMARK.json cannot hold are judged
    like the other six, and a moved count fails the comparison."""
    files = {}
    for label, made in (
        ("parent", _a_set()), ("same", _a_set()),
        ("slow_restart", _a_set(shift=1.3)), ("moved", _a_set(modelled=110.0)),
    ):
        files[label] = tmp_path / (label + ".json")
        files[label].write_text(json.dumps(made))
    assert compare.compare_files([str(files["parent"]), str(files["same"])]) == 0
    assert "restart_ms" in capsys.readouterr().out
    assert compare.compare_files([str(files["parent"]), str(files["slow_restart"])]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.compare_files([str(files["parent"]), str(files["moved"])]) == 1
    assert "count moved" in capsys.readouterr().out


def test_compare_refuses_partial_results(tmp_path, capsys):
    partial = tmp_path / "a_partial.json"
    partial.write_text(json.dumps({"runs": [], "full_scale": True}))
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"metrics": {}}))
    assert compare.compare_files([str(partial), str(partial)]) == 2
    assert compare.compare_files([str(single), str(single)]) == 2


# -- the manifest and the whole thing, small --------------------------------------


def test_manifest_names_what_the_ledger_emits():
    spec = report.manifest()
    assert spec["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", report.END_TO_END), ("per_layer", report.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(table)
    names = [m[0] for m in report.END_TO_END + report.LEDGER_ONLY + report.PER_LAYER]
    assert len(set(names)) == len(names)


def test_bounds_are_the_contracts_and_the_calibration_fits_them():
    bounds = {m["name"]: m["bound"] for m in report.manifest()["end_to_end"]}
    bounds.update({name: bound for name, _u, _b, bound, _where in report.LEDGER_ONLY})
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    # The contract gives set-up time the widest bound.
    assert report.manifest()["end_to_end"][0]["name"] == "setup_s"
    assert bounds["setup_s"] == max(bounds.values())
    # The committed calibration was judged against these bounds, and both
    # of its sets of runs agree within them on every pair.
    with open(os.path.join(report.OUT, "calibration.json")) as f:
        rows = json.load(f)["rows"]
    assert len(rows) == len(list(compare.pairs()))
    for row in rows:
        assert row["bound"] == bounds[row["metric"]], row["metric"]
        assert row["within_bound"], (row["workload"], row["metric"])


def test_every_layer_metric_says_what_it_should_move():
    """``BENCHMARK.json`` has no room for it, so ``report.MOVES`` does."""
    has = {name: set(workloads.WORKLOADS) for name, _u, _b in report.END_TO_END}
    has.update({m[0]: set(m[4]) for m in report.LEDGER_ONLY})
    for name, _unit, _better in report.PER_LAYER:
        metrics, where = report.MOVES[name]
        if name.startswith("harness."):
            assert not metrics and not where
            continue
        assert metrics and where, name
        assert set(where) <= set(workloads.WORKLOADS), name
        for metric in metrics:
            # ... and each named metric exists on one of the named workloads.
            assert has[metric] & set(where), (name, metric)


def test_smoke_every_workload_twice():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

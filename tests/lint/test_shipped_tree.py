"""Meta-tests: the shipped tree itself must satisfy every rule.

This is the CI gate in miniature: ``python -m repro.lint`` over the real
``repro`` package must exit 0, and the real lock-acquisition graph must
be acyclic both statically (here) and dynamically (the conftest autouse
recorder across the whole suite).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint.checkers.lock_order import LockOrderChecker
from repro.lint.engine import ERROR, collect_modules, run_lint
from repro.lint.ipa import analyze_project

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_shipped_tree_is_clean():
    findings = run_lint()
    errors = [f.format() for f in findings if f.severity == ERROR]
    assert errors == [], "\n".join(errors)


def test_cli_exits_zero_on_shipped_tree():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["counts"]["errors"] == 0


def test_shipped_lock_graph_is_acyclic():
    assert run_lint(checkers=[LockOrderChecker()]) == []


def test_shipped_lock_graph_contains_governor_lock():
    modules, failures = collect_modules()
    assert failures == []
    edges = analyze_project(modules).lock_edges()
    assert ("Governor._lock", "PlanReuseCache._mu") in edges

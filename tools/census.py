#!/usr/bin/env python3
"""Reachability census: the functions in ``src/repro`` no entry point runs.

    python tools/census.py > census.json

Copies the tree to a temporary directory and runs its entry points
there: the ledger smoke, each example, the ``python -m repro``
commands, the tier-1 tests that hold the paper's claims (``CLAIMS``)
and the chaos sweeps.  A
generated ``sitecustomize`` goes first on ``PYTHONPATH``, so every process
they start -- the ledger's re-exec and its server child included --
profiles each Python call in every thread and, at exit, writes the code
objects it saw to one file per pid.  A definition is matched to a code
object by file and first line; a decorated function's first line is its
first decorator's, as in ``co_firstlineno``.

Prints one JSON report: every function outside ``repro.lint`` that no
entry point reached, with module, qualname, first line and length in
lines, plus totals and each entry point's exit status.  The linter is
left out because its entry point is its own test suite.  Stdlib only; no
options; about two minutes on two vCPUs.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SQL = (
    "SELECT emp.name, dept.dname FROM emp, dept "
    "WHERE emp.dept = dept.dept_id AND emp.salary > 50000"
)
#: The tier-1 tests that assert the paper's tables, figures and ablations
#: (EXPERIMENTS.md E1-E23) and the correctness half of the paths the ledger
#: times -- the claims, not the unit tests around them.
CLAIMS = [
    "tests/test_access_model.py",
    "tests/test_access_simulator.py",
    "tests/test_join_model.py",
    "tests/test_cost_parameters.py",
    "tests/test_storage_buffer.py::TestSectionTwoFaultModel",
    "tests/test_prefix_queries.py::test_j_star_scan_faults_per_record_versus_per_leaf",
    "tests/test_range_access.py::TestTable1CrossoverByMeasurement",
    "tests/test_join_algorithms.py::TestCorrectness",
    "tests/test_join_algorithms.py::TestCountersTrackTheClosedForms",
    "tests/test_join_algorithms.py::TestSkewAblation",
    "tests/test_batch_equivalence.py::TestJoinEquivalence",
    "tests/test_batch_equivalence.py::TestSelection",
    "tests/test_batch_equivalence.py::TestProjection",
    "tests/test_batch_equivalence.py::TestAggregation",
    "tests/test_operators_aggregate.py::TestHashBeatsSortInModelledSeconds",
    "tests/test_operators_projection.py::test_hash_distinct_beats_sort_distinct_in_modelled_seconds",
    "tests/test_planner_optimizer.py::TestLargeMemoryPlanning",
    "tests/test_integration.py::TestWisconsinSuite",
    "tests/test_governor.py::TestGrantRevocationDegradation",
    "tests/test_log_manager.py::TestThroughputLadder",
    "tests/test_log_manager.py::test_compressed_log_recovers_exactly_with_two_thirds_the_bytes",
    "tests/test_checkpoint_restart.py::TestCheckpointCadence",
    "tests/test_restart_edges.py::TestParallelRedo",
    "tests/test_versioning.py",
    "tests/server/test_net.py::TestSessionLadderInvariants",
    "tests/server/test_overload.py",
]
ENTRY_POINTS: List[List[str]] = [
    ["benchmarks/ledger/run.py", "--smoke"],
    *[
        [str(path.relative_to(ROOT))]
        for path in sorted((ROOT / "examples").glob("*.py"))
    ],
    *[
        ["-m", "repro", command]
        for command in ("table1", "figure1", "throughput", "recovery")
    ],
    ["-m", "repro", "sql", SQL],
    ["-m", "pytest", "-q", "-p", "no:cacheprovider", *CLAIMS],
    ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/chaos"],
]

HOOK = '''\
import atexit
import os
import sys
import threading

_seen = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code


def _dump():
    sys.setprofile(None)
    lines = sorted({
        "%%s\\t%%d" %% (code.co_filename, code.co_firstlineno)
        for code in tuple(_seen.values())
        if code.co_filename.startswith(%(package)r)
    })
    path = os.path.join(%(out)r, "%%d.txt" %% os.getpid())
    with open(path, "a") as f:
        f.write("".join(line + "\\n" for line in lines))


atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def definitions(package: Path) -> Dict[Tuple[str, int], Dict[str, object]]:
    """Every def outside ``repro.lint``, nested ones included, keyed by
    (path relative to the package, first line)."""
    found: Dict[Tuple[str, int], Dict[str, object]] = {}
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        if relative.startswith("lint/"):
            continue
        module = "repro." + relative[:-3].replace("/", ".")
        module = module[: -len(".__init__")] if module.endswith(".__init__") else module

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    qualname = prefix + child.name
                    found[(relative, first)] = {
                        "module": module,
                        "qualname": qualname,
                        "line": first,
                        "length": child.end_lineno - first + 1,
                    }
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def run_entry_points(tree: Path, out: Path) -> List[Dict[str, object]]:
    hook = tree / "_census_hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        HOOK % {"package": str(tree / "src" / "repro"), "out": str(out)}
    )
    path = [str(hook), str(tree / "src"), os.environ.get("PYTHONPATH", "")]
    runs = []
    for args in ENTRY_POINTS:
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable] + args,
            cwd=tree,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        runs.append({
            "command": " ".join(args),
            "returncode": done.returncode,
            "seconds": round(time.monotonic() - started, 1),
        })
    return runs


def reached(tree: Path, out: Path) -> Set[Tuple[str, int]]:
    package = tree / "src" / "repro"
    seen = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, first = line.rsplit("\t", 1)
            relative = Path(filename).resolve().relative_to(package.resolve())
            seen.add((relative.as_posix(), int(first)))
    return seen


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        tree = Path(scratch) / "tree"
        out = Path(scratch) / "seen"
        out.mkdir()
        shutil.copytree(
            ROOT, tree,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache"
            ),
        )
        runs = run_entry_points(tree, out)
        seen = reached(tree, out)
        defs = definitions(tree / "src" / "repro")
    unreached = [defs[key] for key in sorted(defs) if key not in seen]
    report = {
        "entry_points": runs,
        "totals": {
            "functions": len(defs),
            "unreached": len(unreached),
            "unreached_lines": sum(d["length"] for d in unreached),
        },
        "unreached": unreached,
    }
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

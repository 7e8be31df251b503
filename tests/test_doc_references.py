"""The documents cite what exists.

README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` describe the
current tree (ROADMAP.md and CHANGES.md are history and are not read):

* every repository path they cite under ``tests/``, ``benchmarks/``,
  ``examples/`` or ``tools/``, every ``*.json`` file and every bare
  ``*.py`` file name exists;
* every ``## E<n>`` section of EXPERIMENTS.md names something that runs
  -- a test path, a ``python -m repro`` command or a ledger workload --
  or says it is retired.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
#: Files a command the document shows writes; they are not in the tree.
WRITTEN_BY_COMMANDS = {"lock-graph.json", "census.json"}

PATH = re.compile(
    r"(?<![\w/.-])((?:tests|benchmarks|examples|tools)/[\w./*-]*[\w/*]|[\w./*-]+\.json)"
)
PY_NAME = re.compile(r"(?<![\w/.-])(\w+\.py)\b")


def python_file_names():
    return {path.name for path in ROOT.rglob("*.py") if ".git" not in path.parts}


def exists(path, document):
    """``path`` from the repository root or, as a link, from the document."""
    return any(
        any(base.glob(path)) if "*" in path else (base / path).exists()
        for base in (ROOT, document.parent)
    )


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.name)
def test_cited_paths_exist(document):
    text = document.read_text()
    missing = sorted({
        path
        for path in (m.group(1) for m in PATH.finditer(text))
        if path not in WRITTEN_BY_COMMANDS and not exists(path, document)
    })
    names = python_file_names()
    missing += sorted({
        name for name in (m.group(1) for m in PY_NAME.finditer(text))
        if name not in names
    })
    assert missing == [], "%s cites what is not in the tree" % document.name


def test_every_experiment_names_something_runnable():
    workloads = [
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ]
    runnable = re.compile(
        r"tests/\S+|python -m repro\b|\bretired\b|"
        + "|".join(r"\b%s\b" % re.escape(w) for w in workloads)
    )
    sections = re.split(r"^## ", (ROOT / "EXPERIMENTS.md").read_text(), flags=re.M)
    experiments = [s for s in sections if re.match(r"E\d+", s)]
    assert len(experiments) >= 30
    silent = [s.splitlines()[0] for s in experiments if not runnable.search(s)]
    assert silent == []

"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, asserts
its qualitative claims, and emits the regenerated rows both to stdout (run
with ``-s`` to see them) and to ``benchmarks/out/<experiment>.txt`` so
EXPERIMENTS.md can be cross-checked against fresh numbers.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Sequence

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def emit(experiment: str, lines: Iterable[str]) -> str:
    """Print and persist an experiment's regenerated rows."""
    text = "\n".join(lines)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, experiment + ".txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    print()
    print("=== %s ===" % experiment)
    print(text)
    return path


def emit_json(experiment: str, payload: Dict[str, Any]) -> str:
    """Persist a machine-readable result to ``benchmarks/out/<experiment>.json``.

    ``benchmarks/out/`` is the only write target: the repo-root
    ``BENCH_PR*.json`` files are frozen history, and a reduced-scale smoke
    run must not be able to rewrite them.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = os.path.join(OUT_DIR, experiment + ".json")
    with open(path, "w") as f:
        f.write(text)
    return path


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> List[str]:
    """Plain fixed-width table rendering."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return out


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return "%.3g" % value
        return "%.3f" % value
    return str(value)

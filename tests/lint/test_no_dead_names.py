"""No definition in ``src/repro`` may be a name nothing else mentions.

Walks every module under ``src/repro`` with :mod:`ast` and fails for any
function, method or class whose name occurs exactly once -- at its own
definition -- across the Python sources of ``src/``, ``tests/``,
``benchmarks/`` and ``examples/``.  An occurrence is any identifier-shaped
word, so a name reached through a string (``getattr``, a span table, an
error message) counts as used.  A re-export is not a use: the package
``__init__.py`` files under ``src/repro`` and every module's own
``__all__`` list are not counted.  Dunder names are exempt: the
interpreter calls them.  The match is by bare name, so two methods that share a name
keep each other alive; the guard catches the clear cases, not every one.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import FrozenSet, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "examples")

#: Names reached only by dynamic dispatch, which no other source line
#: spells out in full -- an ``ast.NodeVisitor`` ``visit_<Node>`` method,
#: or a method found by ``getattr`` on a name built from pieces.  Empty
#: today: the linter's checkers are called through ``check_module`` /
#: ``check_project``, and the server's verbs through a literal table.
ALLOWED: FrozenSet[str] = frozenset()

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions() -> Iterator[Tuple[str, str, int]]:
    """``(name, module path, line)`` for every def and class in the
    package, nested ones included."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield node.name, str(path.relative_to(REPO_ROOT)), node.lineno


def _without_all(source: str) -> str:
    """``source`` with its ``__all__`` assignments blanked out."""
    lines = source.splitlines()
    for node in ast.parse(source).body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            lines[node.lineno - 1 : node.end_lineno] = [""] * (
                node.end_lineno - node.lineno + 1
            )
    return "\n".join(lines)


def _word_counts() -> Counter:
    counts: Counter = Counter()
    for top in SEARCHED:
        for path in (REPO_ROOT / top).rglob("*.py"):
            if path.name == "__init__.py" and PACKAGE in path.parents:
                continue
            counts.update(_WORD.findall(_without_all(path.read_text())))
    return counts


def dead_definitions() -> List[str]:
    counts = _word_counts()
    return sorted(
        "%s:%d %s" % (module, line, name)
        for name, module, line in _definitions()
        if counts[name] <= 1
        and not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWED
    )


def test_every_definition_is_referenced():
    dead = dead_definitions()
    assert dead == [], (
        "defined in src/repro but named nowhere else in src/, tests/, "
        "benchmarks/ or examples/ -- delete them, or list a name reached "
        "only by dynamic dispatch in ALLOWED:\n  " + "\n  ".join(dead)
    )


def test_allowlist_is_not_stale():
    """Every allowlisted name is still defined, so the list shrinks with
    the code it excuses."""
    defined = {name for name, _, _ in _definitions()}
    assert sorted(ALLOWED - defined) == []

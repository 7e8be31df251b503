"""The rule engine behind ``python -m repro.lint``.

The paper's headline numbers are analytic: they hold only while every
execution path charges exactly the primitive operations the model expects,
every concurrent component acquires locks in one global order, and every
durable mutation is reachable by the chaos sweeps.  Those disciplines are
invariants *of the source*, so this engine checks them at the source level:
it parses every module under ``src/repro`` once, hands the ASTs to a set of
domain-specific :class:`Checker` subclasses, and reports
:class:`Finding` objects with ``file:line``, a rule id, and a severity.

Suppressions are explicit and greppable::

    raise ValueError("...")  # repro-lint: disable=banned-raise
    # repro-lint: disable-file=public-api

A stand-alone suppression comment also covers the line directly below it,
so multi-line statements can carry one without fighting the formatter.

Severities: ``error`` findings fail the build; ``warning`` findings are
informational unless ``--strict``.  A *baseline* file (``--baseline``)
demotes known findings to warnings so a new rule can land warn-only and be
promoted once the tree is clean (see docs/LINTING.md).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ERROR = "error"
WARNING = "warning"

#: ``# repro-lint: disable=rule-a,rule-b`` / ``disable-file=rule`` comments.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[\w\-*]+(?:\s*,\s*[\w\-*]+)*)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    @property
    def fingerprint(self) -> str:
        """Location-independent identity used by baseline files (line
        numbers shift on unrelated edits; rule+path+message rarely do)."""
        return "%s::%s::%s" % (self.rule, Path(self.path).as_posix(), self.message)

    def format(self) -> str:
        return "%s:%d:%d: %s [%s] %s" % (
            self.path,
            self.line,
            self.col,
            self.severity,
            self.rule,
            self.message,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass
class SourceModule:
    """One parsed source file plus its suppression table."""

    path: Path
    display_path: str
    module: str
    text: str
    tree: ast.Module
    #: line number -> rule ids suppressed on that line ("*" = all).
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule ids suppressed for the whole file ("*" = all).
    file_suppressions: Set[str] = field(default_factory=set)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if "*" in self.file_suppressions or rule in self.file_suppressions:
            return True
        rules = self.line_suppressions.get(line, ())
        return "*" in rules or rule in rules


class Checker:
    """Base class: subclasses visit one module, or the whole project."""

    #: Rule ids this checker can emit, with one-line descriptions.
    rules: Dict[str, str] = {}

    def check_module(
        self, module: SourceModule, config: "LintConfig"
    ) -> Iterable[Finding]:
        return ()

    def check_project(
        self, modules: Sequence[SourceModule], config: "LintConfig"
    ) -> Iterable[Finding]:
        return ()


@dataclass
class LintConfig:
    """Scope and policy knobs for the checkers.

    Scopes are module-name prefixes (``repro.join``), so fixture trees in
    tests can re-point them without touching the rules themselves.
    """

    #: Modules whose behaviour feeds the analytic model: wall clocks,
    #: unseeded randomness, and set-iteration order are all banned here.
    deterministic_prefixes: Tuple[str, ...] = (
        "repro.access",
        "repro.chaos",
        "repro.cost",
        "repro.join",
        "repro.operators",
        "repro.planner",
        "repro.recovery",
        "repro.sim",
        "repro.storage",
        "repro.workload",
    )
    #: Modules that charge OperationCounters (counter-discipline scope).
    counter_prefixes: Tuple[str, ...] = (
        "repro.access",
        "repro.join",
        "repro.operators",
    )
    #: Names that statically identify an OperationCounters receiver.
    counter_receivers: Tuple[str, ...] = ("counters", "ctrs")
    #: Cross-module charge helpers the per-module fixpoint cannot see,
    #: mapped to the counter names they charge (JoinAlgorithm.charge_heap_op
    #: lives in join/base.py but is called from every join module).
    charge_helpers: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "charge_heap_op": ("compare", "swap_tuples"),
            # Columnar kernel helpers (operators/columnar.py), called by
            # bare name from the packed-buffer batch arms.
            "charge_page_compares": ("compare",),
            "charge_page_moves": ("move_tuple",),
            "charge_page_group": ("hash_key", "compare"),
            "charge_page_fetch": ("compare", "move_tuple"),
        }
    )
    #: Classes whose I/O-performing methods must carry a chaos seam,
    #: mapped to the attribute names that count as the seam.
    seam_classes: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "LogDevice": ("fault_injector",),
            "StableMemory": ("on_append", "fault_injector"),
            "BufferPool": ("fault_injector",),
            "Checkpointer": ("fault_injector",),
            # The bank's group-commit flush must observe the crash flag
            # so chaos-severed stores stop writing mid-flush.
            "BankStore": ("_crashed",),
        }
    )
    #: Name segments that mark a method as I/O-performing.
    seam_verbs: Tuple[str, ...] = (
        "write",
        "append",
        "flush",
        "dispatch",
        "install",
        "access",
        "drain",
        "seal",
        "checkpoint",
    )
    #: Builtin exception families banned from direct ``raise``.
    banned_raises: Tuple[str, ...] = (
        "AssertionError",
        "BaseException",
        "Exception",
        "RuntimeError",
        "ValueError",
    )
    #: Module names exempt from the public-api __all__ requirement.
    no_all_ok: Tuple[str, ...] = ("__main__", "conftest")
    #: Modules whose objects are reachable from multiple thread entry
    #: points (server statement threads, each running its own plan and
    #: joins; the group-commit flusher) -- the scope of the
    #: interprocedural concurrency rules (blocking-under-lock,
    #: unlocked-shared-write, rwlock-discipline, resource-lifecycle).
    concurrency_prefixes: Tuple[str, ...] = (
        "repro.core",
        "repro.cost",
        "repro.governor",
        "repro.join",
        "repro.planner",
        "repro.server",
    )
    #: Constructors whose values are safe to mutate without a lock
    #: (per-thread structures: each thread touches only its own shard).
    threadsafe_factories: Tuple[str, ...] = (
        "ShardedOperationCounters",
        "local",
        "threading.local",
    )
    #: Resource-acquiring method calls (``h = gov.admit(...)``) mapped to
    #: the release-call names that must reach every exit path.
    resource_acquires: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "admit": ("release",),
        }
    )
    #: Resource-constructing calls (``w = SpillWriter(...)``) mapped to
    #: their close methods.
    resource_factories: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "SpillWriter": ("close",),
        }
    )
    #: State-transition calls that re-open a resource obligation on an
    #: existing handle (``gov.begin_wait(h)`` parks h's slot; every path
    #: must then reach ``end_wait(h)`` or ``release(h)``).
    resource_transitions: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "begin_wait": ("end_wait", "release"),
        }
    )
    #: Required chaos-seam inventory: module name -> callables that must
    #: be defined or referenced there, so the post-PR-5 fault points
    #: (bank park/unpark, server disconnect/crash) cannot be silently
    #: dropped.  Only enforced for modules present in the tree.
    seam_inventory: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "repro.chaos.injector": ("executor_page",),
            # Bank park/unpark chaos points fire through _chaos_point
            # labels in the session layer; close_session is the
            # disconnect seam the 220-seed interleaving sweep drives.
            "repro.server.session": ("_chaos_point", "close_session"),
            "repro.server.net": ("crash", "recover"),
            "repro.server.bank": ("crash", "recover", "await_grant"),
        }
    )


def _parse_suppressions(
    text: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    per_line: Dict[int, Set[str]] = {}
    whole_file: Set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
        if match.group("kind") == "disable-file":
            whole_file |= rules
        else:
            per_line.setdefault(lineno, set()).update(rules)
            if line[: match.start()].strip() == "":
                # Stand-alone comment: also covers the line below it.
                per_line.setdefault(lineno + 1, set()).update(rules)
    return per_line, whole_file


def _module_name(path: Path) -> str:
    """Dotted module name, anchored at the ``repro`` package when the
    file lives inside one (fixture trees fall back to the stem)."""
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def load_module(path: Path, root: Optional[Path] = None) -> SourceModule:
    """Parse one file into a :class:`SourceModule` (raises on bad syntax)."""
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    per_line, whole_file = _parse_suppressions(text)
    try:
        display = str(path.relative_to(root)) if root else str(path)
    except ValueError:
        display = str(path)
    return SourceModule(
        path=path,
        display_path=display,
        module=_module_name(path),
        text=text,
        tree=tree,
        line_suppressions=per_line,
        file_suppressions=whole_file,
    )


def default_root() -> Path:
    """The installed ``repro`` package directory (the default lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def collect_modules(
    paths: Optional[Sequence[Path]] = None,
    jobs: int = 1,
) -> Tuple[List[SourceModule], List[Finding]]:
    """Load every ``.py`` under ``paths`` (default: the repro package).

    Returns the parsed modules plus parse-failure findings (a file the
    engine cannot parse is itself an error, not a crash).  ``jobs > 1``
    reads and parses files on a thread pool (``--jobs N``); results come
    back in the same deterministic file order either way.
    """
    if not paths:
        paths = [default_root()]
    root = Path.cwd()
    files: List[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)

    def load_one(path: Path):
        try:
            return load_module(path, root=root)
        except SyntaxError as exc:
            return Finding(
                rule="parse",
                severity=ERROR,
                path=str(path),
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message="syntax error: %s" % (exc.msg,),
            )

    if jobs > 1 and len(files) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(load_one, files))
    else:
        results = [load_one(path) for path in files]
    modules: List[SourceModule] = []
    failures: List[Finding] = []
    for result in results:
        if isinstance(result, Finding):
            failures.append(result)
        else:
            modules.append(result)
    return modules, failures


def all_checkers() -> List[Checker]:
    from repro.lint.checkers import ALL_CHECKERS

    return [cls() for cls in ALL_CHECKERS]


def run_lint(
    paths: Optional[Sequence[Path]] = None,
    config: Optional[LintConfig] = None,
    rules: Optional[Set[str]] = None,
    checkers: Optional[Sequence[Checker]] = None,
    jobs: int = 1,
) -> List[Finding]:
    """Run every checker over ``paths``; return unsuppressed findings."""
    config = config or LintConfig()
    modules, findings = collect_modules(paths, jobs=jobs)
    module_by_path = {m.display_path: m for m in modules}
    for checker in checkers if checkers is not None else all_checkers():
        emitted: List[Finding] = []
        for module in modules:
            emitted.extend(checker.check_module(module, config))
        emitted.extend(checker.check_project(modules, config))
        for finding in emitted:
            if rules is not None and finding.rule not in rules:
                continue
            module = module_by_path.get(finding.path)
            if module is not None and module.is_suppressed(
                finding.rule, finding.line
            ):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# -- baseline --------------------------------------------------------------


def load_baseline(path: Path) -> Set[str]:
    data = json.loads(Path(path).read_text())
    return set(data.get("fingerprints", ()))


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    fingerprints = sorted(
        {f.fingerprint for f in findings if f.severity == ERROR}
    )
    Path(path).write_text(
        json.dumps({"version": 1, "fingerprints": fingerprints}, indent=2)
        + "\n"
    )


def apply_baseline(
    findings: Sequence[Finding], baseline: Set[str]
) -> List[Finding]:
    """Demote baselined error findings to warnings (land rules warn-only)."""
    demoted: List[Finding] = []
    for f in findings:
        if f.severity == ERROR and f.fingerprint in baseline:
            demoted.append(
                Finding(
                    rule=f.rule,
                    severity=WARNING,
                    path=f.path,
                    line=f.line,
                    col=f.col,
                    message=f.message + " (baselined)",
                )
            )
        else:
            demoted.append(f)
    return demoted


# -- output ----------------------------------------------------------------


def format_text(findings: Sequence[Finding]) -> str:
    lines = [f.format() for f in findings]
    errors = sum(1 for f in findings if f.severity == ERROR)
    warnings = len(findings) - errors
    lines.append(
        "repro.lint: %d error(s), %d warning(s)" % (errors, warnings)
    )
    return "\n".join(lines)


#: Version of the JSON report layout (CI artifacts key on this; the
#: legacy top-level ``version`` field is kept for older consumers).
SCHEMA_VERSION = 2


def format_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        {
            "version": 1,
            "schema_version": SCHEMA_VERSION,
            "counts": {
                "errors": sum(1 for f in findings if f.severity == ERROR),
                "warnings": sum(
                    1 for f in findings if f.severity == WARNING
                ),
            },
            "findings": [f.as_dict() for f in findings],
        },
        indent=2,
    )


__all__ = [
    "ERROR",
    "SCHEMA_VERSION",
    "WARNING",
    "Checker",
    "Finding",
    "LintConfig",
    "SourceModule",
    "all_checkers",
    "apply_baseline",
    "collect_modules",
    "default_root",
    "format_json",
    "format_text",
    "load_baseline",
    "load_module",
    "run_lint",
    "write_baseline",
]

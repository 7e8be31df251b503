"""Command line for the invariant linter: ``python -m repro.lint``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import (
    ERROR,
    Finding,
    all_checkers,
    collect_modules,
    format_json,
    format_text,
    run_lint,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant linter for the reproduction: "
            "determinism, counter discipline, error taxonomy, chaos-seam "
            "coverage, lock order, and public-API consistency "
            "(docs/LINTING.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--lock-graph",
        action="store_true",
        help="print the statically extracted lock-acquisition graph and "
        "exit (JSON with --format json; see also --runtime-graph)",
    )
    parser.add_argument(
        "--runtime-graph",
        type=Path,
        metavar="FILE",
        help="with --lock-graph: merge the runtime-observed edge set "
        "exported by the test suite (REPRO_LOCK_GRAPH_OUT) and fail if "
        "any runtime edge is missing from the static graph",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for checker in all_checkers():
            for rule, description in sorted(checker.rules.items()):
                print("%-16s %s" % (rule, description))
        return 0

    if args.runtime_graph and not args.lock_graph:
        parser.error("--runtime-graph requires --lock-graph")

    if args.lock_graph:
        return _lock_graph(args)

    rules = None
    if args.rules:
        rules = {r.strip() for r in args.rules.split(",") if r.strip()}
        known = {rule for c in all_checkers() for rule in c.rules}
        unknown = sorted(rules - known)
        if unknown:
            parser.error(
                "unknown rule id(s): %s (known: %s)"
                % (", ".join(unknown), ", ".join(sorted(known)))
            )

    findings = run_lint(paths=args.paths, rules=rules)
    _print_findings(findings, args.format)
    return 1 if any(f.severity == ERROR for f in findings) else 0


def _print_findings(findings: List[Finding], fmt: str) -> None:
    print(format_json(findings) if fmt == "json" else format_text(findings))


def _lock_graph(args: argparse.Namespace) -> int:
    """--lock-graph: report the static graph, optionally merged and
    diffed against a runtime-observed edge set (the CI artifact)."""
    import json

    from repro.lint.ipa import analyze_project
    from repro.lint.runtime import (
        canonical_lock_name,
        runtime_edges_missing_statically,
    )

    modules, failures = collect_modules(args.paths)
    if failures:
        _print_findings(failures, args.format)
        return 1
    static_edges = analyze_project(modules).lock_edges()
    runtime_edges = set()
    if args.runtime_graph:
        with open(args.runtime_graph, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        runtime_edges = {tuple(edge) for edge in payload.get("edges", [])}
    missing = runtime_edges_missing_statically(static_edges, runtime_edges)

    if args.format == "json":
        merged = set(static_edges)
        merged.update(
            (canonical_lock_name(a), canonical_lock_name(b))
            for a, b in runtime_edges
            if a.startswith("repro.") and b.startswith("repro.")
        )
        merged = {(a, b) for a, b in merged if a != b}
        print(
            json.dumps(
                {
                    "schema_version": 2,
                    "kind": "lock-graph",
                    "static_edges": sorted(list(e) for e in static_edges),
                    "merged_edges": sorted(list(e) for e in merged),
                    "runtime_only_edges": sorted(list(e) for e in missing),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for held, acquired in sorted(static_edges):
            print("%s -> %s" % (held, acquired))
        for held, acquired in missing:
            print(
                "RUNTIME-ONLY %s -> %s (not predicted statically)"
                % (held, acquired)
            )
    if missing:
        print(
            "error: %d runtime lock edge(s) missing from the static "
            "graph" % len(missing),
            file=sys.stderr,
        )
        return 1
    return 0


__all__ = ["build_parser", "main"]

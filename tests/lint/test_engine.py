"""Engine-level tests: suppressions, output formats, fingerprints, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.lint.checkers.determinism import DeterminismChecker
from repro.lint.checkers.error_taxonomy import ErrorTaxonomyChecker
from repro.lint.cli import main
from repro.lint.engine import (
    ERROR,
    Finding,
    format_json,
    format_text,
    run_lint,
)

from tests.lint.conftest import lint, rules_of, write_module

_CLOCK = """\
    import time

    def stamp():
        return time.time()
"""


def test_banned_call_is_reported(tmp_path):
    write_module(tmp_path, "repro/storage/fixture.py", _CLOCK)
    findings = lint(tmp_path, [DeterminismChecker()])
    assert rules_of(findings) == ["determinism"]
    assert findings[0].severity == ERROR
    assert findings[0].line == 4


def test_same_line_suppression(tmp_path):
    write_module(
        tmp_path,
        "repro/storage/fixture.py",
        """\
        import time

        def stamp():
            return time.time()  # repro-lint: disable=determinism
        """,
    )
    assert lint(tmp_path, [DeterminismChecker()]) == []


def test_standalone_suppression_covers_next_line(tmp_path):
    write_module(
        tmp_path,
        "repro/storage/fixture.py",
        """\
        import time

        def stamp():
            # repro-lint: disable=determinism
            return time.time()
        """,
    )
    assert lint(tmp_path, [DeterminismChecker()]) == []


def test_file_level_suppression(tmp_path):
    write_module(
        tmp_path,
        "repro/storage/fixture.py",
        """\
        # repro-lint: disable-file=determinism
        import time

        def stamp():
            return time.time()
        """,
    )
    assert lint(tmp_path, [DeterminismChecker()]) == []


def test_wildcard_suppression(tmp_path):
    write_module(
        tmp_path,
        "repro/storage/fixture.py",
        """\
        import time

        def stamp():
            return time.time()  # repro-lint: disable=*
        """,
    )
    assert lint(tmp_path, [DeterminismChecker()]) == []


def test_suppressing_a_different_rule_does_not_hide(tmp_path):
    write_module(
        tmp_path,
        "repro/storage/fixture.py",
        """\
        import time

        def stamp():
            return time.time()  # repro-lint: disable=public-api
        """,
    )
    assert rules_of(lint(tmp_path, [DeterminismChecker()])) == ["determinism"]


def test_rules_filter(tmp_path):
    write_module(
        tmp_path,
        "repro/storage/fixture.py",
        """\
        import time

        def bad():
            raise ValueError(time.time())
        """,
    )
    checkers = [DeterminismChecker(), ErrorTaxonomyChecker()]
    both = lint(tmp_path, checkers)
    assert sorted(rules_of(both)) == ["banned-raise", "determinism"]
    only = lint(tmp_path, checkers, rules={"banned-raise"})
    assert rules_of(only) == ["banned-raise"]


def test_parse_failure_is_a_finding_not_a_crash(tmp_path):
    write_module(tmp_path, "repro/storage/broken.py", "def f(:\n")
    findings = lint(tmp_path, [DeterminismChecker()])
    assert rules_of(findings) == ["parse"]
    assert findings[0].severity == ERROR


# -- output formats ---------------------------------------------------------


def test_json_output_schema(tmp_path):
    write_module(tmp_path, "repro/storage/fixture.py", _CLOCK)
    findings = lint(tmp_path, [DeterminismChecker()])
    payload = json.loads(format_json(findings))
    assert payload["version"] == 1
    assert payload["counts"] == {"errors": 1, "warnings": 0}
    (entry,) = payload["findings"]
    assert set(entry) == {
        "rule",
        "severity",
        "path",
        "line",
        "col",
        "message",
        "fingerprint",
    }
    assert entry["rule"] == "determinism"
    assert entry["severity"] == ERROR
    assert entry["line"] == 4


def test_text_output_has_location_and_summary(tmp_path):
    write_module(tmp_path, "repro/storage/fixture.py", _CLOCK)
    findings = lint(tmp_path, [DeterminismChecker()])
    text = format_text(findings)
    assert ":4:" in text
    assert "[determinism]" in text
    assert text.endswith("repro.lint: 1 error(s), 0 warning(s)")


# -- fingerprints -----------------------------------------------------------


def _finding(line: int = 1, message: str = "m") -> Finding:
    return Finding(
        rule="determinism",
        severity=ERROR,
        path="repro/storage/fixture.py",
        line=line,
        col=0,
        message=message,
    )


def test_fingerprint_ignores_line_numbers():
    assert _finding(line=4).fingerprint == _finding(line=400).fingerprint
    assert (
        _finding(message="a").fingerprint != _finding(message="b").fingerprint
    )


# -- CLI exit codes ---------------------------------------------------------


def test_cli_exit_one_on_errors(tmp_path, capsys):
    write_module(tmp_path, "repro/storage/fixture.py", _CLOCK)
    assert main([str(tmp_path)]) == 1
    assert "[determinism]" in capsys.readouterr().out


def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    write_module(
        tmp_path,
        "repro/storage/fixture.py",
        """\
        def stamp(clock):
            return clock.now()

        __all__ = ["stamp"]
        """,
    )
    assert main([str(tmp_path)]) == 0


def test_cli_unknown_rule_is_a_usage_error(tmp_path, capsys):
    # A typo must not run zero rules and pass: it exits 2 and names the
    # known ids.
    write_module(tmp_path, "repro/storage/fixture.py", _CLOCK)
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path), "--rules", "lock_order,determinsm"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "determinsm" in err and "lock_order" in err
    assert "lock-order" in err and "determinism" in err


def test_cli_runtime_graph_requires_lock_graph(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--runtime-graph", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    assert "--lock-graph" in capsys.readouterr().err


def test_cli_lock_graph_fails_on_unparsable_file(tmp_path, capsys):
    write_module(tmp_path, "repro/storage/broken.py", "def f(:\n")
    assert main([str(tmp_path), "--lock-graph"]) == 1
    out = capsys.readouterr().out
    assert "[parse]" in out and "broken.py" in out


def test_cli_json_format(tmp_path, capsys):
    write_module(tmp_path, "repro/storage/fixture.py", _CLOCK)
    assert main([str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["errors"] == 1


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "determinism",
        "counter-api",
        "counter-parity",
        "banned-raise",
        "bare-except",
        "exception-base",
        "chaos-seam",
        "lock-order",
        "public-api",
    ):
        assert rule in out


def test_run_lint_sorts_findings(tmp_path):
    write_module(
        tmp_path,
        "repro/storage/fixture.py",
        """\
        import time

        def late():
            return time.monotonic()

        def early():
            return time.time()
        """,
    )
    findings = run_lint(paths=[tmp_path], checkers=[DeterminismChecker()])
    assert [f.line for f in findings] == sorted(f.line for f in findings)

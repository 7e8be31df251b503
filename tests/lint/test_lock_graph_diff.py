"""The static lock graph must cover every runtime-observed edge.

The `lock_order_recorder` fixture in tests/conftest.py folds each
test's recorded edges into a session-wide accumulator; this test diffs
that set against the graph `repro.lint.ipa` extracts statically from
the source tree.  A runtime edge the analysis did not predict means
either a lock acquisition the summariser cannot see (fix ipa) or a
genuinely new nesting the checkers never reviewed (fix the code) —
both must fail the build.

Ordering caveat: pytest runs files alphabetically, so this file sees
the edges of every test that ran before it in the same process, not
necessarily the whole session.  The complete end-of-session check is
the CI `--lock-graph --runtime-graph` gate over the exported artifact
(REPRO_LOCK_GRAPH_OUT); this test is the fast in-suite tripwire.
"""

from __future__ import annotations

from repro.lint.engine import collect_modules
from repro.lint.ipa import analyze_project
from repro.lint.runtime import (
    canonical_lock_name,
    runtime_edges_missing_statically,
    session_edges,
)

import pytest


@pytest.fixture(scope="module")
def static_edges():
    modules, parse_failures = collect_modules([])
    assert parse_failures == []
    return analyze_project(modules).lock_edges()


class TestCanonicalisation:
    def test_last_two_segments(self):
        assert (
            canonical_lock_name("repro.governor.Governor._lock")
            == "Governor._lock"
        )
        assert canonical_lock_name("Governor._lock") == "Governor._lock"
        assert canonical_lock_name("_lock") == "_lock"

    def test_non_repro_edges_ignored(self):
        # Locks tracked by user code outside the package are not the
        # static graph's problem.
        missing = runtime_edges_missing_statically(
            static_edges=set(),
            runtime_edges={
                ("myapp.Thing._mu", "repro.governor.Governor._lock"),
                ("test.rwlock.stampede", "test.rwlock.timeout"),
            },
        )
        assert missing == []

    def test_self_edges_fold_away(self):
        # An rwlock's inner mutex carries its owner's name, so the
        # read->write upgrade shows up as a self-edge; not a nesting.
        missing = runtime_edges_missing_statically(
            static_edges=set(),
            runtime_edges={
                (
                    "repro.core.MainMemoryDatabase._catalog_rw",
                    "repro.core.MainMemoryDatabase._catalog_rw",
                )
            },
        )
        assert missing == []

    def test_genuinely_novel_edge_reported(self):
        missing = runtime_edges_missing_statically(
            static_edges={("Governor._lock", "PlanReuseCache._mu")},
            runtime_edges={
                (
                    "repro.planner.PlanReuseCache._mu",
                    "repro.governor.Governor._lock",
                )
            },
        )
        assert missing == [("PlanReuseCache._mu", "Governor._lock")]


class TestStaticCoversRuntime:
    def test_known_nestings_predicted(self, static_edges):
        # The deliberate nestings in the shipped tree must be in the
        # static graph whether or not this run exercised them.
        assert ("Governor._lock", "PlanReuseCache._mu") in static_edges
        assert (
            "MainMemoryDatabase._catalog_rw",
            "Governor._lock",
        ) in static_edges

    def test_no_runtime_edge_missing_statically(self, static_edges):
        observed = session_edges()
        missing = runtime_edges_missing_statically(
            static_edges, runtime_edges=observed
        )
        assert missing == [], (
            "runtime lock edges the static analysis did not predict: "
            "%r (observed %d edge(s) so far this session)"
            % (missing, len(observed))
        )

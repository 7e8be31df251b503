"""Static lock-order checker: the acquisition graph must be acyclic.

Deadlock needs a cycle in the lock-acquisition order.  The graph checked
here is the interprocedural one, :meth:`ProjectAnalysis.lock_edges
<repro.lint.ipa.ProjectAnalysis.lock_edges>`: an edge ``A -> B`` means
some function acquires lock B while lock A may be held, either locally
or by any caller on any path of the call graph.  Nodes are
``Class.attr`` names, rwlock sides fold into their base, and
``threading.Condition(self._lock)`` aliases the wrapped lock.  It is the
same graph ``python -m repro.lint --lock-graph`` prints and the runtime
diff checks observed nestings against.

Call resolution over-approximates (an untyped ``obj.method(...)``
matches every class defining ``method``, except builtin-container
names), which is the right direction for a deadlock checker: a cycle
report names a *potential* order inversion worth either fixing or
suppressing with a comment that argues why the paths cannot interleave.

The same order is checked dynamically by
:class:`repro.lint.runtime.LockOrderRecorder` under the test suite; see
docs/LINTING.md and docs/ROBUSTNESS.md.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set

from repro.lint.checkers.common import finding
from repro.lint.engine import Checker, Finding, LintConfig, SourceModule
from repro.lint.ipa import analyze_project
from repro.lint.runtime import find_cycle

RULE = "lock-order"


class LockOrderChecker(Checker):
    rules = {
        RULE: (
            "the static lock-acquisition graph must be acyclic "
            "(a cycle is a potential deadlock)"
        )
    }

    def check_project(
        self, modules: Sequence[SourceModule], config: LintConfig
    ) -> Iterable[Finding]:
        sites = analyze_project(modules).lock_edge_sites()
        graph: Dict[str, Set[str]] = {}
        for held, acquired in sites:
            graph.setdefault(held, set()).add(acquired)
        cycle = find_cycle(graph)
        if cycle is None:
            return
        edges = [
            (cycle[i], cycle[(i + 1) % len(cycle)])
            for i in range(len(cycle))
        ]
        locations = [
            "%s -> %s at %s:%d"
            % (a, b, sites[a, b][0].display_path, sites[a, b][1].lineno)
            for a, b in edges
        ]
        module, node = sites[edges[0]]
        yield finding(
            module,
            RULE,
            node,
            "lock-acquisition cycle (potential deadlock): %s"
            % "; ".join(locations),
        )


__all__ = ["LockOrderChecker", "RULE"]

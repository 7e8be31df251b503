"""repro.lint -- the AST-based invariant linter and lock-order analysis.

Static half: ``python -m repro.lint`` walks ``src/repro`` and enforces the
disciplines the analytic model rests on (determinism, counter discipline,
error taxonomy, chaos-seam coverage, lock order over the interprocedural
lock graph, public-API consistency).  Dynamic half:
:mod:`repro.lint.runtime` records actual lock-acquisition order under the
test suite, through the engine's seam in :mod:`repro.core.locks`, and
asserts the same order stays acyclic.  The engine never imports this
package.  Rule catalog and suppression syntax: docs/LINTING.md.
"""

from repro.lint.engine import (
    Checker,
    Finding,
    LintConfig,
    run_lint,
)
from repro.lint.runtime import (
    LockOrderRecorder,
    LockOrderViolation,
)

__all__ = [
    "Checker",
    "Finding",
    "LintConfig",
    "LockOrderRecorder",
    "LockOrderViolation",
    "run_lint",
]

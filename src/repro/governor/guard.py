"""Per-query bundle of the governor's control surfaces.

A :class:`QueryGuard` is what actually travels through the executor: the
:class:`~repro.planner.plan.PlanContext` carries one, plan nodes hand its
token to the operators, and the join algorithms use the full guard for
grant-aware degradation.  Everything is optional -- a guard with only a
token costs a single attribute test per page on the happy path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.governor.cancellation import CancellationToken
from repro.governor.grant import MemoryGrant


@dataclass
class QueryGuard:
    """Cancellation + grant for one query (the chaos seam rides the token)."""

    token: CancellationToken
    grant: Optional[MemoryGrant] = None

    @property
    def qid(self) -> Optional[int]:
        return self.token.qid

    def checkpoint(self) -> None:
        """One page-boundary check; raises the typed cancel/timeout errors."""
        self.token.check()

    def effective_pages(self, requested: int) -> int:
        """The memory grant's view of a ``requested``-page budget."""
        if self.grant is None:
            return requested
        return self.grant.effective(requested)


__all__ = ["QueryGuard"]

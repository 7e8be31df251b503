"""The resource governor -- query lifecycle control for the executor.

Every query the :class:`~repro.core.database.MainMemoryDatabase` facade
runs passes through this layer (docs/ROBUSTNESS.md):

* **Admission control** (:class:`Governor`) -- concurrent-query and
  total-memory-page budgets with a bounded wait queue; over-budget
  requests raise typed :class:`~repro.errors.AdmissionRejected` /
  :class:`~repro.errors.QueryTimeout` errors instead of thrashing.
* **Memory grants** (:class:`MemoryGrant`) -- a per-query page budget the
  memory-hungry operators charge against; a grant can be *revoked*
  mid-query, and hybrid hash degrades toward pure GRACE instead of
  crashing (the degradation ladder of docs/ROBUSTNESS.md).
* **Cooperative cancellation** (:class:`CancellationToken`) -- checked in
  every batch hot loop, so ``db.cancel(qid)`` and per-query deadlines
  abort within one page of work, never leaving a partial result.

The pieces are bundled per query into a :class:`QueryGuard`, which the
planner's :class:`~repro.planner.plan.PlanContext` carries into the
operators and joins.
"""

from repro.errors import (
    AdmissionRejected,
    GovernorError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
)
from repro.governor.cancellation import CancellationToken
from repro.governor.governor import Governor, GovernorConfig, QueryHandle
from repro.governor.grant import MemoryGrant
from repro.governor.guard import QueryGuard

__all__ = [
    "AdmissionRejected",
    "CancellationToken",
    "Governor",
    "GovernorConfig",
    "GovernorError",
    "MemoryGrant",
    "QueryCancelled",
    "QueryGuard",
    "QueryHandle",
    "QueryTimeout",
    "ReproError",
]

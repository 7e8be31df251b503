"""Tests for the resource governor (repro.governor) and its seams.

Covers admission control (budgets, queue, typed rejections), cooperative
cancellation and deadlines, mid-query grant revocation with hybrid hash's
graceful degradation, and the worker-count validation satellite.
"""

from __future__ import annotations

import threading

import pytest

from repro.chaos.injector import FaultInjector, FaultPlan
from repro.core.database import MainMemoryDatabase
from repro.cost.parameters import CostParameters
from repro.errors import (
    AdmissionRejected,
    ConfigurationError,
    GovernorError,
    PlannerError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
    UnplannableQueryError,
)
from repro.governor import (
    CancellationToken,
    Governor,
    GovernorConfig,
    MemoryGrant,
    QueryGuard,
)
from repro.join.base import JoinSpec
from repro.join.hybrid_hash import HybridHashJoin
from repro.operators.selection import Comparison
from repro.planner.query import JoinClause, Query
from repro.recovery.parallel_restart import validate_workers
from repro.storage.tuples import DataType, make_schema

from tests.conftest import build_relation


def make_db(**kwargs) -> MainMemoryDatabase:
    db = MainMemoryDatabase(memory_pages=4, page_bytes=256, **kwargs)
    db.create_table(
        "emp",
        [("emp_id", DataType.INTEGER), ("dept", DataType.INTEGER),
         ("salary", DataType.INTEGER)],
    )
    db.create_table(
        "proj", [("proj_id", DataType.INTEGER), ("owner", DataType.INTEGER)]
    )
    for i in range(240):
        db.insert("emp", (i, i % 10, 1000 + i))
    for p in range(240):
        db.insert("proj", (p, (p * 13) % 240))
    db.analyze()
    return db


FILTER_QUERY = Query(
    tables=["emp"], predicates=[("emp", Comparison("salary", ">", 1100))]
)
SPILL_JOIN = Query(
    tables=["emp", "proj"],
    joins=[JoinClause("emp", "emp_id", "proj", "owner")],
)


class TestTaxonomy:
    def test_hierarchy(self):
        for exc in (AdmissionRejected, QueryCancelled, QueryTimeout):
            assert issubclass(exc, GovernorError)
            assert issubclass(exc, ReproError)
        # Builtin compatibility: old except ValueError clauses keep working.
        assert issubclass(PlannerError, ValueError)
        assert issubclass(UnplannableQueryError, PlannerError)
        assert issubclass(ConfigurationError, ValueError)

    def test_recovery_error_joined_the_taxonomy(self):
        from repro.recovery.restart import RecoveryError

        assert issubclass(RecoveryError, ReproError)
        assert issubclass(RecoveryError, RuntimeError)

    def test_planner_raises_typed_errors(self):
        db = make_db()
        disconnected = Query(tables=["emp", "proj"])  # no join clause
        with pytest.raises(UnplannableQueryError):
            db.plan(disconnected)


class TestAdmission:
    def test_happy_path_admits_and_releases(self):
        gov = Governor(GovernorConfig(max_concurrent=2, max_memory_pages=100))
        handle = gov.admit(10)
        assert gov.stats()["active"] == 1
        assert gov.stats()["pages_in_use"] == 10
        gov.release(handle)
        assert gov.stats()["active"] == 0
        assert gov.stats()["pages_in_use"] == 0
        assert gov.stats()["admitted"] == 1

    def test_memory_rejection_is_typed(self):
        gov = Governor(GovernorConfig(max_memory_pages=10))
        with pytest.raises(AdmissionRejected) as exc_info:
            gov.admit(20)
        assert exc_info.value.reason == "memory"
        assert exc_info.value.qid is not None

    def test_queue_full_rejection_is_typed(self):
        gov = Governor(GovernorConfig(max_concurrent=1, max_queue=0))
        gov.admit(2)
        with pytest.raises(AdmissionRejected) as exc_info:
            gov.admit(2)
        assert exc_info.value.reason == "queue-full"

    def test_admission_timeout(self):
        gov = Governor(
            GovernorConfig(max_concurrent=1, max_queue=4, admission_timeout=0.05)
        )
        gov.admit(2)
        with pytest.raises(QueryTimeout):
            gov.admit(2)
        assert gov.stats()["admission_timeouts"] == 1

    def test_queued_request_admits_when_capacity_frees(self):
        gov = Governor(
            GovernorConfig(max_concurrent=1, max_queue=4, admission_timeout=5.0)
        )
        first = gov.admit(2)
        admitted = []

        def waiter():
            admitted.append(gov.admit(2))

        thread = threading.Thread(target=waiter)
        thread.start()
        gov.release(first)
        thread.join(timeout=5.0)
        assert admitted and admitted[0].qid != first.qid
        assert gov.stats()["peak_concurrent"] == 1

    def test_memory_pressure_shrinks_registered_caches(self):
        from repro.planner.reuse import PlanReuseCache
        from repro.storage.relation import Relation
        from repro.storage.tuples import Field, Schema

        cache = PlanReuseCache(max_entries=16)
        rel = Relation("x", Schema([Field("a", DataType.INTEGER)]), 64)
        for i in range(8):
            cache.put("k%d" % i, rel, ["t"])
        gov = Governor(
            GovernorConfig(max_concurrent=1, max_queue=0, pressure_keep=0.5)
        )
        gov.register_shrinkable(cache)
        gov.admit(2)
        with pytest.raises(AdmissionRejected):
            gov.admit(2)  # concurrency-blocked: pressure fires first
        assert len(cache) == 4
        assert gov.stats()["pressure_evictions"] == 4

    def test_cancel_by_qid(self):
        gov = Governor()
        handle = gov.admit(4)
        assert gov.cancel(handle.qid) is True
        assert gov.cancel(9999) is False
        with pytest.raises(QueryCancelled):
            handle.token.check()
        gov.release(handle)
        assert gov.stats()["cancelled"] == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GovernorConfig(max_concurrent=0)
        with pytest.raises(ConfigurationError):
            GovernorConfig(max_queue=-1)
        with pytest.raises(ConfigurationError):
            GovernorConfig(pressure_keep=1.5)
        with pytest.raises(ConfigurationError):
            GovernorConfig(shed_threshold=-1)


class TestAdmissionAwareWaits:
    """begin_wait/end_wait: a blocked statement holds no admission slot."""

    def test_parked_slot_admits_someone_else(self):
        gov = Governor(GovernorConfig(max_concurrent=1, max_queue=0))
        blocked = gov.admit(2)
        gov.begin_wait(blocked)
        stats = gov.stats()
        assert stats["active"] == 0
        assert stats["parked"] == 1
        assert stats["pages_in_use"] == 0
        assert stats["slots_released_in_wait"] == 1
        # The freed slot is real capacity: a newcomer admits immediately.
        other = gov.admit(2)
        gov.release(other)
        gov.end_wait(blocked)
        stats = gov.stats()
        assert stats["active"] == 1
        assert stats["parked"] == 0
        assert stats["requeues"] == 1
        gov.release(blocked)
        assert gov.stats()["pages_in_use"] == 0

    def test_end_wait_waits_for_capacity(self):
        gov = Governor(GovernorConfig(max_concurrent=1, max_queue=0))
        parked = gov.admit(2)
        gov.begin_wait(parked)
        hog = gov.admit(2)
        resumed = []

        def resume():
            gov.end_wait(parked, timeout=5.0)
            resumed.append(True)

        thread = threading.Thread(target=resume)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive() and not resumed  # no slot yet
        gov.release(hog)
        thread.join(timeout=5.0)
        assert resumed
        gov.release(parked)
        assert gov.stats()["pages_in_use"] == 0

    def test_end_wait_timeout_leaves_handle_parked_for_release(self):
        gov = Governor(GovernorConfig(max_concurrent=1, max_queue=0))
        parked = gov.admit(2)
        gov.begin_wait(parked)
        hog = gov.admit(2)
        with pytest.raises(QueryTimeout):
            gov.end_wait(parked, timeout=0.05)
        assert gov.stats()["admission_timeouts"] == 1
        # The single release covers the parked handle too: no slot leaks.
        gov.release(parked)
        gov.release(hog)
        stats = gov.stats()
        assert stats["active"] == 0
        assert stats["parked"] == 0
        assert stats["pages_in_use"] == 0

    def test_release_of_parked_handle_does_not_double_credit(self):
        gov = Governor(GovernorConfig(max_concurrent=2, max_memory_pages=10))
        a = gov.admit(4)
        b = gov.admit(4)
        gov.begin_wait(a)  # returns a's 4 pages
        gov.release(a)  # parked release: must NOT subtract again
        assert gov.stats()["pages_in_use"] == 4  # b's pages intact
        gov.release(b)
        assert gov.stats()["pages_in_use"] == 0

    def test_begin_wait_guards_state(self):
        from repro.errors import StateError

        gov = Governor()
        handle = gov.admit(2)
        gov.begin_wait(handle)
        with pytest.raises(StateError):
            gov.begin_wait(handle)  # already parked
        gov.end_wait(handle)
        gov.release(handle)
        with pytest.raises(StateError):
            gov.end_wait(handle)  # not parked any more

    def test_cancel_reaches_parked_queries(self):
        gov = Governor()
        handle = gov.admit(2)
        gov.begin_wait(handle)
        assert gov.cancel(handle.qid) is True
        with pytest.raises(QueryCancelled):
            handle.token.check()
        gov.release(handle)

    def test_shed_valve_fast_rejects_when_saturated(self):
        gov = Governor(
            GovernorConfig(
                max_concurrent=1, max_queue=8, shed_threshold=2,
                admission_timeout=5.0,
            )
        )
        hog = gov.admit(2)
        waiters = []

        def wait_for_slot():
            try:
                waiters.append(gov.admit(2))
            except ReproError:
                pass

        threads = [threading.Thread(target=wait_for_slot) for _ in range(2)]
        for t in threads:
            t.start()
        deadline_helper = threading.Event()
        deadline_helper.wait(0.1)  # let both enter the queue
        assert gov.stats()["waiting"] == 2
        with pytest.raises(AdmissionRejected) as exc_info:
            gov.admit(2)
        assert exc_info.value.reason == "overload"
        assert gov.stats()["sheds"] == 1
        gov.release(hog)
        for t in threads:
            t.join(timeout=5.0)
        for handle in waiters:
            gov.release(handle)
        assert gov.stats()["pages_in_use"] == 0


class TestCancellationToken:
    def test_cancel_takes_effect_at_next_check(self):
        token = CancellationToken(qid=7)
        token.check()
        token.cancel()
        assert token.expired()
        with pytest.raises(QueryCancelled) as exc_info:
            token.check()
        assert exc_info.value.qid == 7

    def test_deadline_with_fake_clock(self):
        now = [0.0]
        token = CancellationToken(qid=1, timeout=10.0, clock=lambda: now[0])
        token.check()
        now[0] = 10.5
        with pytest.raises(QueryTimeout):
            token.check()

    def test_zero_timeout_aborts_first_page(self):
        db = make_db()
        with pytest.raises(QueryTimeout):
            db.execute(FILTER_QUERY, timeout=0.0)
        # The governor released the query's capacity on the way out.
        assert db.governor_stats()["active"] == 0

    def test_chaos_plan_cancels_at_exact_page(self):
        db = make_db()
        injector = FaultInjector(FaultPlan(cancel_at_page=5))
        db.attach_chaos(injector)
        with pytest.raises(QueryCancelled):
            db.execute(FILTER_QUERY)
        assert injector.queries_cancelled == 1
        assert injector.exec_pages >= 5
        # Later queries run normally on fresh tokens.
        rows = db.execute(FILTER_QUERY)
        assert len(list(rows)) == 139


class TestMemoryGrant:
    def test_effective_and_floor(self):
        grant = MemoryGrant(10)
        assert grant.effective(6) == 6
        assert grant.effective(50) == 10
        grant.revoke(1)  # floors at 2
        assert grant.pages == 2
        assert grant.effective(50) == 2

    def test_revoke_is_one_way(self):
        grant = MemoryGrant(10)
        assert grant.revoke(4) == 4
        assert grant.revoke(8) == 4  # raising is ignored
        assert grant.revocations == 1

    def test_charge_tracks_high_water(self):
        grant = MemoryGrant(10)
        grant.charge(3.5)
        grant.charge(2.0)
        assert grant.peak_pages == 3.5
        assert not grant.over_budget(10.0)
        assert grant.over_budget(10.5)

    def test_rejects_tiny_grants(self):
        with pytest.raises(ConfigurationError):
            MemoryGrant(1)


def hybrid_instance(n=400, page_bytes=64, memory_pages=6):
    r = build_relation("r", [i % 97 for i in range(n)], page_bytes=page_bytes)
    s_schema = make_schema(("skey", DataType.INTEGER),
                           ("sval", DataType.INTEGER))
    s = build_relation(
        "s", [i % 89 for i in range(2 * n)], schema=s_schema,
        page_bytes=page_bytes,
    )
    params = CostParameters(
        r_pages=r.page_count, s_pages=s.page_count,
        r_tuples_per_page=r.tuples_per_page,
        s_tuples_per_page=s.tuples_per_page,
    )

    def spec():
        return JoinSpec(r=r, s=s, r_field="key", s_field="skey",
                        memory_pages=memory_pages, params=params)

    return spec


class TestGrantRevocationDegradation:
    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "tuple"])
    def test_revoked_grant_demotes_resident_same_rows(self, batch):
        spec = hybrid_instance()
        baseline = HybridHashJoin(batch=batch).join(spec())
        assert baseline.cardinality > 0

        grant = MemoryGrant(6)
        token = CancellationToken(qid=1)
        # Revoke hard at the 4th page boundary, mid phase 1.
        token.on_check = (
            lambda tok: grant.revoke(2) if tok.checks == 4 else None
        )
        guard = QueryGuard(token=token, grant=grant)
        degraded = HybridHashJoin(batch=batch).set_guard(guard).join(spec())

        assert grant.revocations == 1
        assert sorted(degraded.relation) == sorted(baseline.relation)
        # Demotion is honest: the degraded run paid extra moves/IO.
        assert degraded.counters.as_dict() != baseline.counters.as_dict()

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "tuple"])
    def test_unrevoked_guard_is_counter_identical(self, batch):
        spec = hybrid_instance()
        baseline = HybridHashJoin(batch=batch).join(spec())
        guard = QueryGuard(token=CancellationToken(qid=1), grant=MemoryGrant(6))
        governed = HybridHashJoin(batch=batch).set_guard(guard).join(spec())
        assert sorted(governed.relation) == sorted(baseline.relation)
        assert governed.counters.as_dict() == baseline.counters.as_dict()

    def test_an_unrevoked_guard_costs_grace_and_selection_nothing(self):
        """E19's happy path: a guard that is never cancelled or revoked
        leaves GRACE's and a full-scan selection's rows and counters as
        they are without one."""
        from repro.cost.counters import OperationCounters
        from repro.join.grace_hash import GraceHashJoin
        from repro.operators.selection import select

        spec = hybrid_instance()
        baseline = GraceHashJoin().join(spec())
        guard = QueryGuard(token=CancellationToken(qid=1), grant=MemoryGrant(6))
        governed = GraceHashJoin().set_guard(guard).join(spec())
        assert sorted(governed.relation) == sorted(baseline.relation)
        assert governed.counters.as_dict() == baseline.counters.as_dict()

        r = spec().r
        plain, tokened = OperationCounters(), OperationCounters()
        rows = list(select(r, Comparison("key", "<", 50), plain))
        token = CancellationToken(qid=1)
        assert list(select(r, Comparison("key", "<", 50), tokened, token=token)) == rows
        assert tokened.as_dict() == plain.as_dict()
        assert token.checks > 0

    def test_revocation_mid_phase1b_still_correct(self):
        spec = hybrid_instance()
        baseline = HybridHashJoin(batch=True).join(spec())
        grant = MemoryGrant(6)
        token = CancellationToken(qid=2)
        # R is ~7 pages at 8 tuples/page: checkpoint ~30 lands in S's scan.
        token.on_check = (
            lambda tok: grant.revoke(3) if tok.checks == 30 else None
        )
        guard = QueryGuard(token=token, grant=grant)
        degraded = HybridHashJoin(batch=True).set_guard(guard).join(spec())
        assert grant.revocations == 1
        assert sorted(degraded.relation) == sorted(baseline.relation)

    def test_cancellation_aborts_join(self):
        spec = hybrid_instance()
        token = CancellationToken(qid=3)
        token.on_check = lambda tok: token.cancel() if tok.checks == 5 else None
        guard = QueryGuard(token=token)
        with pytest.raises(QueryCancelled):
            HybridHashJoin(batch=True).set_guard(guard).join(spec())


class TestValidateWorkers:
    def test_accepts_ints_and_integral_floats(self):
        assert validate_workers(1) == 1
        assert validate_workers(4) == 4
        assert validate_workers(0) == 1  # 0 means serial
        assert validate_workers(2.0) == 2

    @pytest.mark.parametrize("bad", [-1, -2.0, 1.5, True, "2", None])
    def test_rejects_invalid_counts(self, bad):
        with pytest.raises((ConfigurationError, TypeError)):
            validate_workers(bad)

    def test_facade_validates(self):
        """The facade no longer takes a recovery worker count at all (its
        durability veneer is gone; ``restart.recover`` validates its own
        ``workers``), so the stale keyword is a ``TypeError``."""
        with pytest.raises(TypeError):
            MainMemoryDatabase(recovery_workers=-1)


class TestFacadeIntegration:
    def test_every_execute_is_governed(self):
        db = make_db()
        rows = sorted(db.execute(FILTER_QUERY))
        stats = db.governor_stats()
        assert stats["admitted"] == 1
        assert stats["active"] == 0  # released on the way out
        assert sorted(db.execute(FILTER_QUERY)) == rows
        assert db.governor_stats()["admitted"] == 2

    def test_spill_join_under_default_governor(self):
        db = make_db()
        rows = list(db.execute(SPILL_JOIN))
        assert len(rows) == 240  # owner is a permutation of emp_id

    def test_governor_config_passthrough(self):
        db = make_db(governor=GovernorConfig(max_concurrent=2))
        assert db.governor.config.max_concurrent == 2
        # Facade defaults the total budget to one grant per slot.
        assert db.governor.config.max_memory_pages == 4 * 2

    def test_release_happens_on_error_too(self):
        db = make_db()
        injector = FaultInjector(FaultPlan(cancel_at_page=2))
        db.attach_chaos(injector)
        with pytest.raises(QueryCancelled):
            db.execute(FILTER_QUERY)
        assert db.governor_stats()["active"] == 0

"""Overload robustness: admission-aware lock waits, shed, and retry.

The PR-8 contract under test (docs/ROBUSTNESS.md):

* a statement blocked in the lock table holds **no** admission slot --
  it parks (``Governor.begin_wait``), waits for the grant in the bank
  store, reacquires (``end_wait``), and retries, so admission measures
  statements *running*, not statements *blocked*;
* every exit path -- commit, abort, timeout, disconnect, injected crash
  signal -- returns the slot: the governor ends every scenario with
  ``active == parked == pages_in_use == 0``;
* past the saturation knee the shed valve fast-rejects with a typed
  ``AdmissionRejected(reason="overload")`` instead of letting the queue
  collapse throughput;
* deadlock-victim aborts of idempotent (autocommitted) statements are
  retried server-side under a seeded capped-jitter policy, and retry
  exhaustion surfaces the *original* typed error;
* read-only SQL genuinely interleaves (>1 statement inside the catalog
  read lock at once) while per-statement counter deltas stay byte-exact.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.chaos.injector import CrashSignal, FaultInjector, FaultPlan
from repro.core.database import MainMemoryDatabase
from repro.errors import (
    AdmissionRejected,
    ConfigurationError,
    TransactionAborted,
    WouldBlock,
)
from repro.governor import GovernorConfig
from repro.server import BankStore, RetryPolicy, SessionManager
from repro.server.protocol import error_payload, raise_error

from tests.server.conftest import assert_seal_invariants, build_corpus_db


def make_manager(**kwargs) -> SessionManager:
    kwargs.setdefault("n_accounts", 8)
    kwargs.setdefault("group_size", 4)
    kwargs.setdefault("group_delay", 0.001)
    kwargs.setdefault("lock_wait_timeout", 5.0)
    kwargs.setdefault("statement_timeout", 5.0)
    return SessionManager(**kwargs)


def assert_no_slot_leak(manager: SessionManager) -> None:
    stats = manager.db.governor_stats()
    assert stats["active"] == 0, stats
    assert stats["parked"] == 0, stats
    assert stats["pages_in_use"] == 0, stats


class TestAdmissionAwareLockWaits:
    def test_blocked_statement_parks_its_slot(self):
        mgr = make_manager()
        try:
            writer = mgr.open_session()
            reader = mgr.open_session()
            writer.execute("BEGIN")
            writer.execute("ADD 1 5")

            seen = []
            t = threading.Thread(
                target=lambda: seen.append(reader.execute("GET 1").value)
            )
            t.start()
            deadline = time.monotonic() + 5.0
            while (
                mgr.db.governor_stats()["parked"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            stats = mgr.db.governor_stats()
            assert stats["parked"] == 1
            assert stats["active"] == 0  # the blocked statement holds nothing
            assert stats["slots_released_in_wait"] == 1

            writer.execute("COMMIT")
            t.join(timeout=5.0)
            assert seen == [105]
            assert reader.lock_parks == 1
            stats = mgr.db.governor_stats()
            assert stats["requeues"] == 1
            assert_no_slot_leak(mgr)
        finally:
            mgr.close()

    def test_parked_slot_is_real_capacity(self):
        """With max_concurrent=1, a statement blocked on a lock must not
        starve an unrelated statement -- that is the whole point."""
        db = MainMemoryDatabase(
            governor=GovernorConfig(max_concurrent=1, admission_timeout=5.0)
        )
        mgr = make_manager(db=db)
        try:
            writer = mgr.open_session()
            blocked = mgr.open_session()
            bystander = mgr.open_session()
            writer.execute("BEGIN")
            writer.execute("ADD 3 1")

            seen = []
            t = threading.Thread(
                target=lambda: seen.append(blocked.execute("GET 3").value)
            )
            t.start()
            deadline = time.monotonic() + 5.0
            while (
                mgr.db.governor_stats()["parked"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)

            # The only slot belongs to the parked statement -- and is free.
            assert bystander.execute("GET 0").value == 100

            writer.execute("COMMIT")
            t.join(timeout=5.0)
            assert seen == [101]
            assert_no_slot_leak(mgr)
        finally:
            mgr.close()

    def test_wait_false_would_block_and_grant_consumed(self):
        bank = BankStore(4, group_size=1, group_delay=0.0)
        try:
            holder = bank.begin()
            bank.add_record(holder, 2, 1)
            waiter = bank.begin()
            with pytest.raises(WouldBlock):
                bank.read_record(waiter, 2, wait=False)
            bank.commit(holder)
            bank.await_grant(waiter)  # grant arrived with the commit
            # The retried statement consumes the queued grant.
            assert bank.read_record(waiter, 2, wait=False) == 101
            bank.commit(waiter)
        finally:
            bank.close()

    def test_would_block_travels_the_wire_as_retryable(self):
        exc = WouldBlock("record 7 is locked")
        payload = error_payload(exc)
        assert payload["type"] == "WouldBlock"
        assert payload["retryable"] is True
        with pytest.raises(WouldBlock) as exc_info:
            raise_error(payload)
        assert exc_info.value.retryable is True

    def test_admission_rejection_is_not_retryable_on_the_wire(self):
        payload = error_payload(AdmissionRejected("shed", reason="overload"))
        assert payload["reason"] == "overload"
        assert "retryable" not in payload  # load signal: do not resubmit


class TestServerRetry:
    def test_deadlock_victim_autocommit_retries_transparently(self):
        mgr = make_manager()
        try:
            session = mgr.open_session()
            real = mgr.bank.add_record
            calls = {"n": 0}

            def flaky(tid, record, delta, wait=True):
                calls["n"] += 1
                if calls["n"] == 1:
                    mgr.bank.rollback(tid, "deadlock")
                    raise TransactionAborted(
                        "transaction %d chosen as deadlock victim" % tid,
                        reason="deadlock",
                    )
                return real(tid, record, delta, wait=wait)

            mgr.bank.add_record = flaky
            try:
                result = session.execute("ADD 2 7")
            finally:
                mgr.bank.add_record = real
            assert result.value == 107
            assert session.retries == 1
            assert calls["n"] == 2
            assert_no_slot_leak(mgr)
        finally:
            mgr.close()

    def test_retry_exhaustion_surfaces_the_original_reason(self):
        mgr = make_manager(retry_policy=RetryPolicy(max_attempts=3,
                                                    base_delay=0.0,
                                                    max_delay=0.0))
        try:
            session = mgr.open_session()
            real = mgr.bank.add_record
            calls = {"n": 0}

            def doomed(tid, record, delta, wait=True):
                calls["n"] += 1
                mgr.bank.rollback(tid, "deadlock")
                raise TransactionAborted(
                    "transaction %d chosen as deadlock victim" % tid,
                    reason="deadlock",
                )

            mgr.bank.add_record = doomed
            try:
                with pytest.raises(TransactionAborted) as exc_info:
                    session.execute("ADD 1 1")
            finally:
                mgr.bank.add_record = real
            assert exc_info.value.reason == "deadlock"  # original, intact
            assert calls["n"] == 3  # max_attempts total runs
            assert session.retries == 2
            assert_no_slot_leak(mgr)
        finally:
            mgr.close()

    def test_statements_inside_explicit_transactions_never_retry(self):
        """A real deadlock between two explicit transactions: the victim
        gets the typed abort straight back -- the client owns recovery
        for multi-statement transactions."""
        mgr = make_manager()
        try:
            a = mgr.open_session()
            b = mgr.open_session()
            a.execute("BEGIN")
            b.execute("BEGIN")
            a.execute("ADD 0 1")
            b.execute("ADD 1 1")

            outcome = {}

            def a_closes_in():
                try:
                    outcome["a"] = a.execute("ADD 1 1").value
                except TransactionAborted as exc:
                    outcome["a_aborted"] = exc.reason

            t = threading.Thread(target=a_closes_in)
            t.start()
            time.sleep(0.2)  # a is now parked waiting on record 1
            try:
                outcome["b"] = b.execute("ADD 0 1").value  # closes the cycle
            except TransactionAborted as exc:
                outcome["b_aborted"] = exc.reason
            t.join(timeout=5.0)

            aborted = [k for k in outcome if k.endswith("_aborted")]
            assert len(aborted) == 1, outcome
            assert outcome[aborted[0]] == "deadlock"
            assert a.retries == 0 and b.retries == 0
            # The survivor finishes; the victim's session starts clean.
            for session in (a, b):
                if session.txn is not None:
                    session.execute("ROLLBACK")
            assert_no_slot_leak(mgr)
        finally:
            mgr.close()

    def test_retry_can_be_disabled(self):
        mgr = make_manager(auto_retry=False)
        try:
            assert mgr.retry_policy is None
            session = mgr.open_session()
            real = mgr.bank.add_record

            def doomed(tid, record, delta, wait=True):
                mgr.bank.rollback(tid, "deadlock")
                raise TransactionAborted("victim", reason="deadlock")

            mgr.bank.add_record = doomed
            try:
                with pytest.raises(TransactionAborted):
                    session.execute("ADD 1 1")
            finally:
                mgr.bank.add_record = real
            assert session.retries == 0
        finally:
            mgr.close()


class TestRetryPolicy:
    def test_backoff_is_capped_jittered_and_seeded(self):
        import random

        policy = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.04)
        draws = [policy.backoff(k, random.Random(7)) for k in range(5)]
        for k, delay in enumerate(draws):
            assert 0.0 <= delay <= min(0.04, 0.01 * (2 ** k))
        redraws = [policy.backoff(k, random.Random(7)) for k in range(5)]
        assert redraws == draws  # seeded: schedules reproduce

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.retries_left(0)
        assert policy.retries_left(1)
        assert not policy.retries_left(2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=0.5, max_delay=0.1)


class TestOverloadShed:
    def test_saturated_admission_sheds_with_typed_reason(self):
        db = MainMemoryDatabase(
            governor=GovernorConfig(
                max_concurrent=1,
                max_queue=16,
                shed_threshold=1,
                admission_timeout=5.0,
            )
        )
        mgr = make_manager(db=db)
        try:
            # A long-lived admission (a running query) pins the only slot.
            hog = db.governor.admit(1)
            waiter_done = []
            session_w = mgr.open_session()
            session_s = mgr.open_session()

            t = threading.Thread(
                target=lambda: waiter_done.append(
                    session_w.execute("GET 0").value
                )
            )
            t.start()
            deadline = time.monotonic() + 5.0
            while (
                db.governor_stats()["waiting"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert db.governor_stats()["waiting"] == 1

            # The valve is at threshold: the next arrival is shed, fast.
            started = time.monotonic()
            with pytest.raises(AdmissionRejected) as exc_info:
                session_s.execute("GET 1")
            assert exc_info.value.reason == "overload"
            assert time.monotonic() - started < 1.0  # no queue-timeout wait
            assert db.governor_stats()["sheds"] == 1

            db.governor.release(hog)
            t.join(timeout=5.0)
            assert waiter_done == [100]
            assert_no_slot_leak(mgr)
        finally:
            mgr.close()


class _BarrierInjector:
    """Chaos seam double: the first executor page of each query waits at
    a barrier, guaranteeing both queries are mid-execution at once."""

    def __init__(self, parties: int) -> None:
        self.barrier = threading.Barrier(parties)
        self._local = threading.local()

    def point(self, label: str) -> None:  # facade seam, unused here
        return None

    def executor_page(self, token=None, grant=None) -> None:
        if getattr(self._local, "synced", False):
            return
        self._local.synced = True
        self.barrier.wait(timeout=10.0)


class TestConcurrentReadOnlySql:
    QUERIES = [
        "SELECT name FROM emp WHERE salary > 50000",
        "SELECT dname FROM dept WHERE dept_id > 1",
    ]

    def reference_counters(self, stmt: str):
        db = build_corpus_db()
        before = db.counters.snapshot()
        db.sql(stmt)
        return (db.counters.snapshot() - before).as_dict()

    def test_two_selects_in_flight_with_exact_counters(self):
        db = build_corpus_db()
        db.governor.attach_chaos(_BarrierInjector(2))
        mgr = SessionManager(db=db, n_accounts=4)
        try:
            sessions = [mgr.open_session() for _ in self.QUERIES]
            results = [None, None]

            def run(i: int) -> None:
                results[i] = sessions[i].execute(self.QUERIES[i])

            threads = [
                threading.Thread(target=run, args=(i,))
                for i in range(len(self.QUERIES))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)

            occupancy = db.concurrency_stats()
            assert occupancy["peak_readers"] >= 2, occupancy
            for i, stmt in enumerate(self.QUERIES):
                assert results[i] is not None
                assert results[i].counters == self.reference_counters(stmt)
            assert results[0].rows is not None and results[1].rows is not None
        finally:
            mgr.close()

    def test_ddl_takes_the_write_side_alone(self):
        from repro.storage.tuples import DataType

        db = build_corpus_db()
        mgr = SessionManager(db=db, n_accounts=4)
        try:
            session = mgr.open_session()
            session.execute("SELECT name FROM emp WHERE salary > 50000")
            db.create_table("scratch", [("x", DataType.INTEGER)])
            occupancy = db.concurrency_stats()
            assert occupancy["readers"] == 0
            assert occupancy["writer_held"] is False
        finally:
            mgr.close()


class TestChaosWhileParked:
    def _contended_workload(self, injector=None, seed=0):
        """A deterministic two-session conflict that forces a park; the
        injector (if any) sees the ``bank park``/``bank unpark`` points."""
        db = MainMemoryDatabase()
        if injector is not None:
            db.fault_injector = injector
        mgr = make_manager(db=db, lock_wait_timeout=2.0,
                           statement_timeout=2.0)
        outcome = {"crash_signals": 0, "errors": []}
        try:
            writer = mgr.open_session()
            reader = mgr.open_session()
            writer.execute("BEGIN")
            writer.execute("ADD 1 5")

            def blocked_reader():
                try:
                    outcome["value"] = reader.execute("GET 1").value
                except CrashSignal:
                    outcome["crash_signals"] += 1
                except Exception as exc:  # noqa: BLE001 - recorded, asserted
                    outcome["errors"].append(exc)

            t = threading.Thread(target=blocked_reader)
            t.start()
            deadline = time.monotonic() + 5.0
            while t.is_alive() and time.monotonic() < deadline:
                stats = mgr.db.governor_stats()
                if stats["parked"] or not t.is_alive():
                    break
                time.sleep(0.01)
            writer.execute("COMMIT")
            t.join(timeout=5.0)
            assert not t.is_alive()
            return mgr, outcome
        except BaseException:
            mgr.close()
            raise

    def test_crash_signal_at_every_park_point_leaks_nothing(self):
        """Sweep the injected-crash point across the park/unpark seams:
        whatever the statement was doing when the signal fired, the
        governor ends clean and the store recovers to the oracle."""
        for point in range(3):
            injector = FaultInjector(FaultPlan(crash_at_point=point))
            mgr, outcome = self._contended_workload(injector=injector)
            try:
                assert not outcome["errors"], (point, outcome)
                if injector.crashed:
                    assert outcome["crash_signals"] == 1
                else:
                    assert outcome.get("value") == 105
                # The hard guarantee: zero leaked admission slots.
                assert_no_slot_leak(mgr)
                assert_seal_invariants(mgr.bank)
                # And the store itself recovers oracle-clean: the
                # writer's committed +5 survives, nothing else changed.
                mgr.crash()
                mgr.recover()
                assert_seal_invariants(mgr.bank)
                assert mgr.bank.audit_total() == 8 * 100 + 5
            finally:
                mgr.close()

    def test_disconnect_while_parked_releases_slot(self):
        mgr = make_manager()
        try:
            writer = mgr.open_session()
            victim = mgr.open_session()
            writer.execute("BEGIN")
            writer.execute("ADD 4 1")

            outcome = {}

            def parked_reader():
                try:
                    outcome["value"] = victim.execute("GET 4").value
                except TransactionAborted as exc:
                    outcome["aborted"] = exc.reason

            t = threading.Thread(target=parked_reader)
            t.start()
            deadline = time.monotonic() + 5.0
            while (
                mgr.db.governor_stats()["parked"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert mgr.db.governor_stats()["parked"] == 1

            # The client vanishes while its statement is parked.
            assert mgr.close_session(victim.session_id) is True
            t.join(timeout=5.0)
            assert outcome.get("aborted") == "disconnect"
            assert_no_slot_leak(mgr)

            writer.execute("COMMIT")
            lingering = mgr.bank.locks.holders(4)
            assert set(lingering) == set()
        finally:
            mgr.close()

    def test_seeded_disconnect_sweep_recovers_to_oracle(self):
        """Randomised (seeded) mix of transfers, disconnects, and a final
        crash/recover: balances must match the shadow oracle and the
        governor must end with zero slots outstanding, every seed."""
        import random

        for seed in range(6):
            rng = random.Random(seed)
            mgr = make_manager(n_accounts=6, lock_wait_timeout=2.0)
            try:
                for step in range(10):
                    src = rng.randrange(6)
                    dst = rng.randrange(6)
                    amount = rng.randrange(1, 30)
                    session = mgr.open_session()
                    try:
                        session.execute("BEGIN")
                        session.execute("ADD %d -%d" % (src, amount))
                        if rng.random() < 0.4:
                            # Mid-transaction disconnect: must roll back.
                            mgr.close_session(session.session_id)
                            continue
                        session.execute("ADD %d %d" % (dst, amount))
                        session.execute("COMMIT")
                    except TransactionAborted:
                        pass
                    finally:
                        mgr.close_session(session.session_id)
                    assert_seal_invariants(mgr.bank)
                assert_no_slot_leak(mgr)
                assert not mgr.bank._txns
                mgr.crash()
                outcome = mgr.recover()
                # Transfers are balanced and half-done ones rolled back,
                # so the recovered image must conserve the total.
                assert mgr.bank.audit_total() == 600, "seed %d" % seed
                assert outcome["committed"] >= 0
            finally:
                mgr.close()

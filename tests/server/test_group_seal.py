"""The commit group's sealing policy as a state machine.

A commit waits for its *peers*: the open group is sealed by whoever makes
it sealable -- the committer that fills it (``"fill"``), the transaction
whose leaving ACTIVE means nobody is still running who could join
(``"quiet"``), a ``FLUSH`` (``"barrier"``) -- and the flusher thread is
only the ``group_delay`` upper bound (``"timer"``).  Every store here
except the timer's own runs with ``group_delay=30`` so that nothing but
the policy can release a parked committer inside the test's patience.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.chaos import ShadowDatabase
from repro.errors import (
    QueryTimeout,
    SessionError,
    TransactionAborted,
    WouldBlock,
)
from repro.server import BankStore, DatabaseServer, ServerClient

from tests.server.conftest import assert_seal_invariants, wait_until

NEVER = 30.0  # a group_delay no test waits out
PROMPT = 1.0  # "at once", on a shared box


def make_bank(**kwargs) -> BankStore:
    kwargs.setdefault("group_size", 64)
    kwargs.setdefault("group_delay", NEVER)
    kwargs.setdefault("lock_wait_timeout", 5.0)
    return BankStore(8, **kwargs)


class Committer:
    """A writer whose COMMIT runs on its own thread, so the test can watch
    it park and see what released it."""

    def __init__(self, bank: BankStore, record: int = 0) -> None:
        self.bank = bank
        self.tid = bank.begin()
        bank.add_record(self.tid, record, 1)
        self.info = None
        self.error = None
        self.seconds = None
        self._thread = threading.Thread(target=self._run)

    def _run(self) -> None:
        started = time.monotonic()
        try:
            self.info = self.bank.commit(self.tid)
        except Exception as exc:  # noqa: BLE001 - asserted by the test
            self.error = exc
        self.seconds = time.monotonic() - started

    def park(self) -> "Committer":
        self._thread.start()
        assert wait_until(lambda: self.tid in self.bank._group)
        time.sleep(0.05)
        assert self.parked, "the commit did not wait for its peer"
        return self

    @property
    def parked(self) -> bool:
        return self._thread.is_alive()

    def released(self) -> dict:
        self._thread.join(timeout=5.0)
        assert not self.parked, "nothing released the committer"
        assert self.error is None, self.error
        return self.info


def reasons(bank: BankStore) -> dict:
    return {k: v for k, v in bank.bank_stats()["flush_reasons"].items() if v}


class TestQuiet:
    def test_lone_commit_returns_at_once(self):
        bank = make_bank()
        try:
            tid = bank.begin()
            bank.add_record(tid, 0, 1)
            started = time.monotonic()
            info = bank.commit(tid)
            assert time.monotonic() - started < PROMPT
            assert info["group_size"] == 1
            assert reasons(bank) == {"quiet": 1}
            assert_seal_invariants(bank)
        finally:
            bank.close()

    def test_peer_commit_makes_one_group_of_two(self):
        bank = make_bank()
        try:
            peer = bank.begin()
            bank.add_record(peer, 1, 1)
            first = Committer(bank).park()
            assert_seal_invariants(bank)
            info = bank.commit(peer)  # the last one running seals for both
            assert info["group_size"] == 2
            assert first.released()["group_size"] == 2
            assert reasons(bank) == {"quiet": 1}
            assert_seal_invariants(bank)
        finally:
            bank.close()

    def test_peer_rollback_seals(self):
        bank = make_bank()
        try:
            peer = bank.begin()
            bank.add_record(peer, 1, 1)
            first = Committer(bank).park()
            bank.rollback(peer)
            assert first.released()["group_size"] == 1
            assert reasons(bank) == {"quiet": 1}
            assert bank.balances()[:2] == [101, 100]
        finally:
            bank.close()

    def test_peer_read_only_commit_seals(self):
        bank = make_bank()
        try:
            peer = bank.begin()
            assert bank.read_record(peer, 1) == 100
            first = Committer(bank).park()
            assert bank.commit(peer)["group_size"] == 0  # joined nothing
            assert first.released()["group_size"] == 1
            assert reasons(bank) == {"quiet": 1}
        finally:
            bank.close()

    def test_deadlock_victim_leaves_the_count(self):
        bank = make_bank()
        try:
            survivor, victim = bank.begin(), bank.begin()
            bank.add_record(survivor, 1, 1)
            bank.add_record(victim, 2, 1)
            first = Committer(bank).park()
            with pytest.raises(WouldBlock):
                bank.add_record(survivor, 2, 1, wait=False)
            with pytest.raises(TransactionAborted) as info:
                bank.add_record(victim, 1, 1, wait=False)  # closes the cycle
            assert info.value.reason == "deadlock"
            assert_seal_invariants(bank)
            assert first.parked  # the survivor is still running
            bank.add_record(survivor, 2, 1, wait=False)  # consumes the grant
            assert bank.commit(survivor)["group_size"] == 2
            assert first.released()["group_size"] == 2
            assert reasons(bank) == {"quiet": 1}
        finally:
            bank.close()

    def test_lock_timeout_leaves_the_count(self):
        bank = make_bank(lock_wait_timeout=0.2)
        try:
            holder, waiter = bank.begin(), bank.begin()
            bank.add_record(holder, 1, 1)
            first = Committer(bank).park()
            with pytest.raises(QueryTimeout):
                bank.add_record(waiter, 1, 1)  # blocks, then times out
            assert_seal_invariants(bank)
            assert first.parked  # the holder is still running
            bank.rollback(holder)
            assert first.released()["group_size"] == 1
            assert reasons(bank) == {"quiet": 1}
        finally:
            bank.close()

    @pytest.mark.parametrize("how", ["close", "kill"])  # FIN and RST
    def test_peer_disconnect_seals(self, how):
        server = DatabaseServer(
            n_accounts=8, group_size=64, group_delay=NEVER
        )
        server.start_in_thread()
        try:
            bank = server.manager.bank
            peer = ServerClient(*server.address)
            peer.execute("BEGIN")
            peer.execute("ADD 1 1")
            with ServerClient(*server.address) as writer:
                writer.execute("BEGIN")
                writer.execute("ADD 0 1")
                outcome = []
                t = threading.Thread(
                    target=lambda: outcome.append(writer.execute("COMMIT"))
                )
                t.start()
                assert wait_until(lambda: len(bank._group) == 1)
                getattr(peer, how)()
                t.join(timeout=5.0)
                assert not t.is_alive(), "the disconnect released nobody"
                assert outcome[0]["meta"]["group_size"] == 1
            assert reasons(bank) == {"quiet": 1}
            assert bank.balances()[:2] == [101, 100]
        finally:
            server.stop()


class TestTheOtherThreeReasons:
    def test_idle_peer_costs_the_timer_and_no_more(self):
        bank = make_bank(group_delay=0.15)
        try:
            idler = bank.begin()  # in a transaction, doing nothing
            first = Committer(bank).park()
            info = first.released()
            assert info["group_size"] == 1
            assert 0.1 < first.seconds < 0.15 + PROMPT
            assert reasons(bank) == {"timer": 1}
            bank.rollback(idler)
        finally:
            bank.close()

    def test_full_group_seals_while_others_run(self):
        bank = make_bank(group_size=2)
        try:
            running = bank.begin()
            first = Committer(bank, record=0).park()
            second = bank.begin()
            bank.add_record(second, 1, 1)
            assert bank.commit(second)["group_size"] == 2
            assert first.released()["group_size"] == 2
            assert reasons(bank) == {"fill": 1}
            assert_seal_invariants(bank)
            bank.rollback(running)
        finally:
            bank.close()

    def test_flush_is_still_a_barrier(self):
        bank = make_bank()
        try:
            running = bank.begin()
            first = Committer(bank).park()
            assert bank.flush_now() == 1
            assert first.released()["group_size"] == 1
            assert first.seconds < PROMPT
            assert reasons(bank) == {"barrier": 1}
            assert bank.flush_now() == 0
            bank.rollback(running)
        finally:
            bank.close()


class TestCrashWithAParkedCommitter:
    def test_typed_abort_and_recovery_equals_the_oracle(self):
        bank = make_bank()
        try:
            durable = bank.begin()
            bank.add_record(durable, 2, -30)
            bank.add_record(durable, 3, 30)
            bank.commit(durable)  # alone: sealed "quiet", in the log

            running = bank.begin()
            bank.add_record(running, 4, 9)
            doomed = Committer(bank, record=0).park()
            crashed_at = time.monotonic()
            report = bank.crash()
            doomed._thread.join(timeout=5.0)
            assert not doomed.parked
            assert time.monotonic() - crashed_at < PROMPT
            assert isinstance(doomed.error, TransactionAborted)
            assert doomed.error.reason == "crash"
            assert report["lost_precommitted"] == 1
            assert report["killed_txns"] == 2
            assert_seal_invariants(bank)

            outcome = bank.recover()
            assert outcome["commit_order"] == [durable]
            shadow = ShadowDatabase(8, initial_value=100)
            shadow.write(2, 70)
            shadow.write(3, 130)
            assert shadow.as_list() == bank.balances()
            with pytest.raises(SessionError):
                bank.add_record(running, 4, 1)  # died in the crash

            # The flusher came through the crash: it still bounds a wait.
            bank.group_delay = 0.1
            idler = bank.begin()
            assert Committer(bank).park().released()["group_size"] == 1
            assert reasons(bank) == {"quiet": 1, "timer": 1}
            bank.rollback(idler)
        finally:
            bank.close()


class TestNoDescriptorOutlivesItsTransaction:
    def test_store_is_empty_at_quiescence(self):
        bank = make_bank(group_size=4, group_delay=0.002)
        try:
            finished = []
            for i in range(40):
                tid = bank.begin()
                bank.add_record(tid, i % 8, 1)
                finished.append(tid)
                if i % 4 == 3:
                    bank.rollback(tid)
                else:
                    bank.commit(tid)
            reader = bank.begin()
            bank.read_record(reader, 0)
            bank.commit(reader)
            assert_seal_invariants(bank)
            assert len(bank._txns) == 0
            stats = bank.bank_stats()
            assert (stats["commits"], stats["aborts"]) == (31, 10)
            # A stale tid is an unknown tid: the same typed error.
            for stale in (finished[0], finished[3], reader, 10_000):
                for call in (
                    lambda t: bank.add_record(t, 0, 1),
                    bank.commit,
                    bank.rollback,
                    bank.await_grant,
                ):
                    with pytest.raises(SessionError):
                        call(stale)
            assert bank.audit_total() == 800 + 30
        finally:
            bank.close()

    def test_dependencies_bind_only_inside_the_open_group(self):
        bank = make_bank()
        try:
            running = bank.begin()
            first = Committer(bank, record=0).park()  # pre-committed on 0
            second = Committer(bank, record=0).park()  # inherits the edge
            bank.rollback(running)  # last one running: seals both
            assert first.released()["dependencies"] == []
            assert second.released()["dependencies"] == [first.tid]
            assert bank.commit_order() == [first.tid, second.tid]
            # Sealed, the dependency no longer orders anything.
            later = bank.begin()
            bank.add_record(later, 0, 1)
            assert bank.commit(later)["dependencies"] == []
        finally:
            bank.close()


class TestAnIdleStoreSleeps:
    def test_nobody_polls(self):
        """Every wait is either untimed or for the whole remaining group
        delay: the flusher does not tick and a parked commit does not
        poll (every transition they wait for notifies)."""
        bank = make_bank()
        try:
            time.sleep(0.05)  # let the flusher reach its first wait
            waits = []
            real_wait = bank._cond.wait

            def recording_wait(timeout=None):
                waits.append(timeout)
                return real_wait(timeout)

            bank._cond.wait = recording_wait
            time.sleep(0.3)
            assert waits == [], "the flusher woke with no group open"
            running = bank.begin()
            first = Committer(bank).park()
            time.sleep(0.3)
            assert len(waits) <= 3, waits
            assert all(t is None or t > NEVER / 2 for t in waits), waits
            bank.rollback(running)
            first.released()
        finally:
            bank.close()

    def test_close_wakes_the_flusher_and_flushes_the_parked(self):
        bank = make_bank()
        running = bank.begin()
        first = Committer(bank).park()
        started = time.monotonic()
        bank.close()
        assert time.monotonic() - started < PROMPT
        assert not bank._flusher.is_alive()
        assert first.released()["group_size"] == 1
        assert reasons(bank) == {"barrier": 1}
        with pytest.raises(SessionError):
            bank.commit(running)  # the store is shut down

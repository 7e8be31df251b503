"""Session-fault chaos: disconnects mid-transaction, crashes mid-commit.

The guarantees under test (docs/SERVER.md):

* a client that vanishes mid-transaction leaves nothing behind -- its
  locks are released, its writes undone, and waiters it was blocking
  proceed;
* a server crash mid-commit loses exactly the commits that never reached
  the durable log -- recovery replays the log and the rebuilt image
  matches the independent :class:`~repro.chaos.ShadowDatabase` oracle;
* a commit in flight when the crash hits fails with a **typed** error
  (``TransactionAborted, reason="crash"``), never a hang or a false OK.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.chaos import ShadowDatabase
from repro.errors import SessionError, TransactionAborted
from repro.server import BankStore, DatabaseServer, ServerClient

from tests.server.conftest import build_corpus_db, wait_until


class TestDisconnectMidTransaction:
    def test_abrupt_disconnect_rolls_back_and_releases_locks(self, server):
        bank = server.manager.bank
        victim = ServerClient(*server.address)
        victim.execute("BEGIN")
        victim.execute("SET 0 0")
        victim.execute("SET 1 0")
        assert bank.locks.holders(0) != {}
        victim.kill()  # RST, no goodbye
        assert wait_until(lambda: bank.locks.holders(0) == {})
        assert bank.locks.holders(1) == {}
        with ServerClient(*server.address) as probe:
            assert probe.value("GET 0") == 100  # write undone
            assert probe.value("GET 1") == 100
            assert probe.value("AUDIT") == 1600

    def test_disconnect_unblocks_waiters(self, server):
        victim = ServerClient(*server.address)
        victim.execute("BEGIN")
        victim.execute("ADD 5 -1")
        waiter = ServerClient(*server.address)
        seen = []
        t = threading.Thread(target=lambda: seen.append(waiter.value("GET 5")))
        try:
            t.start()
            time.sleep(0.1)
            assert not seen
            victim.kill()
            t.join(timeout=5)
            assert seen == [100], "waiter must see the rolled-back value"
        finally:
            waiter.close()

    def test_orderly_close_also_rolls_back(self, server):
        c = ServerClient(*server.address)
        c.execute("BEGIN")
        c.execute("SET 2 0")
        c.close()  # FIN
        assert wait_until(
            lambda: server.manager.bank.locks.holders(2) == {}
        )
        with ServerClient(*server.address) as probe:
            assert probe.value("GET 2") == 100


class TestReadOnlyCommit:
    def test_read_only_commit_does_not_wait_for_a_flush(self):
        """A transaction that wrote nothing (and read only durable data)
        has nothing to make durable: its commit must return immediately
        even when the group-commit timer is far away -- the post-crash
        probe in the test below would otherwise stall a full
        ``group_delay`` on an autocommitted GET."""
        bank = BankStore(4, group_size=64, group_delay=30.0)
        try:
            tid = bank.begin()
            assert bank.read_record(tid, 0) == 100
            started = time.monotonic()
            info = bank.commit(tid)
            assert time.monotonic() - started < 1.0
            assert info["group_size"] == 0
            assert bank.locks.holders(0) == {}
            # A writer still rides the group: nothing flushed so far.
            assert bank.bank_stats()["groups_flushed"] == 0
        finally:
            bank.close()


class TestCrashMidCommit:
    def test_in_flight_commit_fails_typed_and_recovers_to_oracle(self):
        # A huge group size, a long delay and a bystander that stays in
        # its transaction pin the commit in the open group (a commit
        # waits for its peers, and this peer never finishes), so the
        # crash reliably lands mid-commit.
        server = DatabaseServer(
            db=build_corpus_db(),
            n_accounts=8,
            initial_balance=100,
            group_size=64,
            group_delay=30.0,
            lock_wait_timeout=5.0,
        )
        server.start_in_thread()
        try:
            bank = server.manager.bank
            bystander = ServerClient(*server.address)
            bystander.execute("BEGIN")
            bystander.execute("ADD 7 1")

            # One transfer made durable before the crash.
            setup = ServerClient(*server.address)
            setup.execute("BEGIN")
            setup.execute("ADD 0 -30")
            setup.execute("ADD 1 30")
            commit_done = threading.Event()
            setup_outcome = {}

            def durable_commit():
                try:
                    setup_outcome["ok"] = setup.execute("COMMIT")
                except TransactionAborted as exc:
                    setup_outcome["aborted"] = exc.reason
                finally:
                    commit_done.set()

            t1 = threading.Thread(target=durable_commit)
            t1.start()
            assert wait_until(lambda: len(bank._group) == 1)
            bank.flush_now()  # barrier: this commit reaches the log
            t1.join(timeout=5)
            assert "ok" in setup_outcome

            # A second transfer crashes while its commit is in flight.
            doomed = ServerClient(*server.address)
            doomed.execute("BEGIN")
            doomed.execute("ADD 2 -50")
            doomed.execute("ADD 3 50")
            doomed_outcome = {}

            def lost_commit():
                try:
                    doomed_outcome["ok"] = doomed.execute("COMMIT")
                except TransactionAborted as exc:
                    doomed_outcome["reason"] = exc.reason
                except Exception as exc:  # severed connection also valid
                    doomed_outcome["error"] = exc

            t2 = threading.Thread(target=lost_commit)
            t2.start()
            assert wait_until(lambda: len(bank._group) == 1)
            report = server.crash()
            t2.join(timeout=5)
            assert report["lost_precommitted"] == 1
            assert "ok" not in doomed_outcome
            if "reason" in doomed_outcome:
                assert doomed_outcome["reason"] == "crash"

            # Recover and check against the independent oracle: only the
            # durable transfer survives.
            outcome = server.recover()
            assert outcome["committed"] >= 1
            shadow = ShadowDatabase(8, initial_value=100)
            shadow.write(0, 70)
            shadow.write(1, 130)
            assert shadow.as_list() == bank.balances()
            with ServerClient(*server.address) as probe:
                assert probe.value("GET 2") == 100  # lost commit undone
                assert probe.value("AUDIT") == 800
        finally:
            server.stop()

    def test_statements_after_crash_fail_until_recovery(self):
        bank = BankStore(4, group_size=1, group_delay=0.0)
        try:
            tid = bank.begin()
            bank.add_record(tid, 0, -10)
            bank.crash()
            with pytest.raises(SessionError):
                bank.begin()
            with pytest.raises(SessionError):
                bank.add_record(tid, 1, 10)
            bank.recover()
            with pytest.raises(SessionError):
                bank.add_record(tid, 1, 10)  # the old txn died in the crash
            t2 = bank.begin()
            assert bank.read_record(t2, 0) == 100
            bank.commit(t2)
        finally:
            bank.close()

    def test_randomized_crash_points_recover_to_oracle(self):
        """Seeded workload, crash after a random number of commits, then
        recover: durable commits replayed on the shadow must equal the
        rebuilt balances -- for several crash points."""
        import random

        for seed in range(8):
            rng = random.Random(seed)
            bank = BankStore(
                6, initial_balance=100, group_size=2, group_delay=0.001,
                lock_wait_timeout=2.0,
            )
            try:
                scripts = {}
                crash_after = rng.randrange(1, 10)
                for _ in range(12):
                    src = rng.randrange(6)
                    dst = rng.randrange(6)
                    amount = rng.randrange(1, 40)
                    tid = bank.begin()
                    bank.add_record(tid, src, -amount)
                    bank.add_record(tid, dst, amount)
                    bank.commit(tid)
                    scripts[tid] = [
                        ("write", src, lambda old, a=amount: old - a),
                        ("write", dst, lambda old, a=amount: old + a),
                    ]
                    if len(bank.commit_order()) >= crash_after:
                        break
                bank.crash()
                outcome = bank.recover()
                shadow = ShadowDatabase(6, initial_value=100)
                shadow.replay(scripts, outcome["commit_order"])
                assert shadow.as_list() == bank.balances(), "seed %d" % seed
                assert bank.audit_total() == 600
            finally:
                bank.close()

"""Session semantics: transactions, admission, reuse views, lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro import MainMemoryDatabase
from repro.errors import (
    AdmissionRejected,
    ConfigurationError,
    SessionError,
    StateError,
    TransactionAborted,
)
from repro.governor import GovernorConfig
from repro.server import ServerClient, SessionManager

from tests.server.conftest import build_corpus_db


def make_manager(**kwargs):
    defaults = dict(
        n_accounts=8,
        initial_balance=100,
        group_size=2,
        group_delay=0.002,
        lock_wait_timeout=2.0,
    )
    defaults.update(kwargs)
    return SessionManager(**defaults)


class TestTransactions:
    def test_begin_commit_visible(self):
        mgr = make_manager()
        try:
            s = mgr.open_session()
            s.execute("BEGIN")
            assert s.execute("ADD 0 -10").value == 90
            assert s.execute("ADD 1 10").value == 110
            info = s.execute("COMMIT")
            assert info.meta["group_size"] >= 1
            assert s.execute("GET 0").value == 90
            assert s.execute("AUDIT").value == 800
        finally:
            mgr.close()

    def test_rollback_restores_values(self):
        mgr = make_manager()
        try:
            s = mgr.open_session()
            s.execute("BEGIN")
            s.execute("SET 3 1")
            s.execute("ROLLBACK")
            assert s.execute("GET 3").value == 100
        finally:
            mgr.close()

    def test_autocommit_outside_transaction(self):
        mgr = make_manager()
        try:
            s = mgr.open_session()
            result = s.execute("ADD 2 5")
            assert result.meta["autocommit"] is True
            assert s.txn is None
            assert mgr.bank.bank_stats()["commits"] == 1
        finally:
            mgr.close()

    def test_failed_autocommit_statement_leaves_no_transaction_open(self):
        """An implicit transaction is the statement's to end, however it
        ends: left open it would hold the session in a transaction the
        client never began -- and be a peer every other commit on the
        store waits ``group_delay`` for."""
        mgr = make_manager()
        try:
            s = mgr.open_session()
            with pytest.raises(ConfigurationError):
                s.execute("GET 99")  # out of range
            assert s.txn is None
            assert mgr.bank._active == 0 and not mgr.bank._txns
            # Inside an explicit transaction the same error is only the
            # statement's: the transaction stays the client's to finish.
            s.execute("BEGIN")
            with pytest.raises(ConfigurationError):
                s.execute("ADD 99 1")
            assert s.txn is not None
            s.execute("ROLLBACK")
            assert mgr.bank.bank_stats()["aborts"] == 2
        finally:
            mgr.close()

    def test_double_begin_rejected(self):
        mgr = make_manager()
        try:
            s = mgr.open_session()
            s.execute("BEGIN")
            with pytest.raises(StateError):
                s.execute("BEGIN")
        finally:
            mgr.close()

    def test_commit_without_transaction_rejected(self):
        mgr = make_manager()
        try:
            with pytest.raises(StateError):
                mgr.open_session().execute("COMMIT")
        finally:
            mgr.close()

    def test_writer_blocks_reader_until_commit(self, server):
        c1 = ServerClient(*server.address)
        c2 = ServerClient(*server.address)
        try:
            c1.execute("BEGIN")
            c1.execute("ADD 0 -10")
            seen = []
            reader = threading.Thread(
                target=lambda: seen.append(c2.value("GET 0"))
            )
            reader.start()
            time.sleep(0.1)
            assert not seen, "reader must block on the writer's X lock"
            c1.execute("COMMIT")
            reader.join(timeout=5)
            assert seen == [90]
        finally:
            c1.close()
            c2.close()

    def test_deadlock_victim_aborts_survivor_commits(self, server):
        c1 = ServerClient(*server.address)
        c2 = ServerClient(*server.address)
        try:
            c1.execute("BEGIN")
            c2.execute("BEGIN")
            c1.execute("ADD 0 -1")
            c2.execute("ADD 1 -1")
            outcome = {}

            def blocked_add():
                try:
                    outcome["c1"] = c1.value("ADD 1 1")
                except TransactionAborted as exc:
                    outcome["c1_aborted"] = exc.reason

            t = threading.Thread(target=blocked_add)
            t.start()
            time.sleep(0.1)
            # c2 closes the wait-for cycle and becomes the victim.
            with pytest.raises(TransactionAborted) as info:
                c2.execute("ADD 0 1")
            assert info.value.reason == "deadlock"
            assert getattr(info.value, "txn_aborted", False) is True
            t.join(timeout=5)
            # c2's ADD 1 -1 was rolled back, so c1 saw 100 + 1 = 101.
            assert outcome.get("c1") == 101
            c1.execute("COMMIT")
            assert c1.value("GET 0") == 99  # victim's +1 never applied
            assert c1.value("GET 1") == 101
        finally:
            c1.close()
            c2.close()


class TestAdmission:
    def test_bank_statement_admission_rejected_when_saturated(self):
        db = MainMemoryDatabase(
            governor=GovernorConfig(max_concurrent=1, max_queue=0)
        )
        mgr = SessionManager(
            db=db, n_accounts=4, statement_timeout=0.5, group_size=1
        )
        try:
            held = db.governor.admit(1)  # occupy the only slot
            try:
                with pytest.raises(AdmissionRejected) as info:
                    mgr.open_session().execute("GET 0")
                assert info.value.reason in ("queue-full", "concurrency")
            finally:
                db.governor.release(held)
            # Slot free again: the statement sails through.
            assert mgr.open_session().execute("GET 0").value == 100
        finally:
            mgr.close()

    def test_admission_counts_in_governor_stats(self):
        mgr = make_manager()
        try:
            s = mgr.open_session()
            for _ in range(3):
                s.execute("GET 0")
            admitted = mgr.db.governor_stats()["admitted"]
            assert admitted >= 3
        finally:
            mgr.close()


class TestReuseViews:
    def test_per_session_views_of_shared_cache(self):
        mgr = SessionManager(db=build_corpus_db(), n_accounts=4)
        try:
            s1 = mgr.open_session()
            s2 = mgr.open_session()
            q = "SELECT name FROM emp WHERE salary > 54000"
            s1.execute(q)
            s2.execute(q)
            # s1 populated the shared cache; s2's identical subplan hits.
            assert s2.reuse_view["hits"] >= 1
            assert s1.reuse_view["hits"] == 0
            assert s1.reuse_view["misses"] >= 1
            shared = mgr.db.reuse_stats()
            assert shared["hits"] >= s2.reuse_view["hits"]
        finally:
            mgr.close()

    def test_concurrent_sessions_share_one_cached_plan(self, server):
        q = (
            "SELECT dname, COUNT(*) AS n FROM emp JOIN dept "
            "ON emp.dept = dept.dept_id WHERE salary > 50000 GROUP BY dname"
        )
        rounds = 20
        replies = [[], []]
        start = threading.Barrier(2)

        def run(slot):
            with ServerClient(*server.address) as c:
                start.wait()
                for _ in range(rounds):
                    replies[slot].append(c.rows(q))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(replies[0]) == len(replies[1]) == rounds
        assert all(reply == replies[0][0] for reply in replies[0] + replies[1])
        assert sorted(replies[0][0]) == [["books", 1], ["tools", 1], ["toys", 2]]
        with ServerClient(*server.address) as c:
            value = c.execute("STATS")["value"]
        reuse = value["reuse"]
        assert reuse["plan_hits"] + reuse["plan_misses"] == 2 * rounds
        assert reuse["plan_misses"] <= 2 and reuse["plan_hits"] >= 2 * rounds - 2
        assert value["session"]["reuse_view"]["plan_hits"] == 0


class TestLifecycle:
    def test_close_session_rolls_back(self):
        mgr = make_manager()
        try:
            s = mgr.open_session()
            s.execute("BEGIN")
            s.execute("SET 0 0")
            assert mgr.close_session(s.session_id) is True
            assert mgr.close_session(s.session_id) is False
            # The disconnect released the X lock and undid the write.
            assert mgr.bank.locks.holders(0) == {}
            probe = mgr.open_session()
            assert probe.execute("GET 0").value == 100
        finally:
            mgr.close()

    def test_closed_session_rejects_statements(self):
        mgr = make_manager()
        try:
            s = mgr.open_session()
            mgr.close_session(s.session_id)
            with pytest.raises(SessionError):
                s.execute("PING")
        finally:
            mgr.close()

    def test_stats_statement_reports_engine_and_session(self, client):
        value = client.execute("STATS")["value"]
        assert value["session"]["session"] == client.session_id
        assert "bank" in value and "governor" in value and "reuse" in value

    def test_server_stop_is_clean(self):
        from repro.server import DatabaseServer

        srv = DatabaseServer(n_accounts=4)
        host, port = srv.start_in_thread()
        with ServerClient(host, port) as c:
            assert c.execute("PING")["ok"] is True
        srv.stop()
        assert srv.manager.bank.bank_stats()["crashed"] is False

    def test_facade_serve_helper(self):
        db = build_corpus_db()
        srv = db.serve(n_accounts=4)
        try:
            with ServerClient(*srv.address) as c:
                rows = c.rows("SELECT dname FROM dept")
                assert sorted(r[0] for r in rows) == ["books", "tools", "toys"]
                assert c.value("AUDIT") == 400
        finally:
            srv.stop()

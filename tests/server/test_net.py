"""The thread-per-connection wire: leaks nothing, hangs nowhere.

One thread owns each connection from ``accept`` to ``close``; these tests
pin what that design must not cost -- threads or sessions left behind by
clients that come and go, a ``stop()`` or ``crash()`` that waits on a
connection parked in the engine -- and the wire contract that must not
have moved: one reply per request in order, one typed error and a
hang-up for broken framing, one typed error and no hang-up for a result
too large for a frame.
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import DataType, MainMemoryDatabase
from repro.errors import ProtocolError, ReproError, TransactionAborted
from repro.server import (
    DatabaseServer,
    FrameDecoder,
    ServerClient,
    SessionManager,
    encode_frame,
    request,
)

from tests.server.conftest import wait_until


def read_frames(sock: socket.socket, decoder: FrameDecoder, count: int):
    """``count`` frames off ``sock`` (fewer if the server hangs up)."""
    frames = []
    while len(frames) < count:
        data = sock.recv(65536)
        if not data:
            break
        frames.extend(decoder.feed(data))
    return frames


def raw_connection(server):
    sock = socket.create_connection(server.address, timeout=10)
    decoder = FrameDecoder()
    (hello,) = read_frames(sock, decoder, 1)
    assert hello["kind"] == "hello"
    return sock, decoder


class TestNothingLeaks:
    def test_connection_churn_returns_to_baseline(self, server):
        with ServerClient(*server.address) as warm:
            warm.execute("PING")
        assert wait_until(lambda: not server._connections)
        # The warm-up connection's thread may still be returning after it
        # left ``_connections``: the baseline is the threads alive now,
        # and every thread started since must end.
        baseline = set(threading.enumerate())
        started = set()
        for i in range(200):
            client = ServerClient(*server.address)
            if i % 3 == 0:
                client.execute("BEGIN")
                client.execute("ADD %d 1" % (i % 16))
            else:
                assert client.value("GET %d" % (i % 16)) == 100
            # The connection's thread is serving it until it goes away.
            started |= set(threading.enumerate()) - baseline
            if i % 2:
                client.kill()  # RST
            else:
                client.close()  # FIN
        assert len(started) >= 200  # one thread per connection, seen alive
        assert wait_until(lambda: not server._connections)
        assert wait_until(lambda: set(threading.enumerate()) <= baseline)
        assert server.manager.session_count() == 0
        wire = server.wire_stats()
        assert wire["connections_accepted"] == wire["disconnects"] == 201
        assert wire["frames_out"] == wire["frames_in"] + 201  # + hellos
        assert not server.manager.bank._txns  # every transaction rolled back
        with ServerClient(*server.address) as probe:
            assert probe.value("AUDIT") == 1600


def transfer_worker(address, seed, tallies, mu, connections=2, txns=3):
    """BEGIN / ADD debit / ADD credit / COMMIT over fresh connections; a
    typed error (deadlock victim, lock timeout, admission) rolls back."""
    import random

    rng = random.Random(seed)
    committed = 0
    for _ in range(connections):
        with ServerClient(*address) as client:
            for _ in range(txns):
                src, dst = rng.randrange(128), rng.randrange(128)
                amount = rng.randrange(1, 100)
                try:
                    client.execute("BEGIN")
                    client.execute("ADD %d %d" % (src, -amount))
                    client.execute("ADD %d %d" % (dst, amount))
                    client.execute("COMMIT")
                    committed += 1
                except ReproError:
                    try:
                        client.execute("ROLLBACK")
                    except ReproError:
                        pass
    with mu:
        tallies.append(committed)


class TestSessionLadderInvariants:
    def test_every_rung_conserves_and_leaks_nothing(self):
        """E21's correctness half, over the wire: a lone session and a
        rung past the governor's ``max_concurrent`` knee each commit,
        conserve the total balance and return every admission slot; the
        lone session's groups are groups of one; shutdown leaves the
        store uncrashed."""
        server = DatabaseServer(
            n_accounts=128, initial_balance=1_000, group_size=32,
            group_delay=0.002, lock_wait_timeout=10.0, statement_timeout=30.0,
        )
        address = server.start_in_thread()
        bank = server.manager.bank
        knee = server.manager.db.governor.config.max_concurrent
        try:
            for sessions in (1, knee + 4):
                before = bank.bank_stats()
                tallies, mu = [], threading.Lock()
                workers = [
                    threading.Thread(
                        target=transfer_worker,
                        args=(address, 1984 + 1000 * sessions + i, tallies, mu),
                    )
                    for i in range(sessions)
                ]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
                assert sum(tallies) > 0 and len(tallies) == sessions
                governor = server.manager.db.governor_stats()
                assert governor["active"] == governor["parked"] == 0, governor
                assert governor["pages_in_use"] == 0, governor
                with ServerClient(*address) as probe:
                    assert probe.value("AUDIT") == 128 * 1_000
                if sessions == 1:
                    after = bank.bank_stats()
                    commits = after["commits"] - before["commits"]
                    assert commits == after["groups_flushed"] - before["groups_flushed"] > 0
        finally:
            server.stop()
        assert bank.bank_stats()["crashed"] is False


class TestNothingHangs:
    def test_stop_with_idle_parked_and_waiting_connections(self):
        # Threads alive before the server exists -- including any still
        # winding down from an earlier test -- are not the server's.
        before = set(threading.enumerate())
        server = DatabaseServer(
            n_accounts=8, group_size=64, group_delay=30.0, lock_wait_timeout=30.0
        )
        address = server.start_in_thread()
        bank = server.manager.bank
        idle = ServerClient(*address)
        holder = ServerClient(*address)
        holder.execute("BEGIN")
        holder.execute("ADD 1 1")
        committer = ServerClient(*address)
        committer.execute("BEGIN")
        committer.execute("ADD 0 1")
        waiter = ServerClient(*address)
        outcomes = {}

        def run(name, client, stmt):
            try:
                outcomes[name] = client.execute(stmt)
            except (ReproError, OSError) as exc:
                outcomes[name] = exc

        threads = [
            threading.Thread(target=run, args=("commit", committer, "COMMIT")),
            threading.Thread(target=run, args=("wait", waiter, "GET 1")),
        ]
        for t in threads:
            t.start()

        def server_threads():
            """Threads started since ``before`` other than the clients':
            the accept thread, one per connection, the group-commit
            flusher."""
            return [
                t for t in threading.enumerate()
                if t not in before and t not in threads
            ]

        assert wait_until(lambda: len(bank._group) == 1)
        assert wait_until(lambda: bank.bank_stats()["lock_waits"] == 1)
        assert len(server_threads()) >= 6  # accept, four connections, flusher

        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 5.0
        for t in threads:
            t.join(timeout=5.0)
            assert not t.is_alive(), "a client hung across stop()"
        assert set(outcomes) == {"commit", "wait"}
        assert not server._connections
        assert wait_until(lambda: not server_threads()), server_threads()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5)
        for client in (idle, holder, committer, waiter):
            client.close()

    def test_crash_during_a_blocked_commit_never_hangs_the_client(self):
        server = DatabaseServer(n_accounts=8, group_size=64, group_delay=30.0)
        server.start_in_thread()
        try:
            bank = server.manager.bank
            bystander = ServerClient(*server.address)
            bystander.execute("BEGIN")
            doomed = ServerClient(*server.address)
            doomed.execute("BEGIN")
            doomed.execute("ADD 0 5")
            outcome = []

            def commit():
                try:
                    outcome.append(doomed.execute("COMMIT"))
                except (ReproError, OSError) as exc:
                    outcome.append(exc)

            t = threading.Thread(target=commit)
            t.start()
            assert wait_until(lambda: len(bank._group) == 1)
            server.crash()
            t.join(timeout=5.0)
            assert not t.is_alive(), "the client hung across crash()"
            (result,) = outcome
            assert isinstance(result, Exception), result  # never a false OK
            if isinstance(result, TransactionAborted):
                assert result.reason == "crash"
            assert wait_until(lambda: not server._connections)
            server.recover()
            with ServerClient(*server.address) as probe:
                assert probe.value("GET 0") == 100
        finally:
            server.stop()


class TestWireContract:
    def test_three_frames_in_one_segment_answered_in_order(self, server):
        sock, decoder = raw_connection(server)
        try:
            sock.sendall(
                encode_frame(request("ADD 3 7", 11))
                + encode_frame(request("GET 3", 12))
                + encode_frame(request("GET three", 13))  # a typed error
            )
            replies = read_frames(sock, decoder, 3)
            assert [r["id"] for r in replies] == [11, 12, 13]
            assert [r["ok"] for r in replies] == [True, True, False]
            assert replies[0]["value"] == replies[1]["value"] == 107
            assert replies[2]["error"]["type"] == "SqlError"
        finally:
            sock.close()

    def test_garbled_length_prefix_gets_one_error_and_a_hang_up(self, server):
        sock, decoder = raw_connection(server)
        try:
            before = server.wire_stats()["errors_returned"]
            sock.sendall(struct.pack(">I", 0xFFFFFFFF) + b"garbage")
            replies = read_frames(sock, decoder, 2)  # runs into the FIN
            assert len(replies) == 1
            assert replies[0]["ok"] is False
            assert replies[0]["error"]["type"] == "ProtocolError"
            assert server.wire_stats()["errors_returned"] == before + 1
        finally:
            sock.close()
        with ServerClient(*server.address) as probe:  # the server is fine
            assert probe.execute("PING")["ok"] is True

    def test_an_integer_too_long_to_convert_is_a_typed_error(
        self, server, monkeypatch
    ):
        """A request whose ``id`` has 5,000 digits used to kill its
        connection thread with a bare ``ValueError`` and no reply.  Now
        the body is malformed like any other: one typed ``ProtocolError``
        reply, a hang-up, nothing reaching ``threading.excepthook``, and
        a fresh connection answers ``PING``."""
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        sock, decoder = raw_connection(server)
        try:
            body = b'{"id": ' + b"1" * 5000 + b', "stmt": "PING"}'
            sock.sendall(struct.pack(">I", len(body)) + body)
            replies = read_frames(sock, decoder, 2)  # runs into the FIN
            assert len(replies) == 1
            assert replies[0]["ok"] is False
            assert replies[0]["error"]["type"] == "ProtocolError"
        finally:
            sock.close()
        # The connection thread has returned, so anything it raised has
        # already been handed to the hook.
        assert wait_until(
            lambda: not any(t.name == "db-conn" for t in threading.enumerate())
        )
        assert escaped == []
        with ServerClient(*server.address) as probe:
            assert probe.execute("PING")["ok"] is True

    def test_a_result_too_large_for_a_frame_is_a_typed_error(self):
        """60,000 rows of nine int64 columns are 4.3 MB of column frame,
        over the 4 MiB limit: the reply is one typed ProtocolError, and
        the connection and its session keep serving."""
        db = MainMemoryDatabase()
        db.create_table("wide", [("c%d" % i, DataType.INTEGER) for i in range(9)])
        db.insert_many("wide", [(k,) * 9 for k in range(60_000)])
        server = DatabaseServer(db=db, n_accounts=4)
        server.start_in_thread()
        try:
            with ServerClient(*server.address) as client:
                session = client.session_id
                with pytest.raises(ProtocolError, match="exceeds"):
                    client.execute("SELECT * FROM wide")
                assert server.wire_stats()["errors_returned"] == 1
                assert client.execute("PING")["meta"]["session"] == session
                assert client.rows("SELECT c8 FROM wide WHERE c0 < 2") == [
                    [0], [1]
                ]
        finally:
            server.stop()


    def test_each_bad_statement_is_a_positioned_error_and_ping_answers(self):
        """A statement cut after its WHERE column, LIKE on an indexed
        INTEGER column, a string against a number and a predicate nested
        3,000 deep each used to end the connection thread with an untyped
        exception; now each is one positioned ``SqlError`` reply, and the
        same connection answers ``PING`` after it."""
        from repro.planner.sql import SqlError

        db = MainMemoryDatabase()
        db.create_table("t", [("a", DataType.INTEGER), ("b", DataType.INTEGER)])
        db.insert_many("t", [(k, k % 7) for k in range(100)])
        db.create_index("t", "a", "btree")
        bad = [
            "SELECT b FROM t WHERE a ",
            "SELECT a FROM t WHERE a LIKE 'x1%'",
            "SELECT a FROM t WHERE a < 'x'",
            "SELECT a FROM t WHERE " + "(" * 3000 + "a = 1" + ")" * 3000,
            "SELECT a, a FROM t",
        ]
        server = DatabaseServer(db=db, n_accounts=4)
        server.start_in_thread()
        try:
            with ServerClient(*server.address) as client:
                session = client.session_id
                for stmt in bad:
                    with pytest.raises(SqlError) as caught:
                        client.execute(stmt)
                    assert 0 <= caught.value.position <= len(stmt), stmt
                    assert client.execute("PING")["meta"]["session"] == session
                assert server.wire_stats()["errors_returned"] == len(bad)
                assert client.rows("SELECT b FROM t WHERE a = 3") == [[3]]
        finally:
            server.stop()


class TestTheWorkerPoolIsGone:
    def test_stale_workers_argument_fails_loudly(self):
        with pytest.raises(TypeError):
            DatabaseServer(workers=4)
        manager = SessionManager(n_accounts=4)
        try:
            with pytest.raises(TypeError):
                DatabaseServer(manager=manager, workers=4)
        finally:
            manager.close()

    def test_importing_the_server_imports_no_event_loop(self):
        code = (
            "import sys, repro.server\n"
            "gone = {'asyncio', 'concurrent.futures'} & set(sys.modules)\n"
            "assert not gone, gone\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

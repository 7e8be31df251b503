"""Building the engine and driving it, in-process and over the socket.

Set-up is the same code on both paths (:func:`build_engine`): construct
``MainMemoryDatabase``, bulk-load every table, build its indexes, analyze.
Wire workloads run it in a **server child process** (``launcher.py``) so
the load generator and the server never share an interpreter lock; the
generator talks to the child over a control pipe (its stdin/stdout, one
JSON object per line) for everything that is not client traffic: set-up,
CPU time, stats, ``crash``, ``recover``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import DataType, MainMemoryDatabase
from repro.errors import ReproError
from repro.server.client import ServerClient

from workloads import Op, Table

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seconds the generator waits for one control-pipe reply or for the child
#: to exit before it kills it.
CHILD_TIMEOUT = 60.0


def build_engine(
    tables: Dict[str, Table], db_kwargs: Dict[str, Any]
) -> MainMemoryDatabase:
    """From ``MainMemoryDatabase(...)`` to ready for the first statement."""
    db = MainMemoryDatabase(**db_kwargs)
    for name, table in tables.items():
        relation = db.create_table(
            name, [(column, DataType.INTEGER) for column in table.columns]
        )
        relation.extend_rows(table.rows)
        for column in table.indexes:
            db.create_index(name, column, kind="btree")
    db.analyze()
    return db


def run_inproc(db: MainMemoryDatabase, op: Op) -> Any:
    """One in-process operation through the public facade."""
    if op.kind == "sql":
        return db.sql(op.arg)
    if op.kind == "insert":
        return db.insert(*op.arg)
    if op.kind == "insert_many":
        return db.insert_many(*op.arg)
    if op.kind == "delete_where":
        return db.delete_where(*op.arg)
    if op.kind == "analyze":
        return db.analyze(op.arg)
    raise ValueError("not an in-process operation: %r" % (op.kind,))


def run_wire(client: ServerClient, op: Op) -> Any:
    """One operation over the socket; a transfer is four frames."""
    if op.kind == "sql":
        return client.execute(op.arg)
    if op.kind == "get":
        return client.execute("GET %d" % op.arg)
    if op.kind == "transfer":
        lo, hi, amount = op.arg
        client.execute("BEGIN")
        client.execute("ADD %d %d" % (lo, -amount))
        client.execute("ADD %d %d" % (hi, amount))
        return client.execute("COMMIT")
    raise ValueError("not a wire operation: %r" % (op.kind,))


class OpRecord:
    """What the harness keeps of one executed operation."""

    __slots__ = ("op", "start", "end", "result", "error", "counters")

    def __init__(self, op: Op) -> None:
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.result: Any = None
        self.error: Optional[str] = None
        #: OperationCounters delta (in-process) or the reply's counters.
        self.counters: Optional[Dict[str, int]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_pass_inproc(
    db: MainMemoryDatabase, ops: Sequence[Op], on_op=None
) -> List[OpRecord]:
    """Run one pass in the calling thread.  ``on_op(record, done, client)``
    brackets each operation for the tracer: called before it starts and
    again, with ``done`` true, after it ends."""
    snapshot = db.counters.thread_snapshot
    records = [OpRecord(op) for op in ops]
    clock = time.perf_counter
    for record in records:
        if on_op is not None:
            on_op(record, False, 0)
        before = snapshot()
        record.start = clock()
        try:
            record.result = run_inproc(db, record.op)
        except ReproError as exc:
            record.error = "%s: %s" % (type(exc).__name__, exc)
        record.end = clock()
        record.counters = (snapshot() - before).as_dict()
        if on_op is not None:
            on_op(record, True, 0)
    return records


class WireClients:
    """The load generator's side of a wire workload: one connection per
    client, each on its own thread, released into every pass together."""

    def __init__(self, address: Tuple[str, int], clients: int) -> None:
        self.clients = [
            ServerClient(address[0], address[1], timeout=CHILD_TIMEOUT)
            for _ in range(clients)
        ]
        for client in self.clients:
            client.execute("PING")

    def run_pass(
        self, per_client: Sequence[Sequence[Op]], on_op=None,
        stop_on_error: bool = False, meanwhile=None,
    ) -> List[List[OpRecord]]:
        """Run one pass: every client executes its list, closed-loop.
        Returns the records per client.  The crash pass uses the last two
        arguments: ``meanwhile(records)`` runs on the calling thread while
        the clients work, and ``stop_on_error`` ends a client's list at its
        first failure."""
        records = [[OpRecord(op) for op in ops] for ops in per_client]
        gate = threading.Barrier(len(self.clients))
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(index, client, records[index], gate, on_op, stop_on_error),
                name="ledger-client-%d" % index,
            )
            for index, client in enumerate(self.clients)
        ]
        for thread in threads:
            thread.start()
        try:
            if meanwhile is not None:
                meanwhile(records)
        finally:
            for thread in threads:
                thread.join()
        return records

    @staticmethod
    def _client_loop(index, client, records, gate, on_op, stop_on_error) -> None:
        clock = time.perf_counter
        gate.wait()
        for record in records:
            if on_op is not None:
                on_op(record, False, index)
            record.start = clock()
            try:
                record.result = run_wire(client, record.op)
            except (ReproError, OSError) as exc:
                record.error = "%s: %s" % (type(exc).__name__, exc)
            record.end = clock()
            if record.error is None and record.op.kind == "sql":
                record.counters = record.result.get("counters")
            if on_op is not None:
                on_op(record, True, index)
            if record.error is not None and stop_on_error:
                return

    def close(self) -> None:
        for client in self.clients:
            client.close()


class ServerChild:
    """The server in its own process, and the control pipe to it."""

    def __init__(self, workload: str, seed: int, scale: float) -> None:
        self._proc = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "launcher.py"),
                workload, str(seed), repr(scale),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._replies: List[Optional[str]] = []
        self._have_reply = threading.Condition()
        self._reader = threading.Thread(
            target=self._read_replies, name="ledger-control", daemon=True
        )
        self._reader.start()
        ready = self.call("hello")
        #: Seconds the child spent starting its interpreter and importing
        #: the engine -- excluded from ``setup_s``, reported beside it.
        self.import_seconds: float = ready["import_seconds"]

    def _read_replies(self) -> None:
        for line in self._proc.stdout:
            with self._have_reply:
                self._replies.append(line)
                self._have_reply.notify()
        with self._have_reply:
            self._replies.append(None)
            self._have_reply.notify()

    def call(self, cmd: str, **args: Any) -> Dict[str, Any]:
        """Send one command, wait (bounded) for its one reply."""
        message = dict(args, cmd=cmd)
        try:
            self._proc.stdin.write(json.dumps(message) + "\n")
            self._proc.stdin.flush()
        except OSError as exc:
            raise RuntimeError("server child is gone: %s" % exc) from exc
        deadline = time.monotonic() + CHILD_TIMEOUT
        with self._have_reply:
            while not self._replies:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        "server child did not answer %r within %.0fs"
                        % (cmd, CHILD_TIMEOUT)
                    )
                self._have_reply.wait(remaining)
            line = self._replies.pop(0)
        if line is None:
            raise RuntimeError("server child exited while handling %r" % cmd)
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError("server child failed %r: %s" % (cmd, reply["error"]))
        return reply

    def stop(self) -> None:
        """Ask the child to shut down, wait for it, kill it if it will not."""
        if self._proc.poll() is None:
            try:
                self.call("stop")
            except RuntimeError:
                pass
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._reader.join(timeout=CHILD_TIMEOUT)
        self._proc.stdout.close()

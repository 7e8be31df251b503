"""The socket server: one thread per connection, one session each.

An accept thread hands every connection to a thread of its own, which
runs the whole conversation blocking -- ``recv``, decode, execute, send
-- so a statement that blocks (on a record lock, on governor admission,
on its commit group) blocks only its own connection, and a frame crosses
no thread on its way to the engine or back.  Each accepted connection
gets a fresh :class:`~repro.server.session.Session`; the server greets
it with a ``hello`` frame carrying the session id, then answers every
request frame with exactly one response frame, in order.

Failure semantics (the chaos tests drive all three):

* **Client disconnect** (EOF or reset) mid-transaction: the connection's
  thread closes the session, which rolls the open transaction back with
  reason ``"disconnect"`` and releases its locks.
* **Typed errors** never kill the connection: they are encoded with
  :func:`~repro.server.protocol.error_payload` (including the
  ``txn_aborted`` flag when the statement's failure also rolled the
  session's transaction back) and the conversation continues.
* **Server crash** (:meth:`DatabaseServer.crash`): the store loses its
  volatile state mid-commit, every session dies, every connection is
  severed (``shutdown`` on its socket: a thread blocked in ``recv`` or
  about to send finds the connection gone and ends);
  :meth:`DatabaseServer.recover` restores the durable image and new
  connections proceed.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, Optional, Tuple

from repro.core.locks import tracked_lock
from repro.errors import ProtocolError, ReproError, StateError
from repro.server.protocol import FrameDecoder, encode_frame, error_payload
from repro.server.session import Session, SessionManager

_READ_CHUNK = 64 * 1024


def _sever(sock: socket.socket) -> None:
    """Wake whichever thread is blocked on ``sock`` (in ``accept`` or
    ``recv``) and fail its next send; that thread closes the socket."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the peer got there first


class DatabaseServer:
    """Serve a :class:`SessionManager` over a TCP socket."""

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **manager_kwargs: Any,
    ) -> None:
        if manager is not None and manager_kwargs:
            raise TypeError(
                "DatabaseServer got a manager and also %s for building one"
                % ", ".join(sorted(manager_kwargs))
            )
        self.manager = (
            manager if manager is not None else SessionManager(**manager_kwargs)
        )
        self.host = host
        self.port = port
        #: (host, port) actually bound, available once serving starts.
        self.address: Optional[Tuple[str, int]] = None
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        #: Guards the connection registry and the wire statistics; no
        #: socket call is ever made under it.
        self._mu = tracked_lock("repro.server.DatabaseServer._mu")
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._wire = {
            "connections_accepted": 0, "frames_in": 0, "frames_out": 0,
            "errors_returned": 0, "disconnects": 0,
        }

    # -- connection handling -----------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _peer = listener.accept()
            except OSError:
                break  # stop() severed the listener
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._handle, args=(conn,), name="db-conn", daemon=True
            )
            with self._mu:
                self._wire["connections_accepted"] += 1
                self._connections[conn] = thread
            thread.start()
        listener.close()

    def _handle(self, conn: socket.socket) -> None:
        session = self.manager.open_session()
        decoder = FrameDecoder()
        try:
            hello = {"ok": True, "kind": "hello", "session": session.session_id}
            self._send(conn, encode_frame(hello))
            while True:
                data = conn.recv(_READ_CHUNK)
                if not data:
                    break
                try:
                    messages = decoder.feed(data)
                except ProtocolError as exc:
                    # Framing is broken; report once and hang up.
                    self._send(conn, self._error_frame(None, exc))
                    break
                for message in messages:
                    self._count("frames_in")
                    self._send(conn, self._respond(session, message))
        except OSError:
            pass  # reset by the peer, or severed by crash() / stop()
        finally:
            with self._mu:
                self._wire["disconnects"] += 1
                del self._connections[conn]
            self.manager.close_session(session.session_id, "disconnect")
            conn.close()

    def _count(self, counter: str) -> None:
        with self._mu:
            self._wire[counter] += 1

    def _send(self, conn: socket.socket, frame: bytes) -> None:
        conn.sendall(frame)
        self._count("frames_out")

    def _error_frame(
        self, msg_id: Any, exc: ReproError, txn_aborted: bool = False
    ) -> bytes:
        self._count("errors_returned")
        error = error_payload(exc, txn_aborted=txn_aborted)
        return encode_frame({"id": msg_id, "ok": False, "error": error})

    def _respond(self, session: Session, message: Dict[str, Any]) -> bytes:
        """Run one request and encode its reply frame.  Encoding happens
        here so that a result too large for one frame becomes a typed
        error reply like any other, and the connection keeps serving."""
        msg_id = message.get("id")
        stmt = message.get("stmt")
        if not isinstance(stmt, str):
            return self._error_frame(
                msg_id, ProtocolError("request frame needs a string 'stmt' field")
            )
        had_txn = session.txn is not None
        try:
            return encode_frame(session.execute(stmt).payload(msg_id))
        except ReproError as exc:
            return self._error_frame(
                msg_id, exc, txn_aborted=had_txn and session.txn is None
            )

    # -- serving -----------------------------------------------------------------

    def start_in_thread(self) -> Tuple[str, int]:
        """Bind, start accepting on a background thread, and return the
        bound (host, port)."""
        if self._thread is not None:
            raise StateError("the server is already running")
        self._listener = socket.create_server((self.host, self.port))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(
            target=self._accept_loop,
            args=(self._listener,),
            name="db-server",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def _sever_connections(self) -> Tuple[threading.Thread, ...]:
        with self._mu:
            connections = dict(self._connections)
        for conn in connections:
            _sever(conn)
        return tuple(connections.values())

    def stop(self) -> None:
        """Stop serving, sever connections, shut the engine down."""
        if self._thread is not None:
            _sever(self._listener)
            self._thread.join(timeout=10.0)
            self._thread = self._listener = None
        threads = self._sever_connections()
        # Closing the engine is what releases a connection parked in it:
        # the open commit group is flushed, a lock waiter rolled back.
        self.manager.close()
        for thread in threads:
            thread.join(timeout=10.0)

    # -- fault injection ----------------------------------------------------------

    def crash(self) -> Dict[str, int]:
        """Crash the store (volatile state lost, sessions severed) and
        drop every connection, as a power cut would."""
        report = self.manager.crash()
        self._sever_connections()
        return report

    def recover(self) -> Dict[str, Any]:
        """Recover the store from its durable log; the server keeps
        accepting connections throughout."""
        return self.manager.recover()

    # -- reporting ----------------------------------------------------------------

    def wire_stats(self) -> Dict[str, int]:
        with self._mu:
            return dict(self._wire)

    def __repr__(self) -> str:
        return "DatabaseServer(%s, %d connections)" % (
            self.address,
            self.wire_stats()["connections_accepted"],
        )


__all__ = ["DatabaseServer"]

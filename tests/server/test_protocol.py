"""Wire-protocol tests: framing, typed errors, malformed round-trips."""

from __future__ import annotations

import socket
import struct

import pytest

from repro.errors import (
    AdmissionRejected,
    ProtocolError,
    QueryTimeout,
    ReproError,
    StateError,
    TransactionAborted,
)
from repro.planner.sql import SqlError
from repro.server import (
    FrameDecoder,
    MAX_FRAME_BYTES,
    ServerClient,
    decode_body,
    encode_frame,
    error_payload,
    raise_error,
    request,
)


class TestFraming:
    def test_round_trip(self):
        payload = {"id": 3, "stmt": "SELECT * FROM emp", "nested": {"a": [1, 2]}}
        frame = encode_frame(payload)
        assert decode_body(frame[4:]) == payload

    def test_decoder_handles_arbitrary_chunking(self):
        frames = b"".join(
            encode_frame({"id": i, "stmt": "s%d" % i}) for i in range(5)
        )
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(frames), 3):  # 3-byte dribble
            out.extend(decoder.feed(frames[i : i + 3]))
        assert [m["id"] for m in out] == list(range(5))
        assert decoder.pending_bytes == 0

    def test_decoder_many_frames_in_one_chunk(self):
        frames = b"".join(encode_frame({"id": i}) for i in range(10))
        assert [m["id"] for m in FrameDecoder().feed(frames)] == list(range(10))

    def test_oversized_outgoing_frame_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"pad": "x" * (MAX_FRAME_BYTES + 1)})

    def test_oversized_incoming_frame_rejected_eagerly(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(header)

    def test_non_json_body_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body(b"\xff\xfenot json")

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body(b"[1, 2, 3]")

    def test_integer_too_long_to_convert_rejected(self):
        """A 5,000-digit integer is valid JSON that ``json.loads`` refuses
        with a bare ``ValueError`` (the interpreter's digit limit); the
        decoder reports it as a malformed body like any other."""
        body = b'{"id": ' + b"1" * 5000 + b', "stmt": "PING"}'
        with pytest.raises(ProtocolError, match="frame body"):
            decode_body(body)
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_request_builder(self):
        assert request("PING") == {"stmt": "PING"}
        assert request("PING", 9) == {"id": 9, "stmt": "PING"}


class TestTypedErrors:
    @pytest.mark.parametrize(
        "exc, expect",
        [
            (SqlError("bad token", position=17), {"position": 17}),
            (
                AdmissionRejected("full", qid=4, reason="memory"),
                {"qid": 4, "reason": "memory"},
            ),
            (QueryTimeout("too slow", qid=2), {"qid": 2}),
            (
                TransactionAborted("victim", reason="deadlock"),
                {"reason": "deadlock"},
            ),
            (StateError("wrong state"), {}),
        ],
    )
    def test_payload_round_trip(self, exc, expect):
        payload = error_payload(exc)
        assert payload["type"] == type(exc).__name__
        assert payload["message"] == str(exc)
        for key, value in expect.items():
            assert payload[key] == value
        with pytest.raises(type(exc)) as info:
            raise_error(payload)
        assert str(info.value) == str(exc)
        for key, value in expect.items():
            assert getattr(info.value, key) == value

    def test_txn_aborted_flag_travels(self):
        payload = error_payload(
            TransactionAborted("gone", reason="disconnect"), txn_aborted=True
        )
        assert payload["txn_aborted"] is True
        with pytest.raises(TransactionAborted) as info:
            raise_error(payload)
        assert info.value.txn_aborted is True

    def test_unknown_subtype_degrades_to_named_ancestor(self):
        class Exotic(StateError):
            pass

        assert error_payload(Exotic("odd"))["type"] == "StateError"

    def test_unknown_type_name_degrades_to_repro_error(self):
        with pytest.raises(ReproError):
            raise_error({"type": "NoSuchError", "message": "m"})


class TestMalformedOverTheWire:
    """ISSUE satellite: malformed statements round-trip with positions."""

    @pytest.mark.parametrize(
        "stmt",
        [
            "SELECT",
            "SELECT * FROM nope",
            "SELECT wat FROM emp",
            "SELECT * FROM emp WHERE name LIKE '%J'",
            "SELECT * FROM emp WHERE salary >",
            "SELECT *, COUNT(*) FROM emp",
        ],
    )
    def test_sql_error_carries_position(self, client, stmt):
        with pytest.raises(SqlError) as info:
            client.execute(stmt)
        assert info.value.position is not None
        assert 0 <= info.value.position <= len(stmt)

    def test_bank_syntax_error_positions(self, client):
        with pytest.raises(SqlError) as info:
            client.execute("ADD zero 5")
        assert info.value.position == 4
        with pytest.raises(SqlError) as info:
            client.execute("GET 1 trailing")
        assert info.value.position == 6
        with pytest.raises(SqlError) as info:
            client.execute("ADD 1")
        assert info.value.position == 5  # end of statement: missing delta

    def test_typed_errors_do_not_kill_the_connection(self, client):
        for _ in range(3):
            with pytest.raises(SqlError):
                client.execute("SELECT wat FROM emp")
        assert client.execute("PING")["ok"] is True

    def test_missing_stmt_field_is_protocol_error(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        try:
            decoder = FrameDecoder()
            hello = None
            while hello is None:
                msgs = decoder.feed(sock.recv(65536))
                hello = msgs[0] if msgs else None
            sock.sendall(encode_frame({"id": 1, "nope": True}))
            reply = None
            while reply is None:
                msgs = decoder.feed(sock.recv(65536))
                reply = msgs[0] if msgs else None
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ProtocolError"
        finally:
            sock.close()

    def test_client_surfaces_server_gone(self, server):
        client = ServerClient(*server.address)
        client._sock.close()
        client.closed = False  # simulate a peer that vanished underneath
        with pytest.raises((ProtocolError, OSError)):
            client.execute("PING")

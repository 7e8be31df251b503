"""The wire protocol: length-prefixed statement/result frames.

One frame is a 4-byte big-endian body length followed by that many bytes
of body: UTF-8 JSON, except for a SQL result.  The client sends request
frames::

    {"id": 7, "stmt": "SELECT name FROM emp WHERE salary > 50000"}

and the server answers each with exactly one response frame: a bank
statement's JSON result (``kind`` ``"value"`` or ``"ok"``), a SQL result
(``kind`` ``"rows"``) as one *column frame* body::

    0x00                   marker: no JSON body starts with a NUL
    u32 big-endian H       header length
    H bytes of UTF-8 JSON  the reply without "rows", plus "count" and
                           "layout": per column "q" / "d" (packed) or
                           its values as a JSON list
    count * 8 bytes        per "q" / "d" column in layout order: the
                           int64 / float64 buffer, little-endian

or a typed error (the taxonomy class name travels with the message, plus
the machine-readable fields clients need: the statement ``position`` for
:class:`~repro.planner.sql.SqlError`, the admission ``reason`` for
:class:`~repro.errors.AdmissionRejected`, the abort ``reason`` for
:class:`~repro.errors.TransactionAborted`, ``retryable`` when the error
carries the :class:`~repro.errors.Retryable` marker so clients know a
resubmit is safe, and ``txn_aborted`` whenever the error also rolled the
session's open transaction back)::

    {"id": 7, "ok": false,
     "error": {"type": "SqlError", "message": "unknown column 'wat'",
               "position": 7}}

A column is packed only if every page packed it; any other travels as
JSON, so each value keeps its exact type.  :func:`decode_body` rebuilds
``rows`` as the lists of lists a JSON reply would carry.

Frames are bounded by :data:`MAX_FRAME_BYTES` (4 MiB, some 58,000 rows of
nine int columns); anything larger, truncated, inconsistent or non-JSON
raises :class:`~repro.errors.ProtocolError`.  The framing is symmetric --
both sides use :func:`encode_frame` and :class:`FrameDecoder`.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Any, Dict, List, NamedTuple, Optional

from repro.errors import (
    AdmissionRejected,
    GovernorError,
    PlannerError,
    ProtocolError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
    Retryable,
    SessionError,
    StateError,
    TransactionAborted,
    UnplannableQueryError,
    WouldBlock,
)
from repro.planner.sql import SqlError

#: Hard per-frame ceiling (requests and responses alike).  Statements are
#: human-sized; result sets over the banking workload fit comfortably.
MAX_FRAME_BYTES = 4 * 1024 * 1024

_LENGTH = struct.Struct(">I")

_COLUMN_FRAME = b"\x00"
_BYTESWAP = sys.byteorder == "big"


class ResultColumns(NamedTuple):
    """A SQL result as one buffer per column: what a ``rows`` reply
    carries from the session to :func:`encode_frame`.  ``buffers`` are
    packed ``array('q')`` / ``array('d')`` buffers (sent as bytes) or
    lists (sent as JSON), each ``count`` long and owned by the carrier --
    a snapshot, never a live page buffer a writer could change."""

    buffers: List[Any]
    count: int


def _column_body(payload: Dict[str, Any], result: ResultColumns) -> List[Any]:
    """The parts of a column frame body: marker, header, packed buffers."""
    header = {key: value for key, value in payload.items() if key != "rows"}
    layout: List[Any] = []
    packed: List[memoryview] = []
    for buffer in result.buffers:
        if type(buffer) is array:
            layout.append(buffer.typecode)
            if _BYTESWAP:
                buffer = array(buffer.typecode, buffer)
                buffer.byteswap()
            packed.append(memoryview(buffer).cast("B"))
        else:
            layout.append(buffer)
    header.update(count=result.count, layout=layout)
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return [_COLUMN_FRAME, _LENGTH.pack(len(head)), head] + packed


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialise one message to ``length || body`` bytes: a column frame
    when ``payload["rows"]`` is a :class:`ResultColumns`, else JSON."""
    result = payload.get("rows")
    if type(result) is ResultColumns:
        parts = _column_body(payload, result)
    else:
        parts = [json.dumps(payload, separators=(",", ":")).encode("utf-8")]
    size = sum(map(len, parts))
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte limit"
            % (size, MAX_FRAME_BYTES)
        )
    return b"".join([_LENGTH.pack(size), *parts])


def _json_object(body: Any, what: str) -> Dict[str, Any]:
    try:
        payload = json.loads(str(body, "utf-8"))
    # ValueError covers bad UTF-8, bad JSON and an integer longer than
    # the interpreter will convert (``sys.get_int_max_str_digits``).
    except (ValueError, RecursionError) as exc:
        raise ProtocolError("%s is not UTF-8 JSON: %s" % (what, exc)) from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            "%s must be a JSON object, got %s" % (what, type(payload).__name__)
        )
    return payload


def _decode_columns(body: bytes) -> Dict[str, Any]:
    """Parse a column frame body.  Every size it declares is checked
    against the body's own length before anything is allocated for it."""
    start = 1 + _LENGTH.size  # the marker byte, the header length
    end = start + (_LENGTH.unpack_from(body, 1)[0] if len(body) >= start else 0)
    if end > len(body):
        raise ProtocolError("column frame of %d bytes has no header" % len(body))
    view = memoryview(body)
    payload = _json_object(view[start:end], "column frame header")
    count = payload.pop("count", None)
    layout = payload.pop("layout", None)
    if type(count) is not int or count < 0 or type(layout) is not list or not layout:
        raise ProtocolError("column frame header has no valid count and layout")
    width = 8 * count
    if width * sum(type(entry) is str for entry in layout) != len(body) - end:
        raise ProtocolError("column frame body does not match its header")
    columns: List[Any] = []
    for entry in layout:
        if type(entry) is list and len(entry) == count:
            columns.append(entry)
        elif entry in ("q", "d"):
            column = array(entry)
            column.frombytes(view[end:end + width])
            if _BYTESWAP:
                column.byteswap()
            columns.append(column)
            end += width
        else:
            raise ProtocolError("column frame has a bad layout entry %.40r" % (entry,))
    payload["rows"] = list(map(list, zip(*columns)))
    return payload


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse one frame body (the bytes after the length prefix): a JSON
    object, or a column frame whose ``rows`` it rebuilds as row lists."""
    if body[:1] == _COLUMN_FRAME:
        return _decode_columns(body)
    return _json_object(body, "frame body")


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    Feed whatever chunks the transport produces; complete messages come
    back in order.  The decoder validates the length prefix eagerly so an
    oversized frame is rejected before its body is buffered.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every message it completed."""
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return messages
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > self.max_frame:
                raise ProtocolError(
                    "incoming frame of %d bytes exceeds the %d-byte limit"
                    % (length, self.max_frame)
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return messages
            body = self._buffer[_LENGTH.size:end]
            del self._buffer[:end]
            messages.append(decode_body(body))

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# -- typed errors over the wire ------------------------------------------------

#: Taxonomy classes a response error payload can name.  The client
#: re-raises the *same* class, so ``except QueryTimeout`` works identically
#: in-process and across the wire.
_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (
        AdmissionRejected,
        GovernorError,
        PlannerError,
        ProtocolError,
        QueryCancelled,
        QueryTimeout,
        ReproError,
        SessionError,
        SqlError,
        StateError,
        TransactionAborted,
        UnplannableQueryError,
        WouldBlock,
    )
}


def error_payload(exc: BaseException, txn_aborted: bool = False) -> Dict[str, Any]:
    """Encode an exception for the wire (typed fields included)."""
    name = type(exc).__name__
    if name not in _ERROR_TYPES:
        # Unknown subtype: degrade to the nearest named ancestor.
        for cls in type(exc).__mro__:
            if cls.__name__ in _ERROR_TYPES:
                name = cls.__name__
                break
        else:
            name = "ReproError"
    error: Dict[str, Any] = {"type": name, "message": str(exc)}
    position = getattr(exc, "position", None)
    if position is not None:
        error["position"] = position
    qid = getattr(exc, "qid", None)
    if qid is not None:
        error["qid"] = qid
    reason = getattr(exc, "reason", None)
    if reason is not None:
        error["reason"] = reason
    if isinstance(exc, Retryable):
        # Clients may safely resubmit: the server rolled back whatever
        # the statement did (and already spent its own retry budget).
        error["retryable"] = True
    if txn_aborted:
        error["txn_aborted"] = True
    return error


def raise_error(error: Dict[str, Any]) -> None:
    """Re-raise a response's error payload as its taxonomy class."""
    name = error.get("type", "ReproError")
    message = error.get("message", "unknown server error")
    cls = _ERROR_TYPES.get(name, ReproError)
    exc: ReproError
    if cls is SqlError:
        exc = SqlError(message, position=error.get("position"))
    elif cls is AdmissionRejected:
        exc = AdmissionRejected(
            message, qid=error.get("qid"), reason=error.get("reason", "queue-full")
        )
    elif cls is TransactionAborted:
        exc = TransactionAborted(message, reason=error.get("reason", "deadlock"))
    elif issubclass(cls, GovernorError):
        exc = cls(message, qid=error.get("qid"))
    else:
        exc = cls(message)
    for key in ("position", "reason", "retryable", "txn_aborted"):
        if key in error and not hasattr(exc, key):
            setattr(exc, key, error[key])
    raise exc


def request(stmt: str, msg_id: Optional[int] = None) -> Dict[str, Any]:
    """Build a request payload."""
    payload: Dict[str, Any] = {"stmt": stmt}
    if msg_id is not None:
        payload["id"] = msg_id
    return payload


__all__ = [
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "ResultColumns",
    "decode_body",
    "encode_frame",
    "error_payload",
    "raise_error",
    "request",
]

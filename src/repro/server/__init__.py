"""The multi-session server (docs/SERVER.md).

Layers, bottom up:

* :mod:`repro.server.bank` -- the Section 5 transactional record store
  (real threads over the shared lock table, pre-commit, group commit,
  crash/recover).
* :mod:`repro.server.session` -- per-connection sessions: the statement
  language, BEGIN/COMMIT/ROLLBACK, admission-aware lock waits,
  per-session reuse-cache views, automatic retry of idempotent
  statements, and the SQL bridge.
* :mod:`repro.server.retry` -- the capped-jitter
  :class:`~repro.server.retry.RetryPolicy` the sessions retry under.
* :mod:`repro.server.protocol` -- length-prefixed frames (JSON, and
  binary column frames for SQL results) and the typed-error wire mapping.
* :mod:`repro.server.net` / :mod:`repro.server.client` -- the
  thread-per-connection server and the blocking client.

``python -m repro.server`` starts a standalone server.
"""

from repro.server.bank import BankStore, BankTxn, TxnState
from repro.server.client import ServerClient
from repro.server.net import DatabaseServer
from repro.server.protocol import (
    FrameDecoder,
    MAX_FRAME_BYTES,
    ResultColumns,
    decode_body,
    encode_frame,
    error_payload,
    raise_error,
    request,
)
from repro.server.retry import RetryPolicy
from repro.server.session import Session, SessionManager, StatementResult

__all__ = [
    "BankStore",
    "BankTxn",
    "DatabaseServer",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "ResultColumns",
    "RetryPolicy",
    "ServerClient",
    "Session",
    "SessionManager",
    "StatementResult",
    "TxnState",
    "decode_body",
    "encode_frame",
    "error_payload",
    "raise_error",
    "request",
]

"""Spans around the engine's public entry points, recorded from outside.

The benchmark owns its tracing: :func:`install` replaces a fixed list of
public functions and methods with wrappers that time the call and hand the
result through untouched, and :meth:`Tracer.uninstall` puts the originals
back.  Nothing in ``src/`` changes, and nothing is installed on an
untraced run -- end-to-end metrics always come from those.

A span is ``(name, start, end, parent, op)``.  Every thread keeps its own
stack, so the parent of a span is whatever was open on that thread when it
started, and the *self time* of a span is its duration minus the duration
of its direct children.  Spans belong to an *operation*: the load
generator opens one around each statement or transfer it issues
(:meth:`Tracer.begin_op`), and in the server child ``Session.execute``
opens one keyed ``(session id, statement ordinal)``, which is how the two
processes' records are joined afterwards.  Per operation the tracer keeps
count, self time and total time by span name; the raw spans are also kept,
up to :data:`MAX_RAW`, and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept per process (the per-operation sums keep everything).
MAX_RAW = 60_000

_clock = time.perf_counter


class OpTrace:
    """Everything recorded on behalf of one operation."""

    __slots__ = ("key", "spans", "notes", "frames")

    def __init__(self, key: Any) -> None:
        self.key = key
        #: name -> [count, self seconds, total seconds]
        self.spans: Dict[str, List[float]] = {}
        #: name -> number (rows examined, spill pages, bytes, ...)
        self.notes: Dict[str, float] = {}
        #: Generator side: the server's key for each frame this operation
        #: sent, ``[session id, statement ordinal]``.
        self.frames: List[List[int]] = []

    def note(self, name: str, amount: float) -> None:
        self.notes[name] = self.notes.get(name, 0) + amount

    def as_json(self) -> Dict[str, Any]:
        return {"key": self.key, "spans": self.spans, "notes": self.notes}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[List[Any]] = []
        self.op: Optional[OpTrace] = None
        #: Depth of nested ``PlanNode.execute`` calls on this thread.
        self.plan_depth = 0
        #: True inside ``db.create_index``: index inserts are a bulk build
        #: there, not per-row maintenance, and are not spanned one by one.
        self.bulk = False


class Tracer:
    """Span recorder for one process."""

    def __init__(self) -> None:
        self._state = _ThreadState()
        self.ops: List[OpTrace] = []
        #: Spans that ran outside any operation (the server's event-loop
        #: thread encoding and decoding frames, set-up work).
        self.background = OpTrace(None)
        self.raw: List[Tuple[str, float, float, Optional[str], Any]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- operations ----------------------------------------------------------

    def begin_op(self, key: Any) -> OpTrace:
        op = OpTrace(key)
        self.ops.append(op)
        self._state.op = op
        return op

    def end_op(self) -> None:
        self._state.op = None

    def current_op(self) -> OpTrace:
        return self._state.op or self.background

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._state.stack.append([name, _clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span of this thread; returns its duration."""
        end = _clock()
        state = self._state
        name, start, children = state.stack.pop()
        duration = end - start
        parent = None
        if state.stack:
            state.stack[-1][2] += duration
            parent = state.stack[-1][0]
        op = state.op or self.background
        cell = op.spans.get(name)
        if cell is None:
            op.spans[name] = [1, duration - children, duration]
        else:
            cell[0] += 1
            cell[1] += duration - children
            cell[2] += duration
        if len(self.raw) < MAX_RAW:
            self.raw.append((name, start, end, parent, op.key))
        return duration

    def span(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.
        ``after(op, args, result, seconds)`` runs once a call that returned
        has had its span closed."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.exit()
                raise
            seconds = tracer.exit()
            if after is not None:
                after(tracer.current_op(), args, result, seconds)
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        return {
            "ops": [op.as_json() for op in self.ops],
            "background": self.background.as_json(),
        }

    def write_raw(self, path: str) -> None:
        """One JSON span per line: name, start, end, parent, op."""
        with open(path, "w") as out:
            for name, start, end, parent, key in self.raw:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": key}
                ) + "\n")


# -- the wrappers ------------------------------------------------------------------


#: ``Governor.admit`` calls longer than this count as waiting (for the
#: governor's lock, the interpreter lock or capacity); an uncontended
#: admit takes tens of microseconds.
ADMIT_WAIT_FLOOR_S = 0.001


def _note_encoded(op: OpTrace, args, result, seconds) -> None:
    op.note("bytes_encoded", len(result))


def _note_admit_wait(op: OpTrace, args, result, seconds) -> None:
    if seconds > ADMIT_WAIT_FLOOR_S:
        op.note("admit_wait_s", seconds)


def _note_commit(op: OpTrace, args, info, seconds) -> None:
    # A commit that logged nothing never joins a group: its span is the
    # bookkeeping floor the group wait is measured above.
    kind = "logged" if info["group_size"] > 0 else "unlogged"
    op.note("commits_" + kind, 1)
    op.note("commit_%s_s" % kind, seconds)


def _wrap_client_execute(tracer: Tracer) -> None:
    from repro.server.client import ServerClient

    original = ServerClient.execute

    @functools.wraps(original)
    def traced(self, stmt):
        # ``ledger_frames`` was set to the session's statement count when
        # tracing was switched on; from there both ends count alike.
        self.ledger_frames += 1
        tracer.current_op().frames.append([self.session_id, self.ledger_frames])
        tracer.enter("client.execute")
        try:
            return original(self, stmt)
        finally:
            tracer.exit()

    tracer.replace(ServerClient, "execute", traced)


def _wrap_session_execute(tracer: Tracer) -> None:
    from repro.server.session import Session

    original = Session.execute

    @functools.wraps(original)
    def traced(self, stmt):
        # The ordinal this statement is about to get: the generator counts
        # the frames it sends on each connection the same way.
        tracer.begin_op([self.session_id, self.statements + 1])
        tracer.enter("session.execute")
        try:
            return original(self, stmt)
        finally:
            tracer.exit()
            tracer.end_op()

    tracer.replace(Session, "execute", traced)


def _wrap_plan_execute(tracer: Tracer) -> None:
    from repro.planner.plan import PlanNode

    original = PlanNode.execute
    state = tracer._state

    @functools.wraps(original)
    def traced(self, ctx):
        if state.plan_depth:
            # Below the root only the row flow is tallied: what a node
            # returns is what its parent has to examine.
            state.plan_depth += 1
            try:
                result = original(self, ctx)
            finally:
                state.plan_depth -= 1
            tracer.current_op().note("rows_examined", result.cardinality)
            return result
        state.plan_depth = 1
        tracer.enter("operators.execute")
        try:
            result = original(self, ctx)
        finally:
            tracer.exit()
            state.plan_depth = 0
        tracer.current_op().note("rows_returned", result.cardinality)
        return result

    tracer.replace(PlanNode, "execute", traced)


def _wrap_join(tracer: Tracer) -> None:
    from repro.join.base import JoinAlgorithm

    original = JoinAlgorithm.join

    @functools.wraps(original)
    def traced(self, spec):
        counters = self.counters
        ios = counters.sequential_ios + counters.random_ios
        tracer.enter("join")
        try:
            result = original(self, spec)
        finally:
            tracer.exit()
        op = tracer.current_op()
        op.note("joins", 1)
        op.note(
            "spill_pages", counters.sequential_ios + counters.random_ios - ios
        )
        op.note("resplits", getattr(self, "resplits", 0))
        return result

    tracer.replace(JoinAlgorithm, "join", traced)


def _wrap_index_maintenance(tracer: Tracer) -> None:
    from repro.access.btree import BPlusTree
    from repro.core.database import MainMemoryDatabase

    state = tracer._state
    insert = BPlusTree.insert
    create_index = MainMemoryDatabase.create_index

    @functools.wraps(insert)
    def traced_insert(self, key, value):
        if state.bulk:
            return insert(self, key, value)
        tracer.enter("access.insert")
        try:
            return insert(self, key, value)
        finally:
            tracer.exit()

    @functools.wraps(create_index)
    def traced_create_index(self, table, column, kind="btree"):
        state.bulk = True
        tracer.enter("access.build")
        try:
            return create_index(self, table, column, kind)
        finally:
            tracer.exit()
            state.bulk = False

    tracer.replace(BPlusTree, "insert", traced_insert)
    tracer.replace(MainMemoryDatabase, "create_index", traced_create_index)


def install(tracer: Tracer, server_side: bool) -> None:
    """Wrap the public entry points of every layer.  ``server_side`` is
    true in the server child and for in-process workloads (the process
    that holds the engine); the wire load generator only has the protocol
    and its own client to wrap."""
    import repro.server.client as client_module
    import repro.server.net as net_module
    import repro.server.protocol as protocol
    # The codec is imported by name into both ends of the wire, so the
    # name has to be replaced where it is looked up.
    for module in (protocol, client_module, net_module):
        tracer.span(module, "encode_frame", "protocol.encode", _note_encoded)
    tracer.span(protocol.FrameDecoder, "feed", "protocol.decode")
    if not server_side:
        _wrap_client_execute(tracer)
        return

    import repro.planner.plan as plan_module
    import repro.planner.sql as sql_module
    from repro.core.database import MainMemoryDatabase
    from repro.core.rwlock import ReadWriteLock
    from repro.governor.governor import Governor
    from repro.planner.planner import Planner
    from repro.planner.reuse import PlanReuseCache
    from repro.recovery.lock_table import LockTable
    from repro.server.bank import BankStore
    from repro.storage.relation import Relation

    _wrap_session_execute(tracer)
    tracer.span(Governor, "admit", "governor.admit", _note_admit_wait)
    tracer.span(Governor, "release", "governor.release")
    tracer.span(sql_module, "parse_sql", "planner.parse")
    tracer.span(Planner, "plan", "planner.plan")
    _wrap_plan_execute(tracer)
    _wrap_join(tracer)
    for method in ("get", "put", "invalidate"):
        tracer.span(PlanReuseCache, method, "reuse." + method)
    # ``range_scan`` is a generator, so its time cannot be bracketed at the
    # call; the index-served selection that drains it is the probe.
    tracer.span(plan_module, "select_via_index", "access.lookup")
    _wrap_index_maintenance(tracer)
    tracer.span(Relation, "insert", "storage.insert")
    tracer.span(ReadWriteLock, "acquire_write", "rwlock.acquire_write")
    for method in ("sql", "insert", "insert_many", "delete_where", "analyze"):
        tracer.span(MainMemoryDatabase, method, "db." + method)
    for method in ("add_record", "read_record", "recover"):
        tracer.span(BankStore, method, "bank." + method)
    tracer.span(BankStore, "commit", "bank.commit", _note_commit)
    tracer.span(LockTable, "acquire", "lock.acquire")

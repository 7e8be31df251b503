"""The binary column frame a SQL result crosses the wire in.

Three properties.  A result snapshotted from real pages (any mix of
packed, demoted and string columns, any page split, any row count
including none) decodes to exactly the rows the in-process path renders
-- same values *and* same types, since ``1 == 1.0 == True`` in Python.
The codec alone round-trips arbitrary column buffers.  And a column frame
that is truncated, flipped or lies about its sizes decodes to a dict or a
:class:`~repro.errors.ProtocolError` -- never another exception, a hang,
or an allocation beyond the frame's own length.

``--stateful-examples N`` (tests/conftest.py) scales the example budgets;
the nightly CI job runs a deep variant.
"""

from __future__ import annotations

import json
import random
import struct
import tracemalloc
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server import FrameDecoder, ResultColumns, decode_body, encode_frame
from repro.server.session import StatementResult, _snapshot
from repro.storage import DataType, Field, Relation, Schema

INT64 = 2 ** 63


def typed(rows):
    """Each cell paired with its exact type."""
    return [[(type(v), v) for v in row] for row in rows]


def result_rows(data):
    return StatementResult(kind="rows", data=data).rows


def reply(data, names, msg_id=7):
    return StatementResult(
        kind="rows",
        columns=names,
        data=data,
        counters={"comparisons": 3, "moves": 1},
        meta={"note": "x"},
    ).payload(msg_id)


def budget(request, factor):
    return factor * request.config.getoption("--stateful-examples")


# -- results snapshotted from pages --------------------------------------------

#: Values each schema type accepts, chosen to reach every column path: a
#: packed buffer, a buffer demoted on some pages (an int beyond int64, an
#: int in a FLOAT column), and the string list.
_CELLS = {
    DataType.INTEGER: st.one_of(
        st.integers(-INT64, INT64 - 1),
        st.integers(-INT64, INT64 - 1),
        st.sampled_from([INT64, -INT64 - 1, 2 ** 70]),
    ),
    DataType.FLOAT: st.one_of(
        st.floats(allow_nan=False, width=64),
        st.floats(allow_nan=False, width=64),
        st.integers(-1000, 1000),
    ),
    DataType.STRING: st.text(max_size=6),
}


@st.composite
def relations(draw):
    dtypes = draw(st.lists(st.sampled_from(list(_CELLS)), min_size=1, max_size=4))
    schema = Schema([Field("c%d" % i, t) for i, t in enumerate(dtypes)])
    rows = draw(
        st.lists(st.tuples(*[_CELLS[t] for t in dtypes]), max_size=40)
    )
    # Pages of 1 to 8 rows: the split decides which pages demote.
    page_rows = draw(st.integers(1, 8))
    rel = Relation("r", schema, page_bytes=page_rows * schema.tuple_bytes)
    rel.extend(rows)
    return rel


def test_snapshot_round_trips_with_exact_types(request):
    @settings(
        max_examples=budget(request, 5),
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(relations())
    def run(rel):
        rendered = [list(row) for _, row in rel.scan()]
        names = list(rel.schema.names)
        data = _snapshot(rel)
        assert data.count == len(rendered)
        assert typed(result_rows(data)) == typed(rendered)
        decoded = decode_body(encode_frame(reply(data, names))[4:])
        assert typed(decoded.pop("rows")) == typed(rendered)
        assert decoded == {
            "ok": True,
            "kind": "rows",
            "id": 7,
            "columns": names,
            "counters": {"comparisons": 3, "moves": 1},
            "meta": {"note": "x"},
        }

    run()


def test_snapshot_packs_only_columns_packed_on_every_page():
    schema = Schema(
        [Field("k", DataType.INTEGER), Field("f", DataType.FLOAT),
         Field("s", DataType.STRING)]
    )
    rel = Relation("r", schema, page_bytes=4 * schema.tuple_bytes)
    rel.extend([(k, k / 2, "s%d" % k) for k in range(10)])
    data = _snapshot(rel)
    assert [getattr(b, "typecode", "list") for b in data.buffers] == [
        "q", "d", "list"
    ]
    rel.insert((2 ** 64, 1, "big"))  # demotes both on the last page only
    data = _snapshot(rel)
    assert [type(b) for b in data.buffers] == [list, list, list]
    assert typed(result_rows(data)[-1:]) == typed([[2 ** 64, 1, "big"]])


def test_the_snapshot_is_a_copy():
    schema = Schema([Field("k", DataType.INTEGER)])
    rel = Relation("r", schema)
    rel.extend([(k,) for k in range(5)])
    frame = encode_frame(reply(_snapshot(rel), ["k"]))
    data = _snapshot(rel)
    rel.update(0, (99,))
    tail = [2, 3, 4]
    rel.delete_at(tail, *rel.compaction(tail))
    assert list(rel) == [(99,), (1,)]
    assert result_rows(data) == [[0], [1], [2], [3], [4]]
    assert encode_frame(reply(data, ["k"])) == frame


# -- the codec alone -----------------------------------------------------------

_SCALARS = st.one_of(
    st.integers(-(2 ** 80), 2 ** 80),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
)


@st.composite
def column_sets(draw):
    count = draw(st.integers(0, 20))
    kinds = draw(st.lists(st.sampled_from("qdo"), min_size=1, max_size=5))
    buffers = []
    for kind in kinds:
        if kind == "q":
            values = st.integers(-INT64, INT64 - 1)
        elif kind == "d":
            values = st.floats(width=64)
        else:
            values = _SCALARS
        cells = draw(st.lists(values, min_size=count, max_size=count))
        buffers.append(cells if kind == "o" else array(kind, cells))
    return ResultColumns(buffers, count)


def test_codec_round_trips_any_columns(request):
    @settings(
        max_examples=budget(request, 5),
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(column_sets())
    def run(data):
        names = ["c%d" % i for i in range(len(data.buffers))]
        frame = encode_frame(reply(data, names))
        assert struct.unpack(">I", frame[:4])[0] == len(frame) - 4
        assert frame[4:5] == b"\x00"
        decoded = decode_body(frame[4:])["rows"]
        want = [list(row) for row in zip(*data.buffers)]
        # NaN != NaN: compare as JSON text, where a NaN reads NaN.
        assert json.dumps(typed(decoded), default=repr) == json.dumps(
            typed(want), default=repr
        )

    run()


def test_empty_result_keeps_its_column_names():
    data = ResultColumns([array("q"), []], 0)
    decoded = decode_body(encode_frame(reply(data, ["a", "b"]))[4:])
    assert decoded["columns"] == ["a", "b"] and decoded["rows"] == []


def test_json_replies_are_unchanged():
    for payload in ({"ok": True, "kind": "value", "value": 3},
                    {"ok": True, "kind": "rows", "columns": ["a"],
                     "rows": [[1]]}):
        frame = encode_frame(payload)
        assert frame[4:5] == b"{"
        assert decode_body(frame[4:]) == payload


# -- hostile column frames -------------------------------------------------------


def sample_body():
    data = ResultColumns(
        [array("q", [1, -2, 3]), ["a", "b", "c"], array("d", [0.5, 1.5, -2.0])],
        3,
    )
    return encode_frame(reply(data, ["k", "s", "f"]))[4:]


def decodes_or_refuses(body):
    """``decode_body`` returns a dict or raises ProtocolError, and never
    allocates much beyond the body it was given."""
    tracemalloc.start()
    try:
        try:
            out = decode_body(body)
        except ProtocolError:
            out = None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out is None or isinstance(out, dict)
    assert peak < 64 * 1024 + 16 * len(body), peak
    return out


def with_header(header, tail=b""):
    head = json.dumps(header).encode()
    return b"\x00" + struct.pack(">I", len(head)) + head + tail


def test_truncated_at_every_byte():
    body = sample_body()
    for cut in range(len(body)):
        assert decodes_or_refuses(body[:cut]) is None, cut
    assert decodes_or_refuses(body)["rows"] == [
        [1, "a", 0.5], [-2, "b", 1.5], [3, "c", -2.0]
    ]


@pytest.mark.parametrize(
    "field, value",
    [
        ("count", 2 ** 40),
        ("count", 2 ** 61),
        ("count", -1),
        ("count", 4),
        ("count", True),
        ("count", "3"),
        ("count", 1.5),
        ("count", None),
        ("layout", ["q", ["a", "b", "c"]]),
        ("layout", ["q", ["a", "b"], "d"]),
        ("layout", ["q", "x", "d"]),
        ("layout", ["q", 5, "d"]),
        ("layout", ["q", {"a": 1}, "d"]),
        ("layout", "qd"),
        ("layout", None),
    ],
)
def test_lying_header_fields_are_refused(field, value):
    header = {"ok": True, "kind": "rows", "columns": ["k", "s", "f"],
              "count": 3, "layout": ["q", ["a", "b", "c"], "d"]}
    header[field] = value
    tail = array("q", [1, 2, 3]).tobytes() + array("d", [1.0, 2.0, 3.0]).tobytes()
    assert decodes_or_refuses(with_header(header, tail)) is None


def test_a_frame_without_columns_is_refused():
    for count in (0, 2 ** 40):
        header = {"ok": True, "columns": [], "count": count, "layout": []}
        assert decodes_or_refuses(with_header(header)) is None


@pytest.mark.parametrize("length", [0, 1, 2 ** 31, 2 ** 32 - 1])
def test_lying_header_length_is_refused(length):
    body = bytearray(sample_body())
    body[1:5] = struct.pack(">I", length)
    assert decodes_or_refuses(bytes(body)) is None


def test_not_json_header_is_refused():
    for head in (b"[1, 2]", b"\xff\xfe", b"{" * 100000, b"[" * 100000):
        body = b"\x00" + struct.pack(">I", len(head)) + head
        assert decodes_or_refuses(body) is None


def test_flipped_bytes_and_random_chunks(request):
    body = sample_body()

    @settings(
        max_examples=budget(request, 10),
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(
        st.lists(
            st.tuples(st.integers(0, len(body) - 1), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 2 ** 32 - 1),
    )
    def run(flips, seed):
        mutated = bytearray(body)
        for position, value in flips:
            mutated[position] = value
        mutated = bytes(mutated)
        decodes_or_refuses(mutated)
        # The same bytes as a frame stream, fed in random chunks.
        stream = struct.pack(">I", len(mutated)) + mutated
        rng = random.Random(seed)
        decoder = FrameDecoder()
        got = []
        pos = 0
        try:
            while pos < len(stream):
                step = rng.randint(1, 16)
                got.extend(decoder.feed(stream[pos:pos + step]))
                pos += step
        except ProtocolError:
            return
        assert len(got) == 1 and isinstance(got[0], dict)
        assert decoder.pending_bytes == 0

    run()

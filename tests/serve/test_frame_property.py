"""The version-4 frame as a property: columns cross the wire bit for bit.

Generated messages of numpy columns (float64 with NaN, -0.0 and
subnormals, uint32 up to its max, int64, 2-D uint8, empty arrays,
nested lists of results) are encoded as one frame and decoded by the
blocking and the asyncio reader; every column must come back with its
dtype, shape and bytes.  A generated ``query`` (with or without its
shipped ``blocks``), ``detect`` or ``ingest`` request decodes to the
same arrays, or meets the same refusal, whether its columns travel as
JSON lists or as blobs.  A
payload of exactly ``max_frame`` bytes is accepted and one byte more
refused, and every corruption of a blob reference raises
:class:`ProtocolError` instead of reading memory it does not name.

``PROPERTY_EXAMPLES`` raises the example count (CI's ``property-long`` job).
"""

import asyncio
import json
import os
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve import protocol
from repro.serve.protocol import ProtocolError

EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "200"))

_special_floats = st.sampled_from(
    [np.nan, -np.nan, -0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf,
     np.finfo(np.float64).max, 1 / 3]
)
_float64 = hnp.arrays(
    np.dtype("<f8"), st.integers(0, 12),
    elements=st.one_of(_special_floats, st.floats(allow_subnormal=True)),
)
_uint32 = hnp.arrays(
    np.dtype("<u4"), st.integers(0, 12),
    elements=st.one_of(st.just(2**32 - 1), st.integers(0, 2**32 - 1)),
)
_int64 = hnp.arrays(
    np.dtype("<i8"), st.integers(0, 12),
    elements=st.integers(-(2**63), 2**63 - 1),
)
_uint8_matrix = hnp.arrays(
    np.dtype("|u1"),
    st.tuples(st.integers(0, 6), st.integers(0, 9)),
)
columns = st.one_of(_float64, _uint32, _int64, _uint8_matrix)


@st.composite
def results(draw):
    """One query's wire result, columns of one length."""
    n = draw(st.integers(0, 6))
    wire = {
        "count": n,
        "rows": draw(hnp.arrays(np.dtype("<i8"), n)),
        "ids": draw(hnp.arrays(np.dtype("<u4"), n)),
        "timecodes": draw(hnp.arrays(
            np.dtype("<f8"), n,
            elements=st.one_of(_special_floats, st.floats()),
        )),
    }
    if draw(st.booleans()):
        wire["fingerprints"] = draw(hnp.arrays(
            np.dtype("|u1"), (n, draw(st.integers(1, 8)))
        ))
    return wire


messages = st.one_of(
    st.fixed_dictionaries({
        "id": st.integers(0, 99),
        "ok": st.just(True),
        "result": st.fixed_dictionaries({
            "alpha": st.floats(0.01, 1.0),
            "results": st.lists(results(), max_size=5),
        }),
    }),
    st.fixed_dictionaries({
        "text": st.text(max_size=20),
        "nested": st.lists(
            st.lists(st.one_of(columns, st.integers()), max_size=3),
            max_size=3,
        ),
    }),
)


def _arrays(value):
    """Every array in *value*, in encoding order."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, list):
        for item in value:
            yield from _arrays(item)


def _assert_same(got, sent):
    """Decoded *got* holds exactly what *sent* held, arrays bit for bit."""
    if isinstance(sent, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == sent.dtype and got.shape == sent.shape
        assert got.tobytes() == sent.tobytes()
    elif isinstance(sent, dict):
        assert got.keys() == sent.keys()
        for key in sent:
            _assert_same(got[key], sent[key])
    elif isinstance(sent, list):
        assert len(got) == len(sent)
        for g, s in zip(got, sent):
            _assert_same(g, s)
    else:
        assert got == sent


def read_async(frame: bytes, max_frame: int = protocol.MAX_FRAME_BYTES):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        return await protocol.read_message(reader, max_frame)

    return asyncio.run(scenario())


def read_blocking(frame: bytes, max_frame: int = protocol.MAX_FRAME_BYTES):
    a, b = socket.socketpair()
    try:
        a.sendall(frame)
        return protocol.recv_message(b, max_frame)
    finally:
        a.close()
        b.close()


def _split(frame: bytes) -> tuple[dict, bytes]:
    payload = frame[4:]
    header, _, blobs = payload.partition(b"\n")
    return json.loads(header), blobs


def _join(header: dict, blobs: bytes) -> bytes:
    payload = json.dumps(header, separators=(",", ":")).encode() + b"\n" + blobs
    return len(payload).to_bytes(4, "big") + payload


@settings(max_examples=EXAMPLES, deadline=None)
@given(message=messages)
def test_v4_frame_round_trips_bit_for_bit(message):
    frame = protocol.encode_frame(message)
    blocking = read_blocking(frame)
    _assert_same(blocking, message)
    _assert_same(read_async(frame), message)
    # The client's arrays are writable, as the fresh arrays of the
    # list form always were.
    assert all(a.flags.writeable for a in _arrays(blocking))
    # Blobs start aligned, whatever the header length.
    if list(_arrays(message)):
        header_end = frame.index(b"\n", 4) + 1
        assert (header_end - 4) % 8 == 0
    else:
        assert b"\n" not in frame[4:]  # no arrays: exactly the old frame


NDIMS = 4
DEPTH = 6

# Values the server refuses somewhere (NaN, infinities, bytes and ids
# out of range, non-integers), or accepts at the edge of a range.
_odd_values = st.sampled_from([
    -1.0, 2.0**32, 256.0, 2.5, 2.0**32 - 1, 255.0, -0.0, 1e300,
    np.nan, np.inf, -np.inf,
])


def _column(draw, dtype, shape, elements) -> np.ndarray:
    """A column of *elements*, one cell in four columns set to an odd
    value (an integer column turns float64 when the value needs it)."""
    column = draw(hnp.arrays(dtype, shape, elements=elements))
    if draw(st.integers(0, 3)) == 0:
        value = draw(_odd_values)
        if column.dtype.kind == "i" and not (
            value.is_integer() and abs(value) < 2**63
        ):
            column = column.astype(np.float64)
        column.flat[draw(st.integers(0, column.size - 1))] = value
    return column


@st.composite
def wire_requests(draw):
    """A ``query``, ``detect`` or ``ingest`` request of numpy columns."""
    op = draw(st.sampled_from(["query", "detect", "ingest"]))
    n = draw(st.integers(1, 4))
    request = {
        "op": op,
        "v": protocol.PROTOCOL_VERSION,
        "fingerprints": _column(
            draw, np.float64, (n, NDIMS),
            st.integers(0, 255) if op == "ingest" else st.floats(-1e3, 1e3),
        ),
    }
    if op != "query":
        # Now and then misaligned with the fingerprints.
        count = draw(st.sampled_from([n, n, n, n + 1]))
        request["timecodes"] = _column(
            draw, np.float64, count, st.floats(-1e9, 1e9)
        )
    if op == "ingest":
        dtype = draw(st.sampled_from([np.int64, np.float64]))
        request["ids"] = _column(draw, dtype, n, st.integers(0, 2**32 - 1))
    if op == "query" and draw(st.booleans()):
        request["blocks"] = draw(shipped_blocks(n))
    return request


@st.composite
def shipped_blocks(draw, n):
    """A ``blocks`` field for *n* fingerprints: ascending prefixes per
    query, now and then misaligned, at another depth, out of range or
    out of order."""
    counts = draw(hnp.arrays(
        np.int64, draw(st.sampled_from([n, n, n, n + 1])),
        elements=st.integers(0, 4),
    ))
    per_query = [
        sorted(draw(st.sets(st.integers(0, 2**DEPTH - 1),
                            min_size=c, max_size=c)))
        for c in counts.tolist()
    ]
    prefixes = np.array(sum(per_query, []), dtype=np.int64)
    if prefixes.size:
        prefixes = _column(draw, np.int64, prefixes.size, st.integers(
            0, 2**DEPTH - 1
        )) if draw(st.integers(0, 3)) == 0 else prefixes
    return {
        "prefixes": prefixes,
        "counts": counts,
        "depth": draw(st.sampled_from([DEPTH, DEPTH, DEPTH, DEPTH + 1])),
    }


def _server_view(request: dict):
    """The arrays the server parses from *request*, or its refusal."""
    try:
        if request["op"] == "ingest":
            return protocol.ingest_from_wire(request, NDIMS)
        fingerprints = protocol.fingerprints_from_wire(
            request["fingerprints"], NDIMS
        )
        if request["op"] == "query":
            if "blocks" not in request:
                return (fingerprints,)
            blocks = protocol.blocks_from_wire(
                request["blocks"], fingerprints.shape[0], DEPTH
            )
            return fingerprints, blocks.prefixes, blocks.counts
        return fingerprints, protocol.column_from_wire(
            request["timecodes"], fingerprints.shape[0], "timecodes"
        )
    except ProtocolError as exc:
        return str(exc)


@settings(max_examples=EXAMPLES, deadline=None)
@given(request=wire_requests())
def test_request_encodings_decode_the_same(request):
    def as_lists(message: dict) -> dict:
        return {
            key: value.tolist() if isinstance(value, np.ndarray)
            else as_lists(value) if isinstance(value, dict) else value
            for key, value in message.items()
        }

    list_frame = protocol.encode_frame(as_lists(request))
    assert b"\n" not in list_frame[4:]  # a plain JSON document
    from_lists = _server_view(read_blocking(list_frame))
    from_blobs = _server_view(read_async(protocol.encode_frame(request)))
    if isinstance(from_lists, str):
        assert from_blobs == from_lists  # the same refusal
        return
    assert not isinstance(from_blobs, str), from_blobs
    for got, want in zip(from_blobs, from_lists, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=EXAMPLES, deadline=None)
@given(message=messages)
def test_max_frame_bounds_the_whole_payload(message):
    frame = protocol.encode_frame(message)
    size = len(frame) - 4
    read_async(frame, max_frame=size)
    read_blocking(frame, max_frame=size)
    with pytest.raises(ProtocolError, match="exceeds"):
        read_async(frame, max_frame=size - 1)
    with pytest.raises(ProtocolError, match="exceeds"):
        read_blocking(frame, max_frame=size - 1)


def _corruptions(spec: list, section: int) -> list:
    offset, nbytes, dtype, shape = spec
    itemsize = np.dtype(dtype).itemsize
    bad = [
        [offset, nbytes, "<f4", shape],
        [offset, nbytes, ">i8", shape],
        [offset, nbytes, "O", shape],
        [offset, nbytes, 8, shape],
        [offset, nbytes, ["<i8"], shape],
        [section - nbytes + 1, nbytes, dtype, shape],
        [section + 1, 0, dtype, [0]],
        [-1, nbytes, dtype, shape],
        [True, nbytes, dtype, shape],
        [float(offset), nbytes, dtype, shape],
        [offset, nbytes + 1, dtype, shape],
        [offset, nbytes + itemsize, dtype, shape],
        [offset, nbytes, dtype, shape + [2] if nbytes else [1]],
        [offset, nbytes, dtype, [-1]],
        [offset, nbytes, dtype, "shape"],
        [offset, nbytes, dtype],
        [offset, nbytes, dtype, shape, 0],
        "blob",
        None,
    ]
    if nbytes:
        bad.append([offset, nbytes - 1, dtype, shape])
        bad.append([offset, nbytes - itemsize, dtype, shape])
    return bad


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    column=columns,
    which=st.integers(0, 100),
    truncate=st.booleans(),
)
def test_corrupted_references_raise(column, which, truncate):
    frame = protocol.encode_frame({"result": {"column": column}})
    header, blobs = _split(frame)
    spec = header["result"]["column"][protocol.BLOB_KEY]
    if truncate:
        if spec[1] == 0:
            return
        # The blob section ends one byte short of the column.
        corrupt = _join(header, blobs[: spec[0] + spec[1] - 1])
    else:
        options = _corruptions(spec, len(blobs))
        header["result"]["column"][protocol.BLOB_KEY] = (
            options[which % len(options)]
        )
        corrupt = _join(header, blobs)
    with pytest.raises(ProtocolError):
        read_async(corrupt)
    with pytest.raises(ProtocolError):
        read_blocking(corrupt)


def test_extra_key_beside_a_reference_raises():
    frame = protocol.encode_frame({"c": np.arange(3)})
    header, blobs = _split(frame)
    header["c"]["x"] = 1
    with pytest.raises(ProtocolError, match="malformed"):
        read_async(_join(header, blobs))


def test_plain_json_with_newlines_is_a_json_frame():
    """A JSON payload from a non-compact encoder is still one frame."""
    message = {"op": "health", "v": 4, "nested": {"a": [1, 2]}}
    for text in (json.dumps(message, indent=2), json.dumps(message) + "\n"):
        payload = text.encode()
        frame = len(payload).to_bytes(4, "big") + payload
        assert read_async(frame) == message
        assert read_blocking(frame) == message

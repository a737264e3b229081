"""What the router's wire cache stores and merges: owned numpy columns."""

import numpy as np
import pytest

from repro.cluster.merge import pack_wire, unpack_wire
from repro.serve import protocol

WIRE_DTYPES = {
    "rows": np.int64,
    "ids": np.uint32,
    "timecodes": np.float64,
    "fingerprints": np.uint8,
}


def _decoded_reply(wire: dict) -> dict:
    """*wire*, with its columns in their wire dtypes, as a reply decodes
    it: arrays over the frame."""
    wire = {
        k: np.asarray(v, dtype=WIRE_DTYPES[k]) if k in WIRE_DTYPES else v
        for k, v in wire.items()
    }
    frame = protocol.encode_frame({"results": [wire]})
    return protocol._decode_payload(frame[4:])["results"][0]


def _assert_columns_equal(got: dict, wire: dict) -> None:
    assert got.keys() == wire.keys()
    assert got["count"] == wire["count"]
    for name, dtype in WIRE_DTYPES.items():
        if name in wire:
            assert got[name].dtype == dtype
            assert np.array_equal(
                got[name], np.asarray(wire[name], dtype=dtype)
            )


@pytest.mark.parametrize("with_fingerprints", [False, True])
def test_packed_wire_round_trips(with_fingerprints):
    wire = {
        "count": 3,
        "rows": [7, 2**40, 0],
        "ids": [4, 4, 2**32 - 1],
        "timecodes": [0.1, 5.0, 1e-300],
    }
    if with_fingerprints:
        wire["fingerprints"] = [[0, 255, 17], [1, 2, 3], [9, 9, 9]]
    packed = pack_wire(_decoded_reply(wire))
    assert all(c is None or isinstance(c, np.ndarray) for c in packed)
    _assert_columns_equal(unpack_wire(packed), wire)
    # The cache holds owned columns, never views pinning a reply frame.
    reply = _decoded_reply({"count": 3, "rows": np.arange(3)})
    assert reply["rows"].base is not None
    (rows, *_) = pack_wire(reply)
    assert rows.base is None and rows.flags.owndata


def test_packed_empty_result_round_trips():
    wire = {"count": 0, "rows": [], "ids": [], "timecodes": [],
            "fingerprints": np.zeros((0, 3))}
    got = unpack_wire(pack_wire(_decoded_reply(wire)))
    assert got["count"] == 0
    for name in ("rows", "ids", "timecodes", "fingerprints"):
        assert got[name].size == 0
        assert got[name].dtype == WIRE_DTYPES[name]

"""What the router's wire cache stores: packed columns, not parsed JSON."""

import json

import numpy as np
import pytest

from repro.cluster.merge import pack_wire, unpack_wire


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
    packed = pack_wire(wire)
    assert all(c is None or isinstance(c, np.ndarray) for c in packed)
    assert unpack_wire(packed) == wire
    # Same JSON text: the merged answer stays byte-identical on a hit.
    assert json.dumps(unpack_wire(packed)) == json.dumps(wire)


def test_packed_empty_result_round_trips():
    wire = {"count": 0, "rows": [], "ids": [], "timecodes": [],
            "fingerprints": []}
    assert unpack_wire(pack_wire(wire)) == wire

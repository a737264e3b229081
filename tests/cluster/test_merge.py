"""What the router's merge returns: single-node order, in wire dtypes."""

import numpy as np
import pytest

from repro.cluster.merge import ShardMap, merge_query_wires
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


def _shard_map(shard: int, count: int, global_base: int) -> ShardMap:
    """A shard holding one sealed segment of *count* rows, which starts
    at *global_base* in the source index (and sits at source position
    *shard*)."""
    return ShardMap(
        shard=shard,
        local_bases=np.array([0]),
        local_ends=np.array([count]),
        global_bases=np.array([global_base]),
        source_pos=np.array([shard]),
        sealed_rows=count,
    )


def _assert_wire_dtypes(merged: dict, include_fingerprints: bool) -> None:
    for name, dtype in WIRE_DTYPES.items():
        if name == "fingerprints" and not include_fingerprints:
            assert name not in merged
        else:
            assert merged[name].dtype == dtype


@pytest.mark.parametrize("include_fingerprints", [False, True])
def test_empty_result_keeps_wire_dtypes(include_fingerprints):
    empty = _decoded_reply({
        "count": 0, "rows": [], "ids": [], "timecodes": [],
        "fingerprints": np.zeros((0, 3)),
    })
    for per_shard in ([], [(_shard_map(0, 10, 0), empty)]):
        merged = merge_query_wires(per_shard, 10, include_fingerprints)
        assert merged["count"] == 0
        _assert_wire_dtypes(merged, include_fingerprints)
        for name in ("rows", "ids", "timecodes"):
            assert merged[name].size == 0


@pytest.mark.parametrize("include_fingerprints", [False, True])
def test_shards_merge_into_single_node_order(include_fingerprints):
    """Sealed parts follow source position, whatever order the shards
    answer in; memtable rows come last, renumbered past every sealed
    row."""
    first, second = _shard_map(0, 10, 0), _shard_map(1, 5, 10)

    def reply(rows, ids):
        wire = {
            "count": len(rows), "rows": rows, "ids": ids,
            "timecodes": [float(i) for i in ids],
        }
        if include_fingerprints:
            wire["fingerprints"] = [[i, 255 - i, 7] for i in ids]
        return _decoded_reply(wire)

    merged = merge_query_wires(
        [
            (second, reply([3, 5], [30, 50])),  # 5: its memtable
            (first, reply([7, 2], [70, 20])),
        ],
        15,
        include_fingerprints,
    )
    assert merged["count"] == 4
    assert merged["rows"].tolist() == [7, 2, 13, 15]
    assert merged["ids"].tolist() == [70, 20, 30, 50]
    assert merged["timecodes"].tolist() == [70.0, 20.0, 30.0, 50.0]
    if include_fingerprints:
        assert merged["fingerprints"].tolist() == [
            [i, 255 - i, 7] for i in (70, 20, 30, 50)
        ]
    _assert_wire_dtypes(merged, include_fingerprints)

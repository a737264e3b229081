"""Protocol v3 surface: liveness vs readiness, ingest dedupe, retries.

``health`` must distinguish a process that is *up* (live) from one that
is *serving* (ready) — supervisors route on the difference.  And every
ingest carries a ``request_id`` the server remembers, so a retry after
a broken connection is acknowledged from the original apply instead of
double-ingesting.
"""

import asyncio

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.index.segmented import SegmentedS3Index
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerThread,
)
from repro.serve import protocol
from repro.serve.server import DetectionServer

NDIMS = 8
SIGMA = 10.0


def make_index(tmp_path, rows=600):
    rng = np.random.default_rng(0)
    index = SegmentedS3Index.create(
        tmp_path / "live",
        ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=300,
        auto_compact=False,
    )
    fp = rng.integers(0, 256, size=(rows, NDIMS), dtype=np.uint8)
    index.add(fp, rng.integers(0, 5, rows).astype(np.uint32),
              rng.uniform(0, 10, rows))
    index.flush()
    return index


class TestReadiness:
    def test_loading_before_start(self, tmp_path):
        """A bound-but-warming server is live yet not ready."""
        server = DetectionServer(make_index(tmp_path), ServeConfig(port=0))

        async def probe():
            health = await server._op_health({})
            work = await server._dispatch(
                {"op": "query", "v": protocol.PROTOCOL_VERSION,
                 "fingerprints": [[0.0] * NDIMS]}
            )
            return health, work

        health, work = asyncio.run(probe())
        assert health["live"] is True
        assert health["ready"] is False
        assert health["status"] == "loading"
        assert work["ok"] is False
        assert work["error"]["code"] == protocol.ERR_NOT_READY
        server.index.close()

    def test_ready_after_start(self, tmp_path):
        with ServerThread(make_index(tmp_path), ServeConfig(port=0)) as t:
            with ServeClient(port=t.port) as client:
                health = client.health()
                assert health["live"] is True
                assert health["ready"] is True
                assert health["status"] == "ok"
                assert client.stats()["ready"] is True

    def test_not_ready_is_retryable(self):
        assert protocol.ERR_NOT_READY in protocol.RETRYABLE_CODES
        assert protocol.ERR_UNAVAILABLE in protocol.RETRYABLE_CODES
        assert protocol.ERR_OVERLOADED in protocol.RETRYABLE_CODES


class TestIngestDedupe:
    def test_same_request_id_applies_once(self, tmp_path):
        rng = np.random.default_rng(1)
        fp = rng.integers(0, 256, size=(5, NDIMS), dtype=np.uint8)
        ids = np.arange(5) + 100
        tcs = np.zeros(5)
        with ServerThread(make_index(tmp_path), ServeConfig(port=0)) as t:
            with ServeClient(port=t.port) as client:
                first = client.ingest(fp, ids, tcs, request_id="r-1")
                again = client.ingest(fp, ids, tcs, request_id="r-1")
                assert "deduped" not in first
                assert again["deduped"] is True
                # Replay answered with the original counts: nothing new
                # was applied by the second call.
                assert again["rows"] == first["rows"]
                assert again["pending_rows"] == first["pending_rows"]
                stats = client.stats()
                assert stats["ingest"]["deduped"] == 1

    def test_distinct_request_ids_both_apply(self, tmp_path):
        rng = np.random.default_rng(2)
        fp = rng.integers(0, 256, size=(3, NDIMS), dtype=np.uint8)
        ids = np.arange(3)
        tcs = np.zeros(3)
        with ServerThread(make_index(tmp_path), ServeConfig(port=0)) as t:
            with ServeClient(port=t.port) as client:
                first = client.ingest(fp, ids, tcs)  # generated ids
                second = client.ingest(fp, ids, tcs)
                assert second["pending_rows"] == first["pending_rows"] + 3

    def test_invalid_request_id_rejected(self, tmp_path):
        with pytest.raises(protocol.ProtocolError, match="request_id"):
            protocol.request_dedupe_id({"request_id": 42})
        with pytest.raises(protocol.ProtocolError, match="request_id"):
            protocol.request_dedupe_id({"request_id": ""})
        with pytest.raises(protocol.ProtocolError, match="request_id"):
            protocol.request_dedupe_id(
                {"request_id": "x" * (protocol.MAX_REQUEST_ID_LEN + 1)}
            )
        assert protocol.request_dedupe_id({}) is None
        assert protocol.request_dedupe_id({"request_id": "ok"}) == "ok"

"""Serving a tiered index: bit-identity over the wire + degradation.

The satellite contract: a cold-fetch failure surfaces as the retryable
``unavailable`` wire code — never a crash, never a silent wrong answer
— and the default client's retry loop rides through transient backend
faults transparently.
"""

import os

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.index.segmented import SegmentedS3Index
from repro.serve import ServeClient, ServeConfig, ServerThread, protocol
from repro.serve.client import ServerError
from repro.storage import (
    BLOB_SUFFIX,
    FakeBlobBackend,
    FileBlobBackend,
    StorageConfig,
)

NDIMS = 8
SIGMA = 20.0


@pytest.fixture
def archive(tmp_path):
    rng = np.random.default_rng(1)
    index = SegmentedS3Index.create(
        tmp_path / "srv", ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=10 ** 9, auto_compact=False,
    )
    for i in range(3):
        fps = rng.integers(0, 256, size=(400, NDIMS), dtype=np.uint8)
        index.add(fps, np.full(400, i, dtype=np.uint32),
                  np.arange(400, dtype=np.float64))
        index.flush()
    index.close()
    return tmp_path / "srv"


def reference_query(archive):
    with SegmentedS3Index.open(archive) as ref:
        fp, _id, _tc = ref.record(7)
        q = fp[None, :].astype(np.float64)
        res = ref.statistical_query(fp.astype(np.float64), alpha=0.8)
    return q, res


class TestTieredServe:
    def test_wire_results_match_all_ram(self, archive):
        q, ref = reference_query(archive)
        backend = FakeBlobBackend()
        index = SegmentedS3Index.open(
            archive,
            storage=StorageConfig(budget_bytes=1, backend=backend),
        )
        assert all(s.meta.tier == "cold" for s in index._segments)
        with ServerThread(index, ServeConfig(port=0, cache="off")) as srv:
            with ServeClient(port=srv.port) as client:
                got = client.query(q)[0]
        assert np.array_equal(np.sort(got.rows), np.sort(ref.rows))
        assert np.array_equal(np.sort(got.ids), np.sort(ref.ids))
        assert np.array_equal(
            np.sort(got.timecodes), np.sort(ref.timecodes)
        )

    def test_cold_fetch_failure_is_retryable_unavailable(self, archive):
        q, ref = reference_query(archive)
        backend = FakeBlobBackend()
        index = SegmentedS3Index.open(
            archive,
            storage=StorageConfig(budget_bytes=1, backend=backend),
        )
        config = ServeConfig(port=0, cache="off")
        with ServerThread(index, config) as srv:
            # Raw view with retries disabled: the wire code must be the
            # retryable ``unavailable``, per the serve contract.
            backend.fail_reads = 1
            with ServeClient(port=srv.port, retries=0) as raw:
                with pytest.raises(ServerError) as err:
                    raw.query(q)
            assert err.value.code == protocol.ERR_UNAVAILABLE
            assert err.value.code in protocol.RETRYABLE_CODES

            # Default client: transparent recovery once the fault
            # budget is spent.  No crash, no wrong answer.
            backend.fail_reads = 2
            with ServeClient(port=srv.port) as client:
                got = client.query(q)[0]
                assert np.array_equal(np.sort(got.ids), np.sort(ref.ids))

                stats = client.stats()
            assert stats["errors"].get(protocol.ERR_UNAVAILABLE, 0) >= 3
            storage = stats["storage"]
            assert storage["tiered"]
            assert storage["tiers"]["cold"]["segments"] == 3
            assert storage["manager"]["counters"]["cold_errors"] >= 3
            assert storage["manager"]["budget_bytes"] == 1

    def test_truncated_blob_is_retryable_unavailable(self, archive, tmp_path):
        """Torn data on a real file: a blob cut short under
        ``FileBlobBackend`` must come back as the retryable wire code."""
        q, _ = reference_query(archive)
        cold = tmp_path / "cold"
        index = SegmentedS3Index.open(
            archive,
            storage=StorageConfig(budget_bytes=1, cold_dir=str(cold)),
        )
        assert isinstance(index.storage.backend, FileBlobBackend)
        assert all(s.meta.tier == "cold" for s in index._segments)
        for blob in cold.glob("*" + BLOB_SUFFIX):
            os.truncate(blob, blob.stat().st_size // 2)
        with ServerThread(index, ServeConfig(port=0, cache="off")) as srv:
            with ServeClient(port=srv.port, retries=0) as raw:
                with pytest.raises(ServerError) as err:
                    raw.query(q)
                stats = raw.stats()
        assert err.value.code == protocol.ERR_UNAVAILABLE
        assert err.value.code in protocol.RETRYABLE_CODES
        assert stats["storage"]["manager"]["counters"]["cold_errors"] >= 1

    def test_health_reports_tiers(self, archive):
        backend = FakeBlobBackend()
        index = SegmentedS3Index.open(
            archive,
            storage=StorageConfig(budget_bytes=None, backend=backend),
        )
        with ServerThread(index, ServeConfig(port=0)) as srv:
            with ServeClient(port=srv.port) as client:
                health = client.health()
        summary = health["index"]
        assert summary["storage"]["tiered"]
        assert {s["tier"] for s in summary["segments"]} == {"hot"}

"""Serve-side ingest pipeline: durability config, backpressure over the
wire, exact cached answers across memtable-only ingests.

The serving contract for the pipelined write path:

* ``ServeConfig`` validates the durability mode with a friendly
  message, mirroring the CLI;
* an ingest refused by backpressure surfaces as the retryable
  ``unavailable`` wire code — the write never touched the WAL, so a
  capped-backoff retry is safe;
* a memtable-only ingest invalidates cached query results, and a
  repeated query still answers exactly;
* ``serve stats`` exposes the ingest-pressure block and the
  engine-lane stall histogram.
"""

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.errors import ConfigurationError
from repro.index.segmented import SegmentedS3Index
from repro.index.store import FingerprintStore
from repro.serve import ServeClient, ServeConfig, ServerError, ServerThread
from repro.serve import protocol

NDIMS = 8
SIGMA = 10.0


def make_records(n, seed=0):
    rng = np.random.default_rng(seed)
    fp = rng.integers(0, 256, size=(n, NDIMS)).astype(np.uint8)
    ids = rng.integers(0, 50, n).astype(np.uint32)
    tcs = rng.uniform(0, 500, n)
    return fp, ids, tcs


def make_index(tmp_path, **kwargs):
    kwargs.setdefault("flush_rows", 10 ** 9)
    kwargs.setdefault("auto_compact", False)
    kwargs.setdefault("durability", "async")
    index = SegmentedS3Index.create(
        tmp_path / "live", ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, SIGMA), **kwargs,
    )
    index.add(*make_records(300, seed=0))
    return index


class TestServeConfigValidation:
    def test_bad_durability_is_friendly(self):
        with pytest.raises(ConfigurationError) as exc:
            ServeConfig(durability="fsync-sometimes")
        message = str(exc.value)
        assert "ServeConfig.durability" in message
        assert "group" in message  # the valid modes are spelled out


class TestBackpressureOverTheWire:
    def test_shed_is_retryable_unavailable(self, tmp_path):
        # The shed limit is 4 * flush_rows = 400 unsealed rows; the 300
        # seeded rows were sealed inline before the server started.
        index = make_index(tmp_path, flush_rows=100)
        config = ServeConfig(port=0, cache="off")
        with ServerThread(index, config) as server:
            with ServeClient(port=server.port, retries=0) as client:
                # Holding the maintenance lock keeps the requested seal
                # from running, so the limit is reached deterministically.
                with index._maint_lock:
                    # Under the limit: lands durably.
                    reply = client.ingest(*make_records(400, seed=1))
                    assert reply["added"] == 400
                    # 400 pending rows reach the limit: the next write
                    # is refused before touching the WAL.
                    with pytest.raises(ServerError) as err:
                        client.ingest(*make_records(10, seed=2))
                assert err.value.code == protocol.ERR_UNAVAILABLE
                assert err.value.code in protocol.RETRYABLE_CODES

                # The shed requested a background seal; once the worker
                # drains, ingest resumes without losing anything.
                assert index.maintenance is not None
                assert index.maintenance.drain()
                reply = client.ingest(*make_records(10, seed=2))
                assert reply["added"] == 10

                stats = client.stats()
            ingest = stats["ingest"]
            assert ingest["writable"]
            assert ingest["backpressure_sheds"] >= 1
            assert ingest["maintenance"]["seals"] >= 1
            assert stats["config"]["durability"] == "async"
            assert "engine_stall" in stats["batcher"]

    def test_no_maintenance_mode_seals_inline(self, tmp_path):
        index = make_index(tmp_path, flush_rows=200)
        config = ServeConfig(port=0, cache="off", maintenance=False)
        with ServerThread(index, config) as server:
            with ServeClient(port=server.port) as client:
                client.ingest(*make_records(250, seed=3))
                stats = client.stats()
            assert stats["ingest"]["maintenance"] is None
            # The inline seal ran on the ingest path, as before the
            # pipelined write path existed.
            assert stats["ingest"]["memtable_rows"] < 300
        assert index.num_segments >= 1


class TestCacheAcrossIngest:
    def test_served_results_exact_across_memtable_ingest(self, tmp_path):
        """End to end: cache on, ingest, repeat query — still exact."""
        index = make_index(tmp_path)
        store = FingerprintStore(*make_records(300, seed=0))
        query = store.fingerprints[7].astype(np.float64)
        config = ServeConfig(port=0, cache="auto")
        with ServerThread(index, config) as server:
            with ServeClient(port=server.port) as client:
                before = client.query(query)[0]
                client.ingest(*make_records(50, seed=9))
                after = client.query(query)[0]
                stats = client.stats()
        # The pre-ingest rows still match identically (the ingest only
        # appended).
        assert set(zip(before.ids, before.timecodes)) <= set(
            zip(after.ids, after.timecodes)
        )
        assert stats["cache"]["invalidations"] >= 1

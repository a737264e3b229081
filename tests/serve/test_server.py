"""Service-level tests: wire equivalence, shedding, graceful drain.

The acceptance property: K concurrent clients querying over a socket
receive results **bit-identical** to K solo in-process
``statistical_query`` calls in deterministic mode — against both the
monolithic and the segmented index.
"""

import threading

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.index.s3 import S3Index
from repro.index.segmented import SegmentedS3Index
from repro.index.store import FingerprintStore
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerError,
    ServerThread,
    ServiceUnavailable,
)

NDIMS = 8
ALPHA = 0.8
SIGMA = 10.0
NUM_CLIENTS = 8
QUERIES_PER_CLIENT = 6


def make_store(n, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.integers(40, 216, size=(8, NDIMS))
    assign = rng.integers(0, 8, size=n)
    fp = np.clip(
        centers[assign] + rng.normal(0, 10, (n, NDIMS)), 0, 255
    ).astype(np.uint8)
    return FingerprintStore(
        fp, rng.integers(0, 5, n).astype(np.uint32), rng.uniform(0, 100, n)
    )


@pytest.fixture(scope="module")
def store():
    return make_store(900)


def make_index(kind, store, tmp_path):
    model = NormalDistortionModel(NDIMS, SIGMA)
    if kind == "monolithic":
        return S3Index(store, model=model)
    index = SegmentedS3Index.create(
        tmp_path / "live", ndims=NDIMS, model=model, flush_rows=400
    )
    index.add(store.fingerprints, store.ids, store.timecodes)
    return index


def client_queries(store, seed):
    """A client's workload: distorted copies of stored fingerprints."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, len(store), QUERIES_PER_CLIENT)
    return np.clip(
        store.fingerprints[rows].astype(np.float64)
        + rng.normal(0, SIGMA, (QUERIES_PER_CLIENT, NDIMS)),
        0, 255,
    )


@pytest.mark.parametrize("kind", ["monolithic", "segmented"])
class TestWireEquivalence:
    def test_concurrent_clients_bit_identical_to_solo(
        self, kind, store, tmp_path
    ):
        index = make_index(kind, store, tmp_path)
        workloads = [
            client_queries(store, seed) for seed in range(NUM_CLIENTS)
        ]
        served = [None] * NUM_CLIENTS
        errors = []

        config = ServeConfig(
            port=0, alpha=ALPHA, max_batch=64, max_wait_ms=5.0
        )
        with ServerThread(index, config) as server:
            def run_client(i):
                try:
                    with ServeClient(port=server.port) as client:
                        served[i] = [
                            client.query(q, include_fingerprints=True)[0]
                            for q in workloads[i]
                        ]
                except Exception as exc:  # surfaced after join
                    errors.append((i, exc))

            threads = [
                threading.Thread(target=run_client, args=(i,))
                for i in range(NUM_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.server.stats_snapshot()

        assert not errors
        assert stats["batcher"]["queries"] == NUM_CLIENTS * QUERIES_PER_CLIENT
        for i, workload in enumerate(workloads):
            for j, query in enumerate(workload):
                expected = index.statistical_query(query, ALPHA)
                got = served[i][j]
                assert np.array_equal(got.rows, expected.rows)
                assert np.array_equal(got.ids, expected.ids)
                assert np.array_equal(got.timecodes, expected.timecodes)
                assert np.array_equal(
                    got.fingerprints, expected.fingerprints
                )


class TestOps:
    def test_health_stats_and_detect(self, store, tmp_path):
        index = make_index("monolithic", store, tmp_path)
        with ServerThread(index, ServeConfig(port=0, alpha=ALPHA)) as server:
            with ServeClient(port=server.port) as client:
                health = client.health()
                assert health["status"] == "ok"
                assert health["index"]["kind"] == "monolithic"
                assert health["index"]["rows"] == len(store)

                # A clip of consecutive referenced frames must be detected.
                rows = np.where(store.ids == store.ids[0])[0][:12]
                detections = client.detect(
                    store.fingerprints[rows].astype(np.float64),
                    store.timecodes[rows],
                    threshold=3,
                )
                assert any(
                    d["video_id"] == int(store.ids[0]) for d in detections
                )

                stats = client.stats()
                assert stats["requests"]["health"] == 1
                assert stats["requests"]["detect"] == 1
                assert stats["batcher"]["queries"] == len(rows)
                assert stats["latency"]["count"] >= 2

    def test_bad_requests_get_friendly_errors(self, store, tmp_path):
        index = make_index("monolithic", store, tmp_path)
        with ServerThread(index, ServeConfig(port=0, alpha=ALPHA)) as server:
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServerError, match="alpha"):
                    client._request({
                        "op": "query", "alpha": 0.5,
                        "fingerprints": [[0.0] * NDIMS],
                    })
                with pytest.raises(ServerError, match="unknown op"):
                    client._request({"op": "nope"})
                with pytest.raises(ServerError) as err:
                    client.ingest(
                        np.zeros((1, NDIMS)), np.zeros(1), np.zeros(1)
                    )
                assert "segmented" in str(err.value)
                # The connection survives every error above.
                assert client.health()["status"] == "ok"


class TestLoadShedding:
    def test_full_queue_sheds_with_explicit_error(self, store, tmp_path):
        index = make_index("monolithic", store, tmp_path)
        config = ServeConfig(port=0, alpha=ALPHA, queue_limit=0)
        with ServerThread(index, config) as server:
            client = ServeClient(
                port=server.port, retry_overloaded=False, retries=0
            )
            with client:
                with pytest.raises(ServerError) as err:
                    client.query(store.fingerprints[0].astype(np.float64))
                assert err.value.code == "overloaded"
                stats = client.stats()
                assert stats["batcher"]["shed"] >= 1
                assert stats["errors"]["overloaded"] >= 1

    def test_deadline_exceeded_while_queued(self, store, tmp_path):
        index = make_index("monolithic", store, tmp_path)
        config = ServeConfig(
            port=0, alpha=ALPHA, max_batch=64, max_wait_ms=50.0
        )
        with ServerThread(index, config) as server:
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServerError) as err:
                    client.query(
                        store.fingerprints[0].astype(np.float64),
                        deadline_ms=0.01,
                    )
                assert err.value.code == "deadline_exceeded"
                assert client.stats()["batcher"]["expired"] == 1


class TestGracefulShutdown:
    def test_drain_leaves_wal_replayable(self, store, tmp_path):
        index = make_index("segmented", store, tmp_path)
        extra = make_store(37, seed=99)
        with ServerThread(index, ServeConfig(port=0, alpha=ALPHA)) as server:
            with ServeClient(port=server.port) as client:
                reply = client.ingest(
                    extra.fingerprints, extra.ids, extra.timecodes
                )
                assert reply["added"] == len(extra)
                # Unsealed: these rows only exist in memtable + WAL.
                assert reply["pending_rows"] > 0
        # The context exit drained and closed the WAL; reopening must
        # replay every acknowledged ingest.
        reopened = SegmentedS3Index.open(tmp_path / "live")
        try:
            assert len(reopened) == len(store) + len(extra)
        finally:
            reopened.close()

    def test_stopped_server_refuses_connections(self, store, tmp_path):
        index = make_index("monolithic", store, tmp_path)
        with ServerThread(index, ServeConfig(port=0, alpha=ALPHA)) as server:
            port = server.port
        with pytest.raises(ServiceUnavailable):
            with ServeClient(port=port, retries=1, backoff=0.01) as client:
                client.health()


class TestClientRetries:
    def test_unreachable_raises_after_backoff(self):
        client = ServeClient(port=1, retries=2, backoff=0.01)
        with pytest.raises(ServiceUnavailable, match="3 attempt"):
            client.health()

"""Version 4 against live servers: negotiation, input checks, detect.

* Only a version-4 request gets its result columns as blobs: a v4
  client against a server capped at version 3 negotiates down and gets
  JSON lists, and so does a v3 client against a v4 server — both with
  the same answers.
* Ingest values the store would wrap (bytes outside [0, 255], ids
  outside [0, 2**32), non-integers) and non-finite fingerprints or
  timecodes are refused with ``bad_request`` instead of being stored
  as other values or silently matching nothing.
* ``detect``'s vote runs off the event loop: a slow vote does not hold
  up another connection's ``health``.
"""

import threading
import time

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
    protocol,
)
from repro.serve import server as server_module

NDIMS = 4
ALPHA = 0.8


def make_store(n=300, seed=0):
    rng = np.random.default_rng(seed)
    fp = rng.integers(60, 80, size=(n, NDIMS)).astype(np.uint8)
    return FingerprintStore(
        fp, rng.integers(0, 5, n).astype(np.uint32), rng.uniform(0, 100, n)
    )


@pytest.fixture(scope="module")
def store():
    return make_store()


@pytest.fixture
def served(store):
    index = S3Index(store, model=NormalDistortionModel(NDIMS, 5.0))
    with ServerThread(index, ServeConfig(port=0, alpha=ALPHA)) as server:
        yield server


@pytest.fixture
def writable(tmp_path, store):
    index = SegmentedS3Index.create(
        tmp_path / "live", ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, 5.0),
    )
    index.add(store.fingerprints, store.ids, store.timecodes)
    with ServerThread(index, ServeConfig(port=0, alpha=ALPHA)) as server:
        yield server, index


@pytest.fixture
def replies(monkeypatch):
    """Every reply message the blocking client decodes."""
    seen = []
    recv = protocol.recv_message

    def spy(sock, max_frame=protocol.MAX_FRAME_BYTES):
        message = recv(sock, max_frame)
        seen.append(message)
        return message

    monkeypatch.setattr(protocol, "recv_message", spy)
    return seen


def _queries(store):
    return store.fingerprints[:3].astype(np.float64)


def _column_types(reply: dict) -> set:
    return {
        type(wire[name])
        for wire in reply["result"]["results"]
        for name in ("rows", "ids", "timecodes", "fingerprints")
    }


def _assert_same_answers(a, b):
    for x, y in zip(a, b, strict=True):
        for name in ("rows", "ids", "timecodes", "fingerprints"):
            got, want = getattr(x, name), getattr(y, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestNegotiation:
    def test_v4_client_gets_blob_columns(self, served, store, replies):
        with ServeClient(port=served.port) as client:
            results = client.query(_queries(store), include_fingerprints=True)
        assert _column_types(replies[-1]) == {np.ndarray}
        for result in results:
            for name in ("rows", "ids", "timecodes", "fingerprints"):
                assert getattr(result, name).flags.writeable
            assert result.fingerprints.shape == (len(result), NDIMS)

    def test_v4_client_against_v3_server_gets_lists(
        self, served, store, replies, monkeypatch
    ):
        with ServeClient(port=served.port) as client:
            expected = client.query(_queries(store), include_fingerprints=True)
            assert client.protocol_version == protocol.BLOB_VERSION
            # The server now speaks at most version 3.
            monkeypatch.setattr(protocol, "PROTOCOL_VERSION", 3)
            got = client.query(_queries(store), include_fingerprints=True)
            assert client.protocol_version == 3
        refused, answered = replies[-2:]
        assert refused["error"]["code"] == protocol.ERR_VERSION
        assert refused["error"]["max_version"] == 3
        assert answered["v"] == 3
        assert _column_types(answered) == {list}
        _assert_same_answers(got, expected)

    def test_v3_client_against_v4_server_gets_lists(
        self, served, store, replies
    ):
        with ServeClient(port=served.port) as client:
            expected = client.query(_queries(store), include_fingerprints=True)
            client.protocol_version = 3
            got = client.query(_queries(store), include_fingerprints=True)
        assert _column_types(replies[-1]) == {list}
        assert replies[-1]["v"] == protocol.PROTOCOL_VERSION
        _assert_same_answers(got, expected)


class TestInputChecks:
    def test_out_of_range_ingest_refused(self, writable):
        server, index = writable
        rows = len(index)
        with ServeClient(port=server.port) as client:
            bad = [
                ([[300, 1, 2, 10]], [1], [0.0]),
                ([[-5, 1, 2, 10]], [1], [0.0]),
                ([[2.7, 1, 2, 10]], [1], [0.0]),
                ([[1, 2, 3, 4]], [-1], [0.0]),
                ([[1, 2, 3, 4]], [2**32], [0.0]),
                ([[1, 2, 3, 4]], [1.5], [0.0]),
                ([[1, 2, 3, 4]], [1], [float("nan")]),
                ([[1, 2, 3, 4]], [1], [float("inf")]),
                ([[float("nan"), 2, 3, 4]], [1], [0.0]),
            ]
            for fingerprints, ids, timecodes in bad:
                with pytest.raises(ServerError) as err:
                    # Raw values: the client would cast the ids first.
                    client._request({
                        "op": "ingest", "fingerprints": fingerprints,
                        "ids": ids, "timecodes": timecodes,
                    })
                assert err.value.code == protocol.ERR_BAD_REQUEST
            # The edges of the ranges are storable.
            added = client.ingest(
                np.array([[0, 255, 7, 9]], dtype=np.float64),
                np.array([2**32 - 1]), np.array([1.5]),
            )
        assert added["added"] == 1
        assert len(index) == rows + 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_query_refused(self, served, value):
        with ServeClient(port=served.port) as client:
            with pytest.raises(ServerError) as err:
                client.query(np.array([value, 1.0, 2.0, 3.0]))
            assert err.value.code == protocol.ERR_BAD_REQUEST
            with pytest.raises(ServerError) as err:
                client.detect(np.array([[1.0, value, 2.0, 3.0]]), [0.0])
            assert err.value.code == protocol.ERR_BAD_REQUEST
            with pytest.raises(ServerError) as err:
                client.detect(np.array([[1.0, 1.0, 2.0, 3.0]]), [value])
            assert err.value.code == protocol.ERR_BAD_REQUEST
            # Off the byte grid is fine for a query: a distorted copy is.
            client.query(np.array([-3.5, 1.0, 300.25, 3.0]))


def slow_vote(monkeypatch, module, seconds=0.5) -> threading.Event:
    """Make *module*'s ``vote`` sleep first; the event fires when it starts."""
    started = threading.Event()
    vote = module.vote

    def sleepy(*args, **kwargs):
        started.set()
        time.sleep(seconds)
        return vote(*args, **kwargs)

    monkeypatch.setattr(module, "vote", sleepy)
    return started


def assert_health_answers_during_vote(port, started, detect) -> None:
    worker = threading.Thread(target=detect)
    worker.start()
    try:
        assert started.wait(10.0)
        with ServeClient(port=port) as probe:
            t0 = time.perf_counter()
            assert probe.health()["live"]
            elapsed = time.perf_counter() - t0
    finally:
        worker.join()
    assert elapsed < 0.2, f"health took {elapsed:.3f}s behind a vote"


def test_detect_vote_runs_off_the_event_loop(served, store, monkeypatch):
    started = slow_vote(monkeypatch, server_module)

    def detect():
        with ServeClient(port=served.port) as client:
            client.detect(_queries(store), np.arange(3.0))

    assert_health_answers_during_vote(served.port, started, detect)

"""Version 4 against live servers: encodings, input checks, detect.

* The client sends its request columns as blobs and reads the reply's
  as blobs.  A request whose columns are hand-written JSON lists gets
  the same answers, bit for bit, for ``query``, ``detect`` and
  ``ingest``, and for a ``query`` that carries its selected ``blocks``
  (which answers as the same query without them).
* Ingest values the store would wrap (bytes outside [0, 255], ids
  outside [0, 2**32), non-integers) and non-finite fingerprints or
  timecodes are refused with ``bad_request`` instead of being stored
  as other values or silently matching nothing, in either encoding.
  So are a ``deadline_ms`` that is not a finite positive number and a
  ``threshold`` that is not a non-negative integer.
* Unknown ops count under one ``stats.requests`` key.
* ``detect``'s vote runs off the event loop: a slow vote does not hold
  up another connection's ``health``.
"""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.index.filtering import statistical_blocks_multi
from repro.index.s3 import S3Index
from repro.index.segmented import SegmentedS3Index
from repro.index.store import FingerprintStore
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerError,
    ServerThread,
    WireResult,
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


@contextlib.contextmanager
def writable_server(directory, store):
    index = SegmentedS3Index.create(
        directory, ndims=NDIMS, model=NormalDistortionModel(NDIMS, 5.0),
    )
    index.add(store.fingerprints, store.ids, store.timecodes)
    with ServerThread(index, ServeConfig(port=0, alpha=ALPHA)) as server:
        yield server, index


@pytest.fixture
def writable(tmp_path, store):
    with writable_server(tmp_path / "live", store) as served:
        yield served


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
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def as_lists(message: dict) -> dict:
    """*message* with every numpy column, nested ones too, written as a
    JSON list."""
    return {
        key: value.tolist() if isinstance(value, np.ndarray)
        else as_lists(value) if isinstance(value, dict) else value
        for key, value in message.items()
    }


def assert_request_encodings_agree(
    client, queries, timecodes, blocks=None
) -> None:
    """``query`` and ``detect`` answer list-encoded requests exactly as
    the client's blob-encoded ones; with *blocks* (the queries' wire
    ``blocks``), so does a ``query`` that carries them, in either
    encoding, and as the query without them."""
    blobs = client.query(queries, include_fingerprints=True)
    assert any(len(result) for result in blobs)
    query = {
        "op": "query", "fingerprints": queries, "include_fingerprints": True,
    }
    shipped = [] if blocks is None else [{**query, "blocks": blocks}]
    for request in [as_lists(query), *shipped, *map(as_lists, shipped)]:
        reply = client._request(request)
        _assert_same_answers(
            [WireResult.from_wire(wire) for wire in reply["results"]], blobs
        )
    detections = client.detect(queries, timecodes, threshold=1)
    assert detections
    assert client._request(as_lists({
        "op": "detect", "fingerprints": queries, "timecodes": timecodes,
        "threshold": 1,
    }))["detections"] == detections


def assert_refused(client, message: dict) -> None:
    with pytest.raises(ServerError) as err:
        client._request(message)
    assert err.value.code == protocol.ERR_BAD_REQUEST, err.value


def assert_unusable_deadlines_refused(client, query) -> None:
    """NaN, infinities, booleans, strings, non-positive numbers and
    integers beyond float range are a ``bad_request``."""
    for deadline_ms in (float("nan"), float("inf"), -float("inf"), True,
                        "50", 0, -1.0, 10**400):
        assert_refused(client, as_lists({
            "op": "query", "fingerprints": query, "deadline_ms": deadline_ms,
        }))
    client.query(query, deadline_ms=30_000)


def assert_unusable_thresholds_refused(client, queries, timecodes) -> None:
    """A ``threshold`` is a non-negative integer, never coerced."""
    for threshold in ("x", 2.7, True, -1, None, [2]):
        assert_refused(client, as_lists({
            "op": "detect", "fingerprints": queries, "timecodes": timecodes,
            "threshold": threshold,
        }))
    assert client.detect(queries, timecodes, threshold=0)


class TestNegotiation:
    def test_v4_client_gets_blob_columns(
        self, served, store, replies, monkeypatch
    ):
        sent = []
        send = protocol.send_message
        monkeypatch.setattr(
            protocol, "send_message",
            lambda sock, message: (sent.append(message), send(sock, message)),
        )
        with ServeClient(port=served.port) as client:
            results = client.query(_queries(store), include_fingerprints=True)
        assert isinstance(sent[-1]["fingerprints"], np.ndarray)
        assert _column_types(replies[-1]) == {np.ndarray}
        for result in results:
            for name in ("rows", "ids", "timecodes", "fingerprints"):
                assert getattr(result, name).flags.writeable
            assert result.fingerprints.shape == (len(result), NDIMS)

    def test_list_and_blob_requests_answer_the_same(self, served, store):
        queries = _queries(store)
        index = S3Index(store, model=NormalDistortionModel(NDIMS, 5.0))
        selected = statistical_blocks_multi(
            queries, index.model, index.curve, index.depth, ALPHA
        )
        blocks = {
            "prefixes": selected.prefixes.astype(np.int64),
            "counts": selected.counts,
            "depth": selected.depth,
        }
        with ServeClient(port=served.port) as client:
            assert_request_encodings_agree(
                client, queries, np.arange(3.0), blocks
            )
            assert client.stats()["batcher"]["shipped"] == 6

    def test_list_and_blob_ingests_store_the_same(self, tmp_path, store):
        fresh = make_store(n=5, seed=9)
        ingest = {
            "fingerprints": fresh.fingerprints.astype(np.float64),
            "ids": fresh.ids.astype(np.int64),
            "timecodes": fresh.timecodes,
        }
        answers = []
        for name, encode in (("lists", as_lists), ("blobs", dict)):
            with writable_server(tmp_path / name, store) as (server, _):
                with ServeClient(port=server.port) as client:
                    added = client._request(encode(
                        {"op": "ingest", "request_id": name, **ingest}
                    ))
                    answers.append((added, client.query(
                        ingest["fingerprints"], include_fingerprints=True
                    )))
        (added_lists, got_lists), (added_blobs, got_blobs) = answers
        assert added_lists == added_blobs
        assert added_lists["added"] == 5
        _assert_same_answers(got_lists, got_blobs)


#: The two encodings of a request column: a blob, as the client sends
#: it, and a hand-written JSON list.
ENCODINGS = (np.asarray, lambda value: np.asarray(value).tolist())


class TestInputChecks:
    def test_out_of_range_ingest_refused(self, writable):
        server, index = writable
        rows = len(index)
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
        with ServeClient(port=server.port) as client:
            for encode in ENCODINGS:
                for fingerprints, ids, timecodes in bad:
                    # Raw values: the client would cast the ids first.
                    assert_refused(client, {
                        "op": "ingest", "fingerprints": encode(fingerprints),
                        "ids": encode(ids), "timecodes": encode(timecodes),
                    })
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
            for encode in ENCODINGS:
                assert_refused(client, {
                    "op": "query",
                    "fingerprints": encode([value, 1.0, 2.0, 3.0]),
                })
                assert_refused(client, {
                    "op": "detect",
                    "fingerprints": encode([[1.0, value, 2.0, 3.0]]),
                    "timecodes": encode([0.0]),
                })
                assert_refused(client, {
                    "op": "detect",
                    "fingerprints": encode([[1.0, 1.0, 2.0, 3.0]]),
                    "timecodes": encode([value]),
                })
            # Off the byte grid is fine for a query: a distorted copy is.
            client.query(np.array([-3.5, 1.0, 300.25, 3.0]))

    def test_unusable_deadline_refused(self, served, store):
        with ServeClient(port=served.port) as client:
            assert_unusable_deadlines_refused(client, _queries(store)[:1])

    def test_unusable_threshold_refused(self, served, store):
        with ServeClient(port=served.port) as client:
            assert_unusable_thresholds_refused(
                client, _queries(store), np.arange(3.0)
            )

    def test_unknown_ops_share_one_counter(self, served):
        with ServeClient(port=served.port) as client:
            for op in [f"bogus-{i}" for i in range(1000)] + [[1], {"a": 1}]:
                assert_refused(client, {"op": op})
            requests = client.stats()["requests"]
        assert requests == {server_module.UNKNOWN_OP: 1002, "stats": 1}


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

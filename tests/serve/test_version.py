"""Wire-protocol version: version 4 only, everything else refused.

Contracts under test:

* responses always carry the server's ``v``;
* a request without ``v``, or with any ``v`` but 4, gets an
  ``unsupported_version`` error frame advertising
  ``min_version = max_version = 4`` — not a hangup;
* the client raises that error as :class:`ServerError` without
  resending, and resends every other op after a transport failure,
  ``ingest`` included (the server dedupes it by ``request_id``).
"""

import socket
import threading

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.index.s3 import S3Index
from repro.index.store import FingerprintStore
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerError,
    ServerThread,
    protocol,
)

NDIMS = 8


@pytest.fixture(scope="module")
def index():
    rng = np.random.default_rng(0)
    fp = rng.integers(0, 256, size=(400, NDIMS)).astype(np.uint8)
    store = FingerprintStore(
        fp, rng.integers(0, 5, 400).astype(np.uint32),
        rng.uniform(0, 100, 400),
    )
    return S3Index(store, model=NormalDistortionModel(NDIMS, 10.0))


def raw_roundtrip(port, message):
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        protocol.send_message(sock, message)
        return protocol.recv_message(sock)


class TestFraming:
    def test_responses_carry_server_version(self):
        assert protocol.ok_response({}, {})["v"] == \
            protocol.PROTOCOL_VERSION
        assert protocol.error_response(None, "x", "y")["v"] == \
            protocol.PROTOCOL_VERSION

    def test_request_version_accepts_only_four(self):
        protocol.request_version({"op": "health", "v": 4})
        for bad in ({"op": "health"}, {"v": 3}, {"v": 5}, {"v": 4.0}):
            with pytest.raises(protocol.ProtocolError, match="version"):
                protocol.request_version(bad)

    @pytest.mark.parametrize("bad", ["2", 0, -1, 1.5, True, None])
    def test_request_version_rejects_non_integers(self, bad):
        with pytest.raises(protocol.ProtocolError, match="version"):
            protocol.request_version({"op": "health", "v": bad})

    def test_version_error_advertises_range(self):
        frame = protocol.version_error({"id": 7, "op": "health"}, 99)
        assert frame["ok"] is False
        assert frame["id"] == 7
        error = frame["error"]
        assert error["code"] == protocol.ERR_VERSION
        assert error["min_version"] == error["max_version"] == 4


class TestServerVersionGate:
    def test_request_without_version_gets_error_frame(self, index):
        with ServerThread(index, ServeConfig(port=0)) as server:
            response = raw_roundtrip(server.port, {"op": "health", "id": 1})
            assert response["ok"] is False
            assert response["id"] == 1
            assert response["v"] == protocol.PROTOCOL_VERSION
            error = response["error"]
            assert error["code"] == protocol.ERR_VERSION
            assert error["min_version"] == error["max_version"] == 4

    def test_current_version_is_served(self, index):
        with ServerThread(index, ServeConfig(port=0)) as server:
            response = raw_roundtrip(
                server.port,
                {"op": "health", "v": protocol.PROTOCOL_VERSION},
            )
            assert response["ok"]

    def test_future_version_gets_error_frame_with_range(self, index):
        with ServerThread(index, ServeConfig(port=0)) as server:
            # A later version, an earlier one, and a non-integer.
            for version in (99, 3, "4"):
                response = raw_roundtrip(
                    server.port, {"op": "health", "v": version, "id": 3}
                )
                assert response["ok"] is False
                assert response["id"] == 3
                error = response["error"]
                assert error["code"] == protocol.ERR_VERSION
                assert error["max_version"] == protocol.PROTOCOL_VERSION
                assert error["min_version"] == protocol.PROTOCOL_VERSION
            with ServeClient(port=server.port) as client:
                stats = client.stats()
        assert stats["errors"][protocol.ERR_VERSION] == 3

    def test_stats_carries_version_and_prefilter_block(self, index):
        with ServerThread(index, ServeConfig(port=0)) as server:
            with ServeClient(port=server.port) as client:
                stats = client.stats()
        assert stats["protocol_version"] == protocol.PROTOCOL_VERSION
        prefilter = stats["prefilter"]
        assert prefilter["mode"] in ("auto", "off")
        assert prefilter["segments_skipped"] >= 0
        assert prefilter["blocks_skipped"] >= 0
        assert stats["config"]["prefilter"] == prefilter["mode"]


class ScriptedServer:
    """A listener answering the frames it reads, in order, with
    *replies*; a ``None`` reply closes the connection unanswered."""

    def __init__(self, replies: list):
        self.frames: list = []
        self._replies = list(replies)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self._replies:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # closed
                return
            with conn:
                while self._replies:
                    try:
                        frame = protocol.recv_message(conn)
                    except (OSError, protocol.ProtocolError):
                        break
                    self.frames.append(frame)
                    reply = self._replies.pop(0)
                    if reply is None:
                        break
                    protocol.send_message(conn, reply)

    def close(self) -> None:
        self._listener.close()
        self._thread.join(5.0)


class TestClientVersion:
    def test_client_raises_on_version_error_without_resending(self):
        refusal = protocol.version_error({}, protocol.PROTOCOL_VERSION)
        server = ScriptedServer([refusal] * 3)
        try:
            with ServeClient(port=server.port, backoff=0.001) as client:
                with pytest.raises(ServerError) as err:
                    client.health()
        finally:
            server.close()
        assert err.value.code == protocol.ERR_VERSION
        assert len(server.frames) == 1
        assert server.frames[0]["v"] == protocol.PROTOCOL_VERSION

    def test_ingest_resent_after_transport_failure(self):
        """The first frame is dropped unanswered; the client resends it,
        ``request_id`` and all, and returns the second answer."""
        result = {"added": 2, "rows": 2, "pending_rows": 2,
                  "num_segments": 0}
        server = ScriptedServer([None, protocol.ok_response({}, result)])
        try:
            with ServeClient(port=server.port, backoff=0.001) as client:
                got = client.ingest(
                    np.zeros((2, NDIMS)), np.arange(2), np.zeros(2)
                )
        finally:
            server.close()
        assert got == result
        first, second = server.frames
        assert first["request_id"] == second["request_id"]
        assert first["op"] == second["op"] == "ingest"

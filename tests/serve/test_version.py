"""Wire-protocol versioning: advertisement, rejection, negotiation.

Version 2 added the ``v`` field itself plus the ``prefilter`` block of
the ``stats`` result.  Contracts under test:

* responses always carry the server's ``v``;
* a version-1 request (no ``v``) is served unchanged;
* a request from the future gets an ``unsupported_version`` error frame
  advertising ``min_version``/``max_version`` — not a hangup;
* the client lowers its version into the advertised range and resends
  transparently.
"""

import socket

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.index.s3 import S3Index
from repro.index.store import FingerprintStore
from repro.serve import ServeClient, ServeConfig, ServerThread, protocol

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

    def test_request_version_defaults_to_one(self):
        assert protocol.request_version({"op": "health"}) == 1
        assert protocol.request_version({"op": "health", "v": 2}) == 2

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
        assert error["min_version"] == protocol.MIN_PROTOCOL_VERSION
        assert error["max_version"] == protocol.PROTOCOL_VERSION


class TestServerVersionGate:
    def test_v1_request_without_field_is_served(self, index):
        with ServerThread(index, ServeConfig(port=0)) as server:
            response = raw_roundtrip(server.port, {"op": "health"})
            assert response["ok"]
            assert response["v"] == protocol.PROTOCOL_VERSION

    def test_current_version_is_served(self, index):
        with ServerThread(index, ServeConfig(port=0)) as server:
            response = raw_roundtrip(
                server.port,
                {"op": "health", "v": protocol.PROTOCOL_VERSION},
            )
            assert response["ok"]

    def test_future_version_gets_error_frame_with_range(self, index):
        with ServerThread(index, ServeConfig(port=0)) as server:
            response = raw_roundtrip(
                server.port, {"op": "health", "v": 99, "id": 3}
            )
            assert response["ok"] is False
            assert response["id"] == 3
            error = response["error"]
            assert error["code"] == protocol.ERR_VERSION
            assert error["max_version"] == protocol.PROTOCOL_VERSION
            assert error["min_version"] == protocol.MIN_PROTOCOL_VERSION

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


class TestClientNegotiation:
    def test_client_negotiates_down_and_resends(self, index):
        with ServerThread(index, ServeConfig(port=0)) as server:
            with ServeClient(port=server.port) as client:
                client.protocol_version = 99  # a client from the future
                health = client.health()
                assert health["status"] == "ok"
                # One round-trip later the client speaks the server's best.
                assert client.protocol_version == protocol.PROTOCOL_VERSION
                stats = client.stats()
                # Both attempts were counted; the first as a version error.
                assert stats["requests"]["health"] == 2
                assert stats["errors"][protocol.ERR_VERSION] == 1

    def test_negotiation_gives_up_without_advertisement(self):
        client = ServeClient()
        assert not client._negotiate_version({})
        assert not client._negotiate_version({"max_version": "two"})
        assert client.protocol_version == protocol.PROTOCOL_VERSION

    def test_negotiation_gives_up_on_disjoint_ranges(self):
        client = ServeClient()
        # Server only speaks versions far above ours: no common version.
        assert not client._negotiate_version(
            {"min_version": 50, "max_version": 60}
        )
        assert client.protocol_version == protocol.PROTOCOL_VERSION

    def test_negotiation_lowers_into_range(self):
        client = ServeClient()
        client.protocol_version = 99
        assert client._negotiate_version({"min_version": 1, "max_version": 2})
        assert client.protocol_version == 2

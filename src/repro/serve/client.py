"""Blocking wire client for the detection service.

A thin, dependency-free client over :mod:`.protocol`: one socket, one
request in flight, timeouts on every byte, and capped
exponential-backoff retries.  Two failure classes are retried:

* **transport failures** (connection refused/reset, truncated frame) —
  the socket is reconnected and the request resent.  This includes
  ``ingest``: every ingest carries a generated ``request_id`` the server
  dedupes, so a frame that was applied before the connection died is
  acknowledged, not re-applied;
* **transient server states** (``overloaded``, ``not_ready``,
  ``unavailable`` responses) — retried after backoff when
  ``retry_overloaded`` is set, which is the intended reaction to the
  server's explicit backpressure/warm-up signal.

Every request is stamped with protocol version 4 (``v``) and sends its
numpy columns as raw bytes.  A server that speaks another version
answers ``unsupported_version``, which raises like any other error.

Backoff for attempt *k* sleeps ``min(backoff_cap, backoff * 2**k)``
seconds.  Any other error response raises :class:`ServerError` carrying
the server's error code.
"""

from __future__ import annotations

import socket
import time
import uuid
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ReproError
from . import protocol


class ServiceUnavailable(ReproError):
    """The server could not be reached within the configured retries."""


class ServerError(ReproError):
    """The server answered with an error response."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


@dataclass
class WireResult:
    """One query's matches, parsed back into arrays.

    ``fingerprints`` is ``None`` unless the query was sent with
    ``include_fingerprints=True``.  :meth:`from_wire` takes the columns
    as a reply decodes them: arrays over the received buffer, which stay
    writable, already in their dtypes and shapes.
    """

    rows: np.ndarray
    ids: np.ndarray
    timecodes: np.ndarray
    fingerprints: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.rows.size)

    @classmethod
    def from_wire(cls, wire: dict) -> "WireResult":
        fingerprints = wire.get("fingerprints")
        if fingerprints is not None and not len(fingerprints):
            # Zero matches have no width to report: a server sends
            # (0, D), a router that asked no shard (0, 0).  One shape.
            fingerprints = np.zeros((0, 0), dtype=np.uint8)
        return cls(
            rows=wire["rows"],
            ids=wire["ids"].astype(np.int64),
            timecodes=wire["timecodes"],
            fingerprints=fingerprints,
        )


class ServeClient:
    """A blocking client for one detection server.

    Usable as a context manager; the connection is opened lazily and
    transparently re-opened after transport failures.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 10.0,
        retries: int = 4,
        backoff: float = 0.05,
        backoff_cap: float = 1.0,
        retry_overloaded: bool = True,
        max_frame: int = protocol.MAX_FRAME_BYTES,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.retry_overloaded = retry_overloaded
        self.max_frame = max_frame
        self._sock: Optional[socket.socket] = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        return self._sock

    def _sleep_backoff(self, attempt: int) -> None:
        time.sleep(min(self.backoff_cap, self.backoff * (2.0 ** attempt)))

    def _request(self, message: dict) -> dict:
        """Send one request; returns the ``result`` payload or raises.

        Every op may be resent after a transport failure: reads are
        idempotent, and the server dedupes a replayed ingest.
        """
        last_exc: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                sock = self._connect()
                protocol.send_message(
                    sock, {**message, "v": protocol.PROTOCOL_VERSION}
                )
                response = protocol.recv_message(sock, self.max_frame)
            except (OSError, protocol.ProtocolError) as exc:
                self.close()
                last_exc = exc
                if attempt >= self.retries:
                    raise ServiceUnavailable(
                        f"{self.host}:{self.port} failed after "
                        f"{attempt + 1} attempt(s): {exc}"
                    ) from exc
                self._sleep_backoff(attempt)
                continue
            if response.get("ok"):
                return response.get("result", {})
            error = response.get("error") or {}
            code = error.get("code", protocol.ERR_INTERNAL)
            if (
                code in protocol.RETRYABLE_CODES
                and self.retry_overloaded
                and attempt < self.retries
            ):
                self._sleep_backoff(attempt)
                continue
            raise ServerError(code, error.get("message", ""))
        raise ServiceUnavailable(
            f"{self.host}:{self.port} unreachable: {last_exc}"
        )

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def query(
        self,
        fingerprints: np.ndarray,
        include_fingerprints: bool = False,
        deadline_ms: Optional[float] = None,
        request_id=None,
    ) -> list[WireResult]:
        """Statistical queries for a ``(B, D)`` (or ``(D,)``) matrix."""
        message = {
            "op": "query",
            "fingerprints": protocol.fingerprints_to_wire(fingerprints),
        }
        if include_fingerprints:
            message["include_fingerprints"] = True
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        if request_id is not None:
            message["id"] = request_id
        result = self._request(message)
        return [WireResult.from_wire(w) for w in result["results"]]

    def detect(
        self,
        fingerprints: np.ndarray,
        timecodes: np.ndarray,
        threshold: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> list[dict]:
        """Run the full detection pipeline on candidate fingerprints."""
        message = {
            "op": "detect",
            "fingerprints": protocol.fingerprints_to_wire(fingerprints),
            "timecodes": np.asarray(timecodes, dtype=np.float64),
        }
        if threshold is not None:
            message["threshold"] = int(threshold)
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        return self._request(message)["detections"]

    def ingest(
        self,
        fingerprints: np.ndarray,
        ids: np.ndarray,
        timecodes: np.ndarray,
        request_id: Optional[str] = None,
    ) -> dict:
        """Durably add records to a segmented server.

        Every ingest is stamped with a ``request_id`` (generated unless
        given), so a transport failure is safely retried: the server
        dedupes a replayed frame and returns the original counts (with
        ``"deduped": true``).
        """
        message = {
            "op": "ingest",
            "fingerprints": protocol.fingerprints_to_wire(fingerprints),
            "ids": np.asarray(ids, dtype=np.int64),
            "timecodes": np.asarray(timecodes, dtype=np.float64),
            "request_id": request_id or uuid.uuid4().hex,
        }
        return self._request(message)

    def stats(self) -> dict:
        return self._request({"op": "stats"})

    def health(self) -> dict:
        return self._request({"op": "health"})

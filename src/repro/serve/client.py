"""Blocking wire client for the detection service.

A thin, dependency-free client over :mod:`.protocol`: one socket, one
request in flight, timeouts on every byte, and capped
exponential-backoff retries.  Two failure classes are retried:

* **transport failures** (connection refused/reset, truncated frame) —
  the socket is reconnected and the request resent.  Against protocol-3
  servers this includes ``ingest``: every ingest carries a generated
  ``request_id`` the server dedupes, so a frame that was applied before
  the connection died is acknowledged, not re-applied.  Against older
  servers (negotiated version < 3) a broken ingest is still *not*
  resent — they would apply it twice;
* **transient server states** (``overloaded``, ``not_ready``,
  ``unavailable`` responses) — retried after backoff when
  ``retry_overloaded`` is set, which is the intended reaction to the
  server's explicit backpressure/warm-up signal.

Requests carry the client's protocol version (``v``); if the server
answers ``unsupported_version`` and advertises a speakable range that
overlaps ours, the client silently negotiates down to the server's
``max_version`` and resends — so a newer client keeps working against
an older server without caller involvement.

Backoff for attempt *k* sleeps ``min(backoff_cap, backoff * 2**k)``
seconds.  Any other error response raises :class:`ServerError` carrying
the server's error code.
"""

from __future__ import annotations

import socket
import time
import uuid
from dataclasses import dataclass
from typing import Optional, Union

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
    as a version-4 reply decodes them (arrays over the received buffer,
    which stay writable) or as older replies' JSON lists.
    """

    rows: np.ndarray
    ids: np.ndarray
    timecodes: np.ndarray
    fingerprints: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.rows.size)

    @classmethod
    def from_wire(cls, wire: dict) -> "WireResult":
        fps = wire.get("fingerprints")
        if fps is None:
            fingerprints = None
        elif len(wire["rows"]):
            fingerprints = np.asarray(fps, dtype=np.uint8).reshape(
                len(wire["rows"]), -1
            )
        else:
            # reshape(0, -1) cannot infer a width from zero elements; a
            # zero-match query still carries fingerprints as an empty
            # matrix so callers can index it uniformly.
            fingerprints = np.zeros((0, 0), dtype=np.uint8)
        return cls(
            rows=np.asarray(wire["rows"], dtype=np.int64),
            ids=np.asarray(wire["ids"], dtype=np.int64),
            timecodes=np.asarray(wire["timecodes"], dtype=np.float64),
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
        #: Version stamped on outgoing requests; lowered automatically
        #: when a server advertises a smaller ``max_version``.
        self.protocol_version = protocol.PROTOCOL_VERSION
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

    def _request(
        self, message: dict, idempotent: Union[bool, int] = True
    ) -> dict:
        """Send one request; returns the ``result`` payload or raises.

        *idempotent* decides whether a request already on the wire may
        be resent after a transport failure.  An ``int`` value means
        "idempotent iff the currently negotiated protocol version is at
        least this" — evaluated per attempt, so an ingest that
        negotiates down to a pre-dedupe server mid-call loses its resend
        permission with the downgrade.
        """
        last_exc: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                sock = self._connect()
            except OSError as exc:
                # Connecting is always safe to retry: nothing was sent.
                self.close()
                last_exc = exc
                if attempt >= self.retries:
                    raise ServiceUnavailable(
                        f"{self.host}:{self.port} unreachable after "
                        f"{attempt + 1} attempt(s): {exc}"
                    ) from exc
                self._sleep_backoff(attempt)
                continue
            try:
                protocol.send_message(
                    sock, {**message, "v": self.protocol_version}
                )
                response = protocol.recv_message(sock, self.max_frame)
            except (OSError, protocol.ProtocolError) as exc:
                self.close()
                last_exc = exc
                resendable = (
                    idempotent
                    if isinstance(idempotent, bool)
                    else self.protocol_version >= idempotent
                )
                if not resendable or attempt >= self.retries:
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
            if code == protocol.ERR_VERSION and attempt < self.retries:
                negotiated = self._negotiate_version(error)
                if negotiated:
                    # Resend immediately at the agreed version.  Safe
                    # even for ingest: a version-rejected request was
                    # never applied.
                    continue
            raise ServerError(code, error.get("message", ""))
        raise ServiceUnavailable(
            f"{self.host}:{self.port} unreachable: {last_exc}"
        )

    def _negotiate_version(self, error: dict) -> bool:
        """Lower :attr:`protocol_version` into the server's advertised
        range; ``False`` when no common version exists (or the frame
        carries no usable advertisement)."""
        max_version = error.get("max_version")
        min_version = error.get("min_version", 1)
        if not isinstance(max_version, int) or not isinstance(
            min_version, int
        ):
            return False
        agreed = min(self.protocol_version, max_version)
        if agreed < max(min_version, 1) or agreed >= self.protocol_version:
            return False
        self.protocol_version = agreed
        return True

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
            "timecodes": np.asarray(timecodes, dtype=np.float64).tolist(),
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
        given), so against protocol-3 servers a transport failure is
        safely retried: the server dedupes a replayed frame and returns
        the original counts (with ``"deduped": true``).  Against older
        servers the request is never resent — they would double-apply —
        which was the only behaviour before version 3.
        """
        message = {
            "op": "ingest",
            "fingerprints": protocol.fingerprints_to_wire(fingerprints),
            "ids": np.asarray(ids, dtype=np.int64).tolist(),
            "timecodes": np.asarray(timecodes, dtype=np.float64).tolist(),
            "request_id": request_id or uuid.uuid4().hex,
        }
        return self._request(
            message, idempotent=protocol.INGEST_DEDUPE_VERSION
        )

    def stats(self) -> dict:
        return self._request({"op": "stats"})

    def health(self) -> dict:
        return self._request({"op": "health"})

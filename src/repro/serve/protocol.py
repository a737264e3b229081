"""Wire protocol of the detection service: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON::

    frame := uint32_be(len(payload)) || payload

Every payload is one JSON object.  Requests carry an ``op`` (one of
``query``, ``detect``, ``ingest``, ``stats``, ``health``) plus
op-specific fields, an optional client-chosen ``id`` echoed back in the
response, and an optional protocol version ``v`` (absent means
version 1, the pre-versioning wire format).  Responses carry ``ok``,
the server's ``v``, and either ``result`` or
``error = {"code", "message"}``.  A request whose ``v`` the server
cannot speak is answered with an ``unsupported_version`` error frame
advertising ``min_version``/``max_version``, and the client negotiates
down.  The full frame and field reference is ``docs/serving.md``.

JSON is exact for this workload: Python serialises floats with their
shortest round-tripping repr, so float64 fingerprints and timecodes
survive the wire bit for bit — the property the service's equivalence
guarantee rests on (tested in ``tests/serve/test_protocol.py``).

Both blocking-socket helpers (used by the client) and asyncio helpers
(used by the server) live here so the two sides share one framing
implementation.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Optional

import numpy as np

from ..errors import ReproError
from ..index.s3 import SearchResult

#: Frames larger than this are refused by both sides (a corrupted or
#: hostile length prefix must not trigger an unbounded allocation).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct("!I")

#: Current wire protocol version.  Version 2 added the version field
#: itself and the ``prefilter`` block of the ``stats`` result.  Version 3
#: adds replay-safe ingestion and the liveness/readiness split: an
#: ``ingest`` request may carry a client-generated ``request_id`` that
#: the server dedupes (a replayed frame returns the original counts with
#: ``"deduped": true``), ``health`` results carry ``live``/``ready``,
#: and servers may answer ``not_ready`` while loading.  The
#: request/response shapes of the five ops are otherwise unchanged, so
#: version-1 and version-2 clients interoperate (the server still
#: answers them; it simply never sees a ``request_id`` from them).
PROTOCOL_VERSION = 3

#: Oldest request version the server still accepts.
MIN_PROTOCOL_VERSION = 1

#: First version whose servers dedupe replayed ``ingest`` frames —
#: clients may only resend an ingest after a transport failure when the
#: negotiated version is at least this (older servers would apply the
#: frame twice; they reject a v3-stamped request outright, which is what
#: makes the gate safe).
INGEST_DEDUPE_VERSION = 3

#: Error codes a response's ``error.code`` may carry.
ERR_BAD_REQUEST = "bad_request"
ERR_OVERLOADED = "overloaded"
ERR_DEADLINE = "deadline_exceeded"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_NOT_READY = "not_ready"
ERR_UNAVAILABLE = "unavailable"
ERR_UNSUPPORTED = "unsupported"
ERR_VERSION = "unsupported_version"
ERR_INTERNAL = "internal"

#: Error codes that describe a transient server state: the request was
#: not applied and may be retried after backoff (the client does so when
#: ``retry_overloaded`` is set; the cluster router fails over instead).
RETRYABLE_CODES = frozenset(
    {ERR_OVERLOADED, ERR_NOT_READY, ERR_UNAVAILABLE}
)


class ProtocolError(ReproError):
    """A frame is malformed, truncated, oversized, or not valid JSON."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_frame(message: dict) -> bytes:
    """Serialise *message* into one length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LEN.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def _check_length(length: int, max_frame: int) -> None:
    if length > max_frame:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the "
            f"{max_frame}-byte limit"
        )


# ----------------------------------------------------------------------
# Blocking socket I/O (client side)
# ----------------------------------------------------------------------
def send_message(sock: socket.socket, message: dict) -> None:
    """Write one frame to a connected blocking socket."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(
    sock: socket.socket, max_frame: int = MAX_FRAME_BYTES
) -> dict:
    """Read one frame from a connected blocking socket."""
    header = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    _check_length(length, max_frame)
    return _decode_payload(_recv_exact(sock, length))


# ----------------------------------------------------------------------
# Asyncio stream I/O (server side)
# ----------------------------------------------------------------------
async def read_message(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME_BYTES
) -> Optional[dict]:
    """Read one frame; ``None`` on a clean EOF between frames."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            "connection closed mid-length-prefix"
        ) from exc
    (length,) = _LEN.unpack(header)
    _check_length(length, max_frame)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame "
            f"({len(exc.partial)}/{length} bytes read)"
        ) from exc
    return _decode_payload(payload)


async def write_message(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one frame and flush it."""
    writer.write(encode_frame(message))
    await writer.drain()


# ----------------------------------------------------------------------
# Message construction
# ----------------------------------------------------------------------
def request_version(request: dict) -> int:
    """The protocol version a request speaks (absent ``v`` means 1)."""
    version = request.get("v", 1)
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise ProtocolError(
            f"protocol version must be a positive integer, got {version!r}"
        )
    return version


#: Upper length bound of a client-chosen ``request_id`` (a uuid4 hex is
#: 32 characters; the bound only guards the dedupe table against abuse).
MAX_REQUEST_ID_LEN = 128


def request_dedupe_id(request: dict) -> Optional[str]:
    """The replay-dedupe ``request_id`` of a request, validated.

    Returns ``None`` when the field is absent (version-1/2 clients never
    send it); raises :class:`ProtocolError` when present but unusable.
    """
    request_id = request.get("request_id")
    if request_id is None:
        return None
    if (
        not isinstance(request_id, str)
        or not request_id
        or len(request_id) > MAX_REQUEST_ID_LEN
    ):
        raise ProtocolError(
            "request_id must be a non-empty string of at most "
            f"{MAX_REQUEST_ID_LEN} characters, got {request_id!r}"
        )
    return request_id


def ok_response(request: dict, result: dict) -> dict:
    return {
        "id": request.get("id"),
        "ok": True,
        "v": PROTOCOL_VERSION,
        "result": result,
    }


def error_response(
    request: Optional[dict],
    code: str,
    message: str,
    **extra,
) -> dict:
    """An error frame; ``extra`` fields land inside ``error`` (e.g. the
    ``min_version``/``max_version`` advertisement of ``ERR_VERSION``)."""
    return {
        "id": request.get("id") if request else None,
        "ok": False,
        "v": PROTOCOL_VERSION,
        "error": {"code": code, "message": message, **extra},
    }


def version_error(request: dict, version: int) -> dict:
    """The ``unsupported_version`` frame advertising the speakable range."""
    return error_response(
        request,
        ERR_VERSION,
        f"protocol version {version} is outside the supported range "
        f"[{MIN_PROTOCOL_VERSION}, {PROTOCOL_VERSION}]",
        min_version=MIN_PROTOCOL_VERSION,
        max_version=PROTOCOL_VERSION,
    )


# ----------------------------------------------------------------------
# numpy <-> wire conversions
# ----------------------------------------------------------------------
def fingerprints_to_wire(fingerprints: np.ndarray) -> list:
    """A ``(B, D)`` float query matrix as nested JSON-safe lists."""
    return np.asarray(fingerprints, dtype=np.float64).tolist()


def fingerprints_from_wire(value, ndims: int) -> np.ndarray:
    """Parse a request's ``fingerprints`` field into a ``(B, D)`` matrix."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"fingerprints are not numeric: {exc}") from exc
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != ndims:
        raise ProtocolError(
            f"fingerprints must be (B, {ndims}), got shape {arr.shape}"
        )
    return arr


def result_to_wire(
    result: SearchResult, include_fingerprints: bool = False
) -> dict:
    """One per-query :class:`SearchResult` as a JSON-safe dict.

    ``rows`` / ``ids`` / ``timecodes`` always travel; the matched
    fingerprint bytes only on request (they dominate the frame size).
    """
    wire = {
        "count": len(result),
        "rows": result.rows.tolist(),
        "ids": result.ids.tolist(),
        "timecodes": result.timecodes.tolist(),
    }
    if include_fingerprints:
        wire["fingerprints"] = result.fingerprints.tolist()
    return wire


def detections_to_wire(votes, threshold: int) -> list[dict]:
    """The votes reaching *threshold*, strongest first, as JSON-safe dicts."""
    return [
        {
            "video_id": int(v.video_id),
            "offset": float(v.offset),
            "nsim": int(v.nsim),
            "num_candidates": int(v.num_candidates),
        }
        for v in votes
        if v.nsim >= threshold
    ]

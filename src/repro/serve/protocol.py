"""Wire protocol of the detection service: length-prefixed frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of payload::

    frame   := uint32_be(len(payload)) || payload
    payload := header                        # versions 1-3, and requests
             | header || "\n" || blobs       # version-4 responses

The header is one compact UTF-8 JSON object.  Requests carry an ``op``
(one of ``query``, ``detect``, ``ingest``, ``stats``, ``health``) plus
op-specific fields, an optional client-chosen ``id`` echoed back in the
response, and an optional protocol version ``v`` (absent means
version 1, the pre-versioning wire format).  Responses carry ``ok``,
the server's ``v``, and either ``result`` or
``error = {"code", "message"}``.  A request whose ``v`` the server
cannot speak is answered with an ``unsupported_version`` error frame
advertising ``min_version``/``max_version``, and the client negotiates
down.  The full frame and field reference is ``docs/serving.md``.

Result columns are exact on the wire.  A response to a version-4
request carries each numpy column as raw little-endian bytes after the
header; the header names it in place with ``{"$blob": [offset, nbytes,
dtype, shape]}`` (offset into the blob section).  Compact JSON never
emits a raw newline, so the first ``\n`` ends the header, and a payload
without one is exactly a version-1 to 3 frame.  Older requests get the
columns as JSON lists instead, which are exact too: Python serialises
floats with their shortest round-tripping repr.  :func:`encode_frame`
makes that choice, the only place the wire form depends on the
version.  Both forms are held bit for bit in
``tests/serve/test_protocol.py`` and ``tests/serve/test_frame_property.py``.

Both blocking-socket helpers (used by the client) and asyncio helpers
(used by the server) live here so the two sides share one framing
implementation.
"""

from __future__ import annotations

import asyncio
import json
import math
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
#: and servers may answer ``not_ready`` while loading.  Version 4 sends
#: a query response's result columns as raw bytes after the JSON header
#: (see the module docstring).  Requests stay JSON, and the
#: request/response fields of the five ops are otherwise unchanged, so
#: older clients interoperate: the server answers each in its own
#: version's form.
PROTOCOL_VERSION = 4

#: Oldest request version the server still accepts.
MIN_PROTOCOL_VERSION = 1

#: First version whose servers dedupe replayed ``ingest`` frames —
#: clients may only resend an ingest after a transport failure when the
#: negotiated version is at least this (older servers would apply the
#: frame twice; they reject a v3-stamped request outright, which is what
#: makes the gate safe).
INGEST_DEDUPE_VERSION = 3

#: First version whose responses carry numpy columns as raw blobs.
BLOB_VERSION = 4

#: The only dtypes a blob may carry: ``rows`` (``<i8``), ``ids``
#: (``<u4``), ``timecodes`` (``<f8``) and ``fingerprints`` (``|u1``).
BLOB_DTYPES = frozenset({"<i8", "<u4", "<f8", "|u1"})

#: Key of the in-header reference to a blob.
BLOB_KEY = "$blob"

#: Blobs start on this byte alignment inside the payload.
_BLOB_ALIGN = 8

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
def _array_as_list(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def encode_frame(message: dict, version: int = 1) -> bytes:
    """Serialise *message* into one length-prefixed frame.

    numpy arrays in *message* travel as raw blobs to a peer speaking
    *version* >= :data:`BLOB_VERSION`, and as JSON lists to older ones.
    """
    if version < BLOB_VERSION:
        payload = json.dumps(
            message, separators=(",", ":"), default=_array_as_list
        ).encode("utf-8")
    else:
        payload = _encode_with_blobs(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LEN.pack(len(payload)) + payload


def _encode_with_blobs(message: dict) -> bytes:
    """The version-4 payload: JSON header, then ``\n`` and the blobs."""
    blobs: list = []
    size = 0

    def reference(obj):
        nonlocal size
        if not (
            isinstance(obj, np.ndarray)
            and obj.dtype.newbyteorder("<").str in BLOB_DTYPES
        ):
            return _array_as_list(obj)
        arr = np.ascontiguousarray(obj, dtype=obj.dtype.newbyteorder("<"))
        pad = -size % _BLOB_ALIGN
        if pad:
            blobs.append(bytes(pad))
        offset = size + pad
        blobs.append(arr.data)
        size = offset + arr.nbytes
        return {BLOB_KEY: [offset, arr.nbytes, arr.dtype.str, list(arr.shape)]}

    header = json.dumps(
        message, separators=(",", ":"), default=reference
    ).encode("utf-8")
    if not blobs:
        return header
    # Trailing spaces are JSON whitespace: they put the blob section,
    # which follows the newline, on the blob alignment.
    header += b" " * (-(len(header) + 1) % _BLOB_ALIGN)
    return b"".join([header, b"\n", *blobs])


def _parse_json(text, object_hook=None) -> dict:
    try:
        message = json.loads(text.decode("utf-8"), object_hook=object_hook)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _blob_array(ref: dict, blobs: memoryview) -> np.ndarray:
    """The array a header's blob reference names, every field checked."""
    try:
        (spec,) = ref.values()
        offset, nbytes, dtype, shape = spec
    except (TypeError, ValueError):
        raise ProtocolError(f"malformed blob reference {ref!r}") from None
    if not (isinstance(dtype, str) and dtype in BLOB_DTYPES):
        raise ProtocolError(f"blob dtype {dtype!r} is not one of "
                            f"{sorted(BLOB_DTYPES)}")
    if not (
        _is_count(offset) and _is_count(nbytes) and isinstance(shape, list)
        and all(_is_count(n) for n in shape)
    ):
        raise ProtocolError(f"malformed blob reference {ref!r}")
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    if nbytes != count * dtype.itemsize:
        raise ProtocolError(
            f"blob of {nbytes} bytes cannot hold shape {shape} of {dtype.str}"
        )
    if offset + nbytes > len(blobs):
        raise ProtocolError(
            f"blob [{offset}, {offset + nbytes}) overruns the "
            f"{len(blobs)}-byte blob section"
        )
    return np.frombuffer(
        blobs, dtype=dtype, count=count, offset=offset
    ).reshape(shape)


def _decode_payload(payload) -> dict:
    split = payload.find(b"\n")
    if split < 0:
        return _parse_json(payload)
    blobs = memoryview(payload)[split + 1:]

    def resolve(obj: dict):
        return _blob_array(obj, blobs) if BLOB_KEY in obj else obj

    try:
        return _parse_json(payload[:split], object_hook=resolve)
    except ProtocolError as exc:
        if not isinstance(exc.__cause__, json.JSONDecodeError):
            raise
    # No JSON object ends at the first newline: a plain JSON payload
    # with whitespace newlines, which only non-compact encoders emit.
    return _parse_json(payload)


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


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """*n* bytes into a fresh buffer, so arrays over it are writable."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:], min(n - got, 1 << 20))
        if not k:
            raise ProtocolError(
                f"connection closed mid-frame ({got}/{n} bytes read)"
            )
        got += k
    return buf


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


async def write_message(
    writer: asyncio.StreamWriter, message: dict, version: int = 1
) -> None:
    """Write one frame, encoded for a peer speaking *version*, and flush."""
    writer.write(encode_frame(message, version))
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


def reply_version(request: dict) -> int:
    """The version a reply to *request* is encoded for; 1 when the
    request's ``v`` is unusable (its reply is an error frame anyway)."""
    try:
        return request_version(request)
    except ProtocolError:
        return 1


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
    """Parse a request's ``fingerprints`` field into a finite ``(B, D)``
    matrix.  Query points may lie off the byte grid (a distorted copy
    does), so only NaN and infinities are refused."""
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
    if not np.isfinite(arr).all():
        raise ProtocolError("fingerprints must be finite (no NaN or inf)")
    return arr


def column_from_wire(value, count: int, name: str) -> np.ndarray:
    """Parse a request's per-fingerprint column *name* (``timecodes``,
    ``ids``): *count* finite float64 values."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{name} are not numeric: {exc}") from exc
    if arr.shape != (count,):
        raise ProtocolError(
            f"{name} must be ({count},) aligned with fingerprints, "
            f"got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ProtocolError(f"{name} must be finite (no NaN or inf)")
    return arr


def _integers_in(arr: np.ndarray, high: int, name: str) -> None:
    if not ((arr >= 0) & (arr < high) & (arr == np.floor(arr))).all():
        raise ProtocolError(
            f"{name} must be integers in [0, {high}): the store's "
            "columns would wrap any other value"
        )


def ingest_from_wire(
    request: dict, ndims: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An ``ingest`` request's ``(fingerprints, ids, timecodes)``, checked
    to be storable as they are: fingerprints integers in [0, 255], ids
    integers in [0, 2**32), timecodes finite.  A value the store's
    ``uint8``/``uint32`` columns would wrap is refused, not stored as
    some other value."""
    fingerprints = fingerprints_from_wire(request.get("fingerprints"), ndims)
    count = fingerprints.shape[0]
    ids = column_from_wire(request.get("ids", []), count, "ids")
    timecodes = column_from_wire(
        request.get("timecodes", []), count, "timecodes"
    )
    _integers_in(fingerprints, 256, "ingested fingerprints")
    _integers_in(ids, 2**32, "ids")
    return fingerprints.astype(np.uint8), ids.astype(np.int64), timecodes


def result_to_wire(
    result: SearchResult, include_fingerprints: bool = False
) -> dict:
    """One per-query :class:`SearchResult` as a wire dict of columns.

    ``rows`` / ``ids`` / ``timecodes`` always travel; the matched
    fingerprint bytes only on request (they dominate the frame size).
    :func:`encode_frame` sends the columns as blobs or lists.
    """
    wire = {
        "count": len(result),
        "rows": result.rows,
        "ids": result.ids,
        "timecodes": result.timecodes,
    }
    if include_fingerprints:
        wire["fingerprints"] = result.fingerprints
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

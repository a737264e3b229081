"""Wire protocol of the detection service: length-prefixed frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of payload, in both directions::

    frame   := uint32_be(len(payload)) || payload
    payload := header                        # no numpy columns
             | header || "\n" || blobs       # with numpy columns

The header is one compact UTF-8 JSON object.  Requests carry an ``op``
(one of ``query``, ``detect``, ``ingest``, ``stats``, ``health``) plus
op-specific fields, an optional client-chosen ``id`` echoed back in the
response, and the protocol version ``"v": 4``.  Responses carry ``ok``,
the server's ``v``, and either ``result`` or
``error = {"code", "message"}``.  A request without ``v``, or with any
other, is answered with an ``unsupported_version`` error frame
advertising ``min_version = max_version = 4``.  The full frame and
field reference is ``docs/serving.md``.

Numpy columns are exact on the wire.  :func:`encode_frame` sends each
as raw little-endian bytes after the header, which names it in place
with ``{"$blob": [offset, nbytes, dtype, shape]}`` (offset into the
blob section).  Compact JSON never emits a raw newline, so the first
``\n`` ends the header.  A peer may also write a column as a JSON list
(a hand-written request does): the readers take either, so both
encodings of a request decode to the same arrays.  Held bit for bit in
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
from ..index.filtering import SelectionBatch
from ..index.s3 import SearchResult

#: Frames larger than this are refused by both sides (a corrupted or
#: hostile length prefix must not trigger an unbounded allocation).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct("!I")

#: The wire protocol version, and the only one spoken: a request must
#: carry it as ``v`` (see :func:`request_version`).
PROTOCOL_VERSION = 4

#: The only dtypes a blob may carry: result ``rows``, request ``ids``
#: and shipped ``blocks`` columns (``<i8``), result ``ids`` (``<u4``),
#: ``timecodes`` and request ``fingerprints`` (``<f8``), and result
#: ``fingerprints`` (``|u1``).
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
def encode_frame(message: dict) -> bytes:
    """Serialise *message* into one length-prefixed frame: the JSON
    header, then ``\n`` and the blobs of its numpy columns (none, and no
    newline, when it holds no arrays)."""
    blobs: list = []
    size = 0

    def reference(obj):
        nonlocal size
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"{type(obj).__name__} is not JSON serialisable")
        if obj.dtype.newbyteorder("<").str not in BLOB_DTYPES:
            return obj.tolist()
        arr = np.ascontiguousarray(obj, dtype=obj.dtype.newbyteorder("<"))
        pad = -size % _BLOB_ALIGN
        if pad:
            blobs.append(bytes(pad))
        offset = size + pad
        blobs.append(arr.data)
        size = offset + arr.nbytes
        return {BLOB_KEY: [offset, arr.nbytes, arr.dtype.str, list(arr.shape)]}

    payload = json.dumps(
        message, separators=(",", ":"), default=reference
    ).encode("utf-8")
    if blobs:
        # Trailing spaces are JSON whitespace: they put the blob section,
        # which follows the newline, on the blob alignment.
        payload += b" " * (-(len(payload) + 1) % _BLOB_ALIGN)
        payload = b"".join([payload, b"\n", *blobs])
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LEN.pack(len(payload)) + payload


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


async def write_message(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one frame and flush."""
    writer.write(encode_frame(message))
    await writer.drain()


# ----------------------------------------------------------------------
# Message construction
# ----------------------------------------------------------------------
def request_version(request: dict) -> None:
    """Refuse a request not stamped ``"v": 4`` (absent, another number,
    or not an integer at all)."""
    version = request.get("v")
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version must be {PROTOCOL_VERSION}, got {version!r}"
        )


#: Upper length bound of a client-chosen ``request_id`` (a uuid4 hex is
#: 32 characters; the bound only guards the dedupe table against abuse).
MAX_REQUEST_ID_LEN = 128


def request_dedupe_id(request: dict) -> Optional[str]:
    """The replay-dedupe ``request_id`` of a request, validated.

    Returns ``None`` when the field is absent; raises
    :class:`ProtocolError` when present but unusable.
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


def deadline_ms_from_wire(request: dict) -> Optional[float]:
    """A request's ``deadline_ms``: ``None`` when absent, else a finite
    positive number (``NaN``, ``Infinity`` and booleans are refused)."""
    deadline_ms = request.get("deadline_ms")
    if deadline_ms is None:
        return None
    try:
        value = (
            float(deadline_ms) if type(deadline_ms) in (int, float)
            else math.nan
        )
    except OverflowError:  # an integer beyond float range
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ProtocolError(
            "deadline_ms must be a finite positive number, "
            f"got {deadline_ms!r}"
        )
    return value


def threshold_from_wire(request: dict, default: int) -> int:
    """A ``detect`` request's vote ``threshold`` (*default* when absent):
    a non-negative integer, never truncated or coerced."""
    threshold = request.get("threshold", default)
    if not _is_count(threshold):
        raise ProtocolError(
            f"threshold must be a non-negative integer, got {threshold!r}"
        )
    return threshold


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


def version_error(request: dict, version) -> dict:
    """The ``unsupported_version`` frame advertising the one version."""
    return error_response(
        request,
        ERR_VERSION,
        f"protocol version {version!r} is not supported; "
        f"this server speaks only version {PROTOCOL_VERSION}",
        min_version=PROTOCOL_VERSION,
        max_version=PROTOCOL_VERSION,
    )


# ----------------------------------------------------------------------
# numpy <-> wire conversions
# ----------------------------------------------------------------------
def fingerprints_to_wire(fingerprints: np.ndarray) -> np.ndarray:
    """A ``(B, D)`` query matrix as the float64 column the wire carries."""
    return np.asarray(fingerprints, dtype=np.float64)


def fingerprints_from_wire(value, ndims: int) -> np.ndarray:
    """Parse a request's ``fingerprints`` field into a finite ``(B, D)``
    matrix.  Query points may lie off the byte grid (a distorted copy
    does), so only NaN and infinities are refused."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"fingerprints are not numeric: {exc}") from exc
    if arr.ndim == 1:
        arr = arr[None, :]
    # B >= 1: a JSON list cannot spell (0, D), so neither may a blob.
    if arr.ndim != 2 or arr.shape[1] != ndims or not arr.shape[0]:
        raise ProtocolError(
            f"fingerprints must be (B, {ndims}) with B >= 1, "
            f"got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ProtocolError("fingerprints must be finite (no NaN or inf)")
    return arr


def column_from_wire(value, count: int, name: str) -> np.ndarray:
    """Parse a request's per-fingerprint column *name* (``timecodes``,
    ``ids``): *count* finite float64 values."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
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


def _integer_column(value, name: str) -> np.ndarray:
    """A column of integers (a JSON list or an integer blob) as int64."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"{name} are not integers: {exc}") from exc
    if arr.ndim != 1 or not (arr.dtype.kind in "iu" or arr.size == 0):
        raise ProtocolError(
            f"{name} must be a flat column of integers, got "
            f"{arr.dtype} of shape {arr.shape}"
        )
    return arr.astype(np.int64)


def blocks_from_wire(value, count: int, depth: int) -> SelectionBatch:
    """A ``query`` request's shipped ``blocks`` — ``{prefixes, counts,
    depth}``, each query's selected ``depth``-bit curve prefixes in
    ascending order, concatenated — checked to be a selection the scan
    reads correctly: at the server's *depth*, one count per fingerprint
    (*count*) summing to the prefixes, every prefix a ``depth``-bit
    block, and each query's prefixes strictly ascending."""
    if not isinstance(value, dict) or set(value) != {
        "prefixes", "counts", "depth"
    }:
        raise ProtocolError(
            "blocks must be an object of prefixes, counts and depth"
        )
    if type(value["depth"]) is not int or value["depth"] != depth:
        raise ProtocolError(
            f"blocks are at depth {value['depth']!r}; this server "
            f"selects at depth {depth}"
        )
    prefixes = _integer_column(value["prefixes"], "blocks.prefixes")
    counts = _integer_column(value["counts"], "blocks.counts")
    if counts.shape != (count,) or (
        (counts < 0) | (counts > prefixes.size)
    ).any():
        raise ProtocolError(
            f"blocks.counts must be {count} non-negative integers, one "
            "per fingerprint, none above the prefixes sent"
        )
    if int(counts.sum()) != prefixes.size:
        raise ProtocolError(
            f"blocks.counts sum to {int(counts.sum())}, but "
            f"{prefixes.size} prefixes were sent"
        )
    if prefixes.size and (
        prefixes.min() < 0 or int(prefixes.max()) >= 1 << depth
    ):
        raise ProtocolError(
            f"blocks.prefixes must lie in [0, 2**{depth})"
        )
    # Consecutive prefixes of one query must ascend; a query's first
    # prefix is compared with nothing.
    starts = np.cumsum(counts)[:-1]
    within = np.ones(max(prefixes.size - 1, 0), dtype=bool)
    within[starts[(counts[1:] > 0) & (starts > 0)] - 1] = False
    if not (np.diff(prefixes)[within] > 0).all():
        raise ProtocolError(
            "blocks.prefixes must strictly ascend within each query"
        )
    return SelectionBatch.given(prefixes, counts, depth)


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

"""Cold segments: resident key sidecars and exact range fetches.

A cold segment's store bytes live in the blob backend, but queries must
still run **block selection before any fetch** — eq. (5)'s whole point
is that the filtering step needs no rows.  Two resident artifacts make
that possible without touching the backend:

* the segment's ``.sketch`` sidecar (its occupancy bitmap, always
  resident), and
* a ``.keys`` sidecar written at demotion time: the segment's sorted
  ``uint64`` Hilbert keys, memory-mapped here (8 bytes/row of local
  disk, ~0 RAM).  :class:`ColdSegmentReader` wraps it in the standard
  :class:`~repro.index.table.HilbertLayout`, so ``block_row_ranges``
  over a cold segment runs the *identical* searchsorted + merge code as
  a resident one — the row ranges, and therefore the results, are
  bit-identical.

Once the selection has produced row ranges, :func:`fetch_columns` maps
each range to three column byte spans of the ``save()`` layout
(``column_offsets``) and asks the backend for exactly those spans in
one ``get_ranges`` call per segment — ``O(selected rows)`` backend bytes
per batch, the real-storage form of the paper's pseudo-disk load
(§IV-B, eq. 5) and what ``tests/storage/test_eq5_bytes.py`` predicts.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from ..errors import ColdFetchError, StorageError
from ..hilbert.butz import HilbertCurve
from ..index.store import FingerprintStore, column_offsets, expected_file_size
from ..index.table import HilbertLayout
from .blob import BlobBackend

KEYS_MAGIC = b"S3KY"
KEYS_FORMAT = 1
_KEYS_HEADER = struct.Struct("<4sIIQ")  # magic, format, key_bits, count

#: Bytes one fetched row costs across the three columns (``ndims``
#: fingerprint bytes + 4 id bytes + 8 timecode bytes): the unit of the
#: tier budget, of measured fetch bytes and of eq. (5)'s predictions.
def row_bytes(ndims: int) -> int:
    return ndims + 4 + 8


def keys_filename(name: str) -> str:
    """Canonical ``.keys`` sidecar file name of segment *name*."""
    return f"{name}.keys"


def save_keys(path: os.PathLike | str, keys: np.ndarray, key_bits: int) -> None:
    """Atomically write a segment's sorted keys sidecar (fsynced).

    Demotion durability depends on this file: once the local store is
    deleted, the sidecar is the only way to run block selection on the
    segment without a full blob fetch.
    """
    path = Path(path)
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(_KEYS_HEADER.pack(KEYS_MAGIC, KEYS_FORMAT, key_bits, keys.size))
        fh.write(keys.tobytes())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_keys(
    path: os.PathLike | str, count: int, key_bits: int
) -> np.ndarray:
    """Memory-map a ``.keys`` sidecar; validates header and size."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_KEYS_HEADER.size)
    except OSError as exc:
        raise StorageError(
            f"cold segment keys sidecar unreadable: {path}: {exc}"
        ) from exc
    if len(raw) < _KEYS_HEADER.size:
        raise StorageError(f"keys sidecar too short: {path}")
    magic, fmt, bits, n = _KEYS_HEADER.unpack(raw)
    if magic != KEYS_MAGIC:
        raise StorageError(f"bad magic in keys sidecar {path}: {magic!r}")
    if fmt != KEYS_FORMAT:
        raise StorageError(f"unsupported keys sidecar format {fmt} in {path}")
    if n != count or bits != key_bits:
        raise StorageError(
            f"keys sidecar {path} does not match its segment: "
            f"{n} keys/{bits} bits vs {count} rows/{key_bits} bits"
        )
    expected = _KEYS_HEADER.size + count * 8
    if path.stat().st_size < expected:
        raise StorageError(f"truncated keys sidecar: {path}")
    return np.memmap(
        path, dtype=np.uint64, mode="r",
        offset=_KEYS_HEADER.size, shape=(count,),
    )


class ColdSegmentReader:
    """Block selection over a cold segment, without its store bytes.

    Holds the memmapped sorted keys wrapped in a
    :class:`~repro.index.table.HilbertLayout` (permutation empty — cold
    segments are already curve-sorted on disk, and nothing rebuilds
    them), plus the geometry a fetch needs to map row ranges onto blob
    byte ranges.
    """

    def __init__(
        self,
        name: str,
        count: int,
        ndims: int,
        order: int,
        key_levels: int,
        keys: np.ndarray,
    ):
        self.name = name
        self.count = int(count)
        self.ndims = int(ndims)
        self.layout = HilbertLayout(
            curve=HilbertCurve(ndims, order),
            key_levels=key_levels,
            keys=keys,
            permutation=np.empty(0, dtype=np.int64),
        )


def fetch_columns(
    backend: BlobBackend,
    key: str,
    count: int,
    ndims: int,
    ranges,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Fetch ``(ids, timecodes, fingerprints)`` for *ranges* of a blob.

    *ranges* are ``[start, end)`` row ranges: ``(start, end)`` pairs or
    an ``(n, 2)`` array.  Returns the gathered columns in range order —
    exactly what a resident scan's ``store.column[rows]`` gather would
    produce for the same rows — in fresh arrays the caller owns, plus
    the number of payload bytes fetched.

    All of it is **one** ``get_ranges`` call: every range's fingerprint
    span, then every id span, then every timecode span, so the reply
    splits into the three columns at two offsets.  Every backend
    failure, including a short (torn) reply, raises
    :class:`~repro.errors.ColdFetchError` naming the segment.
    """
    bounds = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
    starts, ends = bounds[:, 0], bounds[:, 1]
    bad = (starts < 0) | (starts > ends) | (ends > count)
    if bad.any():
        s, e = bounds[np.argmax(bad)].tolist()
        raise ColdFetchError(key, f"row range ({s}, {e}) out of bounds")
    lengths = ends - starts
    offs = column_offsets(count, ndims)
    spans = [
        (offset, length)
        for name, width in (("fingerprints", ndims), ("ids", 4), ("timecodes", 8))
        for offset, length in zip(
            (offs[name] + starts * width).tolist(), (lengths * width).tolist()
        )
    ]
    try:
        data = backend.get_ranges(key, spans)
    except Exception as exc:
        raise ColdFetchError(key, f"backend read failed: {exc}") from exc
    rows = int(lengths.sum())
    fetched = rows * row_bytes(ndims)
    if len(data) != fetched:
        raise ColdFetchError(
            key, f"torn read: got {len(data)} of {fetched} bytes"
        )
    fps = np.frombuffer(data, np.uint8, rows * ndims).reshape(rows, ndims)
    ids = np.frombuffer(data, np.uint32, rows, offset=rows * ndims)
    tcs = np.frombuffer(data, np.float64, rows, offset=rows * (ndims + 4))
    return ids.copy(), tcs.copy(), fps.copy(), fetched


def store_from_blob(key: str, data: bytes, count: int, ndims: int) -> FingerprintStore:
    """Reconstruct a :class:`FingerprintStore` from full blob bytes.

    Used by compaction over cold inputs.  The blob is
    the exact ``save()`` file layout; size and geometry are validated
    against the manifest's record of the segment.
    """
    expected = expected_file_size(count, ndims)
    if len(data) < expected:
        raise ColdFetchError(
            key, f"blob truncated: {len(data)} bytes, expected {expected}"
        )
    offs = column_offsets(count, ndims)
    fp = np.frombuffer(
        data, dtype=np.uint8, count=count * ndims, offset=offs["fingerprints"]
    ).reshape(count, ndims)
    ids = np.frombuffer(data, dtype=np.uint32, count=count, offset=offs["ids"])
    tcs = np.frombuffer(
        data, dtype=np.float64, count=count, offset=offs["timecodes"]
    )
    return FingerprintStore(
        fingerprints=fp.copy(), ids=ids.copy(), timecodes=tcs.copy()
    )

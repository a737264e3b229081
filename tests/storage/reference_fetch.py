"""The range-at-a-time cold fetch the one-call fetch replaced.

These are the earlier bodies of ``repro.storage.coldseg.fetch_columns``
(three backend reads and three decodes per row range) and of
``repro.storage.blob.FileBlobBackend.get_range`` (one open, seek, read
and close per byte range), moved here verbatim.  The only edit is the
call site in ``fetch_columns`` that named the backend method, which now
calls the copy below, so the oracle runs on a
:class:`~repro.storage.blob.FileBlobBackend`.  ``test_blob.py`` holds
the new fetch to it, and nothing under ``src/`` imports them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ColdFetchError, StorageError
from repro.index.store import column_offsets
from repro.storage.blob import FileBlobBackend

RowRange = tuple[int, int]


def get_range(self: FileBlobBackend, key: str, offset: int, length: int) -> bytes:
    try:
        with open(self._path(key), "rb") as fh:
            fh.seek(offset)
            return fh.read(length)
    except OSError as exc:
        raise StorageError(f"blob {key!r} unreadable: {exc}") from exc


def fetch_columns(
    backend: FileBlobBackend,
    key: str,
    count: int,
    ndims: int,
    ranges: list[RowRange],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Fetch ``(ids, timecodes, fingerprints)`` for *ranges* of a blob.

    Returns the gathered columns in range order — exactly what a
    resident scan's ``store.column[rows]`` gather would produce for the
    same rows — plus the number of payload bytes fetched.  Every
    backend failure, including short (torn) reads, raises
    :class:`~repro.errors.ColdFetchError` naming the segment.
    """
    offs = column_offsets(count, ndims)
    total = sum(e - s for s, e in ranges)
    fps = np.empty((total, ndims), dtype=np.uint8)
    ids = np.empty(total, dtype=np.uint32)
    tcs = np.empty(total, dtype=np.float64)
    at = 0
    fetched = 0
    for s, e in ranges:
        if not 0 <= s <= e <= count:
            raise ColdFetchError(key, f"row range ({s}, {e}) out of bounds")
        n = e - s
        specs = (
            (offs["fingerprints"] + s * ndims, n * ndims),
            (offs["ids"] + s * 4, n * 4),
            (offs["timecodes"] + s * 8, n * 8),
        )
        bufs = []
        for offset, length in specs:
            try:
                data = get_range(backend, key, offset, length)
            except Exception as exc:
                raise ColdFetchError(key, f"backend read failed: {exc}") from exc
            if len(data) != length:
                raise ColdFetchError(
                    key,
                    f"torn read: got {len(data)} of {length} bytes "
                    f"at offset {offset}",
                )
            bufs.append(data)
            fetched += length
        fps[at:at + n] = np.frombuffer(bufs[0], dtype=np.uint8).reshape(n, ndims)
        ids[at:at + n] = np.frombuffer(bufs[1], dtype=np.uint32)
        tcs[at:at + n] = np.frombuffer(bufs[2], dtype=np.float64)
        at += n
    return ids, tcs, fps, fetched

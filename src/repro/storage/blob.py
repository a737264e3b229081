"""Pluggable blob backends for cold segment storage.

A blob backend stores **opaque segment blobs** — the exact bytes of a
segment's ``save()``-layout store file — under string keys (the segment
name).  The protocol is deliberately tiny (``put`` / ``get`` /
``get_ranges`` / ``delete`` / ``exists`` / ``keys``) so an
S3/GCS/object-store adapter is a page of code; the repo ships two
implementations:

* :class:`FileBlobBackend` — a local directory, one file per blob,
  written atomically (tmp + fsync + rename).  This is the production
  default for "cold = slower local or network-mounted disk".
* :class:`FakeBlobBackend` — an in-memory dict with **fault injection**
  (latency, erroring operations, torn reads) used by the degradation
  tests: a cold fetch must surface as a retryable per-segment error,
  never a crash or a silent wrong answer.

``get_ranges`` is the hot call: the tier manager fetches exactly the
coalesced byte spans the block selection will scan, all of one cold
segment's in one call, so a query touches ``O(selected rows)`` backend
bytes, not ``O(segment)``, and pays one round trip per segment, not one
per span.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

from ..errors import StorageError

#: Suffix of blob files inside a :class:`FileBlobBackend` directory.
BLOB_SUFFIX = ".blob"

#: ``(offset, length)`` of one byte span of a blob.
Span = tuple[int, int]


@runtime_checkable
class BlobBackend(Protocol):
    """Structural contract of a cold-tier blob store.

    Keys are segment names (``seg-000042``); values are opaque bytes.
    Implementations must make ``put`` atomic (readers never observe a
    partial blob) and may raise any exception on failure — the tier
    manager wraps every backend error into a retryable
    :class:`~repro.errors.ColdFetchError`.

    ``get_ranges`` returns the bytes of *spans* concatenated in the
    order given.  A reply shorter than the spans' total length is a
    torn read (a span ran past the end of the blob); the caller must
    reject it, never decode it.
    """

    def put(self, key: str, data: bytes) -> None: ...

    def get(self, key: str) -> bytes: ...

    def get_ranges(self, key: str, spans: Sequence[Span]) -> bytes: ...

    def delete(self, key: str) -> None: ...

    def exists(self, key: str) -> bool: ...

    def keys(self) -> list[str]: ...


class FileBlobBackend:
    """Blob store over a local directory: one ``<key>.blob`` file each.

    ``put`` writes to a temporary file, fsyncs, and renames into place,
    so a crash mid-upload never leaves a half-written blob under the
    final name (the orphaned ``.tmp`` is overwritten by the retry).
    """

    def __init__(self, directory: os.PathLike | str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise StorageError(f"invalid blob key {key!r}")
        return self.directory / (key + BLOB_SUFFIX)

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except OSError as exc:
            raise StorageError(f"blob {key!r} unreadable: {exc}") from exc

    def get_ranges(self, key: str, spans: Sequence[Span]) -> bytes:
        """One open per call, one positional read per span.

        Stops at the first short read, so the reply is then shorter
        than the spans' total: the torn read the caller rejects.
        ``os.pread`` plus one join beats ``os.preadv`` into a
        preallocated buffer here: slicing a memoryview per span costs
        more than the small ``bytes`` each ``pread`` returns.
        """
        parts = []
        try:
            fd = os.open(self._path(key), os.O_RDONLY)
            try:
                for offset, length in spans:
                    data = os.pread(fd, length, offset)
                    parts.append(data)
                    if len(data) < length:
                        break
            finally:
                os.close(fd)
        except OSError as exc:
            raise StorageError(f"blob {key!r} unreadable: {exc}") from exc
        return b"".join(parts)

    def delete(self, key: str) -> None:
        self._path(key).unlink(missing_ok=True)

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def keys(self) -> list[str]:
        return sorted(
            p.name[: -len(BLOB_SUFFIX)]
            for p in self.directory.iterdir()
            if p.name.endswith(BLOB_SUFFIX)
        )


class FakeBlobBackend:
    """In-memory blob store with scriptable faults (tests only).

    Fault knobs (all default off), each counted per call — one
    ``get_ranges`` call is one read however many spans it carries:

    * ``latency_s`` — every ``get``/``get_ranges`` call sleeps this
      long, a slow backend.
    * ``fail_reads`` — the next N read calls raise
      :class:`~repro.errors.StorageError`.
    * ``torn_reads`` — the next N ``get_ranges`` calls return roughly
      half the requested bytes, exercising the length-validation path
      (a torn read must never become a silent wrong answer).

    Thread-safe: query threads and the maintenance worker call into
    backends concurrently.
    """

    def __init__(self, latency_s: float = 0.0):
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.latency_s = latency_s
        self.fail_reads = 0
        self.torn_reads = 0
        self.puts = 0
        self.gets = 0
        self.range_gets = 0
        self.bytes_read = 0

    # ------------------------------------------------------------------
    def _maybe_fault(self) -> None:
        if self.latency_s > 0.0:
            time.sleep(self.latency_s)
        with self._lock:
            if self.fail_reads > 0:
                self.fail_reads -= 1
                raise StorageError("injected backend read failure")

    def _tear(self, data: bytes) -> bytes:
        with self._lock:
            if self.torn_reads > 0:
                self.torn_reads -= 1
                return data[: len(data) // 2]
        return data

    # ------------------------------------------------------------------
    def put(self, key: str, data: bytes) -> None:
        with self._lock:
            self._blobs[key] = bytes(data)
            self.puts += 1

    def get(self, key: str) -> bytes:
        self._maybe_fault()
        with self._lock:
            self.gets += 1
            try:
                data = self._blobs[key]
            except KeyError:
                raise StorageError(f"no such blob {key!r}") from None
            self.bytes_read += len(data)
        return data

    def get_ranges(self, key: str, spans: Sequence[Span]) -> bytes:
        self._maybe_fault()
        with self._lock:
            self.range_gets += 1
            try:
                blob = self._blobs[key]
            except KeyError:
                raise StorageError(f"no such blob {key!r}") from None
            data = b"".join(blob[o:o + n] for o, n in spans)
            self.bytes_read += len(data)
        return self._tear(data)

    def delete(self, key: str) -> None:
        with self._lock:
            self._blobs.pop(key, None)

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._blobs

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._blobs)

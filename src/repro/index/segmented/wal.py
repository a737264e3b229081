"""Write-ahead log for the segmented index (durability of online inserts).

Every accepted ``add`` is appended to the log *before* it reaches the
in-memory write buffer, so a crash between segment seals loses nothing:
reopening the directory replays the log into a fresh memtable.

File layout::

    magic 'S3WL' | version u32 | ndims u32 |
    record*  where record = count u32 | crc32 u32 | payload
    payload  = fingerprints (count x ndims u8) | ids (count u32)
             | timecodes (count f64)

The CRC covers the payload.  Replay stops at the first incomplete or
corrupt record — a torn tail from a crash mid-append is expected and is
silently dropped (the insert was never acknowledged as durable); opening
the log for writing truncates the tail so new records extend the valid
prefix.  A bad file header, by contrast, raises :class:`~repro.errors.WALError`:
that is not a torn write but the wrong file.

Durability modes (``docs/serving.md`` has the full matrix):

* ``"always"`` — every append pays its own ``fsync`` before returning:
  the strongest guarantee and the slowest (the default);
* ``"group"`` — concurrent appends are **group-committed**: each append
  stages its record under the log's lock, the first stager becomes the
  flush *leader* and writes every staged record with one ``write`` +
  one ``fsync`` while followers wait on a condition variable (the same
  leader/follower shape as the serve micro-batcher).  Every append is
  still durable before it returns — the fsync is shared, not skipped;
* ``"async"`` — appends buffer through the OS page cache with no fsync:
  a process kill loses nothing (the bytes are in the kernel), a power
  cut may lose the tail.

All three modes are safe under concurrent appenders; records from
different threads interleave at batch granularity.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path

import numpy as np

from ...errors import WALError
from ..options import validate_durability
from ..store import PathLike

_MAGIC = b"S3WL"
_VERSION = 1
_FILE_HEADER = struct.Struct("<4sII")
_RECORD_HEADER = struct.Struct("<II")


def _payload_size(count: int, ndims: int) -> int:
    return count * (ndims + 4 + 8)


class WriteAheadLog:
    """Append-only durable log of fingerprint record batches."""

    def __init__(
        self,
        path: PathLike,
        ndims: int,
        fh,
        durability: str = "always",
        size_bytes: int = 0,
    ):
        self.path = Path(path)
        self.ndims = int(ndims)
        self.durability = durability
        self._fh = fh
        #: Bytes of the valid prefix (header + durable/buffered records);
        #: the ``WAL bytes`` pressure gauge.
        self.size_bytes = int(size_bytes)
        # Counters (read via stats(); monotonically increasing).
        self.appends = 0
        self.records = 0
        self.group_commits = 0
        self.group_records = 0
        # Group-commit machinery: stagers queue (seq, count, record
        # bytes) under the condition; the first stager to find no flush
        # in progress becomes the leader for everything staged so far.
        self._cond = threading.Condition()
        self._staged: list[tuple[int, int, bytes]] = []
        self._next_seq = 0
        self._durable_seq = -1
        self._flushing = False
        self._failed: dict[int, BaseException] = {}

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: PathLike,
        ndims: int,
        durability: str = "always",
    ) -> "WriteAheadLog":
        """Start a fresh log at *path* (truncating any existing file)."""
        if ndims < 1:
            raise WALError(f"ndims must be >= 1, got {ndims}")
        validate_durability(durability)
        path = Path(path)
        fh = open(path, "wb")
        fh.write(_FILE_HEADER.pack(_MAGIC, _VERSION, ndims))
        fh.flush()
        if durability != "async":
            os.fsync(fh.fileno())
        return cls(
            path, ndims, fh, durability=durability,
            size_bytes=_FILE_HEADER.size,
        )

    @classmethod
    def open(
        cls,
        path: PathLike,
        durability: str = "always",
    ) -> "WriteAheadLog":
        """Open an existing log for appending.

        The valid record prefix is located first; any torn tail beyond it
        is truncated away so the next append lands on a clean boundary.
        """
        validate_durability(durability)
        path = Path(path)
        ndims, _records, valid_end = _scan(path)
        fh = open(path, "r+b")
        fh.truncate(valid_end)
        fh.seek(valid_end)
        return cls(path, ndims, fh, durability=durability, size_bytes=valid_end)

    # ------------------------------------------------------------------
    def append(
        self,
        fingerprints: np.ndarray,
        ids: np.ndarray,
        timecodes: np.ndarray,
    ) -> int:
        """Durably append one batch; returns the number of records.

        Thread-safe in every durability mode; in ``"group"`` mode
        concurrent callers share one write+fsync.
        """
        fp = np.ascontiguousarray(fingerprints, dtype=np.uint8)
        if fp.ndim != 2 or fp.shape[1] != self.ndims:
            raise WALError(
                f"fingerprints must be (N, {self.ndims}), got shape {fp.shape}"
            )
        ids = np.ascontiguousarray(ids, dtype=np.uint32)
        tcs = np.ascontiguousarray(timecodes, dtype=np.float64)
        n = fp.shape[0]
        if ids.shape != (n,) or tcs.shape != (n,):
            raise WALError(
                "column length mismatch: "
                f"{n} fingerprints, {ids.shape[0]} ids, {tcs.shape[0]} timecodes"
            )
        if n == 0:
            return 0
        payload = fp.tobytes() + ids.tobytes() + tcs.tobytes()
        record = _RECORD_HEADER.pack(n, zlib.crc32(payload)) + payload
        if self.durability == "group":
            return self._append_group(n, record)
        with self._cond:
            self._fh.write(record)
            self._fh.flush()
            if self.durability == "always":
                os.fsync(self._fh.fileno())
            self.size_bytes += len(record)
            self.appends += 1
            self.records += n
        return n

    def _append_group(self, n: int, record: bytes) -> int:
        """Stage *record* and wait for (or lead) a shared group flush."""
        with self._cond:
            seq = self._next_seq
            self._next_seq += 1
            self._staged.append((seq, n, record))
            self.appends += 1
            self.records += n
            while True:
                if seq in self._failed:
                    raise self._failed.pop(seq)
                if self._durable_seq >= seq:
                    return n
                if not self._flushing:
                    break
                self._cond.wait()
            # Leader: take everything staged so far (our own record is
            # in there) and flush it as one write+fsync off the lock so
            # later appenders can keep staging the next group.
            self._flushing = True
            batch = self._staged
            self._staged = []
            high = batch[-1][0]
        blob = b"".join(rec for _, _, rec in batch)
        error: BaseException | None = None
        try:
            self._fh.write(blob)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except BaseException as exc:  # noqa: BLE001 - relayed to followers
            error = exc
        with self._cond:
            self._flushing = False
            if error is None:
                self._durable_seq = high
                self.size_bytes += len(blob)
                self.group_commits += 1
                self.group_records += sum(c for _, c, _ in batch)
            else:
                # Followers in this batch must not report durable.
                for s, _, _ in batch:
                    if s != seq:
                        self._failed[s] = error
            self._cond.notify_all()
        if error is not None:
            raise error
        return n

    def stats(self) -> dict:
        """Counters for ``serve stats`` / ``info --json`` pressure."""
        with self._cond:
            return {
                "durability": self.durability,
                "bytes": self.size_bytes,
                "appends": self.appends,
                "records": self.records,
                "group_commits": self.group_commits,
                "group_records": self.group_records,
            }

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay(path: PathLike) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Return every complete ``(fingerprints, ids, timecodes)`` batch.

    Torn or corrupt trailing records are dropped; a bad header raises
    :class:`~repro.errors.WALError`.
    """
    _ndims, records, _valid_end = _scan(path)
    return records


def _scan(path: PathLike) -> tuple[
    int, list[tuple[np.ndarray, np.ndarray, np.ndarray]], int
]:
    """Parse the log: ``(ndims, complete record batches, valid end offset)``."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise WALError(f"cannot read WAL file {path}: {exc}") from exc
    if len(raw) < _FILE_HEADER.size:
        raise WALError(f"WAL file too short: {path}")
    magic, version, ndims = _FILE_HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise WALError(f"bad magic in WAL file {path}: {magic!r}")
    if version != _VERSION:
        raise WALError(f"unsupported WAL version {version} in {path}")
    if ndims < 1:
        raise WALError(f"bad ndims {ndims} in WAL file {path}")

    records: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pos = _FILE_HEADER.size
    while True:
        if pos + _RECORD_HEADER.size > len(raw):
            break  # torn record header
        count, crc = _RECORD_HEADER.unpack_from(raw, pos)
        size = _payload_size(count, ndims)
        start = pos + _RECORD_HEADER.size
        if count == 0 or start + size > len(raw):
            break  # torn payload (or garbage header)
        payload = raw[start:start + size]
        if zlib.crc32(payload) != crc:
            break  # corrupt tail
        fp_end = count * ndims
        ids_end = fp_end + count * 4
        fp = np.frombuffer(payload[:fp_end], dtype=np.uint8).reshape(
            count, ndims
        )
        ids = np.frombuffer(payload[fp_end:ids_end], dtype=np.uint32)
        tcs = np.frombuffer(payload[ids_end:], dtype=np.float64)
        records.append((fp.copy(), ids.copy(), tcs.copy()))
        pos = start + size
    return ndims, records, pos

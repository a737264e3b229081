"""Fingerprint database storage (paper §III and §IV).

A referenced fingerprint is a point of ``[0, 255]^D`` (one byte per
component, ``D = 20`` in the paper) carrying a video-sequence identifier
``Id`` and a time-code ``tc``.  The database is a flat, immutable collection
of such records kept in a **single binary file** — exactly the layout the
paper describes ("the fingerprint database is stored in a single file") —
with a small fixed header followed by the three column arrays:

``magic 'S3FP' | version u32 | count u64 | ndims u32 | pad u32 |``
``fingerprints (count × ndims u8) | ids (count u32) | timecodes (count f64)``

Column storage keeps the refinement step a pure sequential scan of
contiguous bytes and lets the cold tier fetch any row range as one span
per column.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from ..errors import StoreError

_MAGIC = b"S3FP"
_VERSION = 1
_HEADER = struct.Struct("<4sIQII")

PathLike = Union[str, Path]


@dataclass
class FingerprintStore:
    """An immutable column-store of local fingerprints.

    Attributes
    ----------
    fingerprints:
        ``(N, D)`` ``uint8`` array; each row is one fingerprint.
    ids:
        ``(N,)`` ``uint32`` video-sequence identifiers.
    timecodes:
        ``(N,)`` ``float64`` time-codes, in key-frame time units.
    """

    fingerprints: np.ndarray
    ids: np.ndarray
    timecodes: np.ndarray

    def __post_init__(self) -> None:
        fp = np.ascontiguousarray(self.fingerprints, dtype=np.uint8)
        if fp.ndim != 2:
            raise StoreError(f"fingerprints must be 2-D, got shape {fp.shape}")
        ids = np.ascontiguousarray(self.ids, dtype=np.uint32)
        tcs = np.ascontiguousarray(self.timecodes, dtype=np.float64)
        if ids.shape != (fp.shape[0],) or tcs.shape != (fp.shape[0],):
            raise StoreError(
                "column length mismatch: "
                f"{fp.shape[0]} fingerprints, {ids.shape[0]} ids, "
                f"{tcs.shape[0]} timecodes"
            )
        object.__setattr__(self, "fingerprints", fp)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "timecodes", tcs)

    # ------------------------------------------------------------------
    @property
    def ndims(self) -> int:
        """Dimension ``D`` of the fingerprint space."""
        return int(self.fingerprints.shape[1])

    def __len__(self) -> int:
        return int(self.fingerprints.shape[0])

    def nbytes(self) -> int:
        """Total payload size in bytes (the paper's "DB file size")."""
        return (
            self.fingerprints.nbytes + self.ids.nbytes + self.timecodes.nbytes
        )

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, ndims: int) -> "FingerprintStore":
        """Return a store with zero records of dimension *ndims*."""
        return cls(
            fingerprints=np.empty((0, ndims), dtype=np.uint8),
            ids=np.empty(0, dtype=np.uint32),
            timecodes=np.empty(0, dtype=np.float64),
        )

    @classmethod
    def concatenate(cls, stores: Iterable["FingerprintStore"]) -> "FingerprintStore":
        """Stack several stores into one (ids are kept as-is)."""
        stores = list(stores)
        if not stores:
            raise StoreError("cannot concatenate zero stores")
        ndims = stores[0].ndims
        for s in stores:
            if s.ndims != ndims:
                raise StoreError(
                    f"dimension mismatch: {s.ndims} vs {ndims}"
                )
        return cls(
            fingerprints=np.concatenate([s.fingerprints for s in stores]),
            ids=np.concatenate([s.ids for s in stores]),
            timecodes=np.concatenate([s.timecodes for s in stores]),
        )

    def take(self, rows: np.ndarray) -> "FingerprintStore":
        """Return a new store holding the given *rows* (in that order)."""
        return FingerprintStore(
            fingerprints=self.fingerprints[rows],
            ids=self.ids[rows],
            timecodes=self.timecodes[rows],
        )

    def row_slice(self, start: int, stop: int) -> "FingerprintStore":
        """Return the contiguous sub-store ``[start, stop)`` (copy)."""
        return FingerprintStore(
            fingerprints=self.fingerprints[start:stop].copy(),
            ids=self.ids[start:stop].copy(),
            timecodes=self.timecodes[start:stop].copy(),
        )

    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Write the store to a single binary file at *path*."""
        path = Path(path)
        header = _HEADER.pack(
            _MAGIC, _VERSION, len(self), self.ndims, 0
        )
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(self.fingerprints.tobytes())
            fh.write(self.ids.tobytes())
            fh.write(self.timecodes.tobytes())

    @classmethod
    def load(cls, path: PathLike, mmap: bool = False) -> "FingerprintStore":
        """Read a store from *path*.

        With ``mmap=True`` the column arrays are memory-mapped read-only
        instead of loaded — the warm tier, which touches only the curve
        sections a query batch needs.
        """
        path = Path(path)
        count, ndims = read_header(path)
        offsets = column_offsets(count, ndims)
        expected = expected_file_size(count, ndims)
        actual = path.stat().st_size
        if actual < expected:
            raise StoreError(
                f"truncated store file {path}: {actual} bytes, "
                f"header promises {expected}"
            )
        if mmap:
            fp = np.memmap(
                path, dtype=np.uint8, mode="r",
                offset=offsets["fingerprints"], shape=(count, ndims),
            )
            ids = np.memmap(
                path, dtype=np.uint32, mode="r",
                offset=offsets["ids"], shape=(count,),
            )
            tcs = np.memmap(
                path, dtype=np.float64, mode="r",
                offset=offsets["timecodes"], shape=(count,),
            )
            store = cls.__new__(cls)
            object.__setattr__(store, "fingerprints", fp)
            object.__setattr__(store, "ids", ids)
            object.__setattr__(store, "timecodes", tcs)
            return store
        with open(path, "rb") as fh:
            fh.seek(offsets["fingerprints"])
            raw_fp = fh.read(count * ndims)
            raw_ids = fh.read(count * 4)
            raw_tcs = fh.read(count * 8)
        if (
            len(raw_fp) != count * ndims
            or len(raw_ids) != count * 4
            or len(raw_tcs) != count * 8
        ):
            raise StoreError(f"truncated store file: {path}")
        fp = np.frombuffer(raw_fp, dtype=np.uint8).reshape(count, ndims)
        ids = np.frombuffer(raw_ids, dtype=np.uint32)
        tcs = np.frombuffer(raw_tcs, dtype=np.float64)
        return cls(fingerprints=fp.copy(), ids=ids.copy(), timecodes=tcs.copy())


class StoreBuilder:
    """Incrementally accumulate records into a :class:`FingerprintStore`.

    The builder keeps pre-allocated column arrays and grows them by
    amortised doubling, so appending many small batches — the memtable
    and segment-flush path of the segmented index — never round-trips
    through Python lists.
    """

    def __init__(self, ndims: int, initial_capacity: int = 1024):
        if ndims < 1:
            raise StoreError(f"ndims must be >= 1, got {ndims}")
        if initial_capacity < 1:
            raise StoreError(
                f"initial_capacity must be >= 1, got {initial_capacity}"
            )
        self._ndims = int(ndims)
        self._size = 0
        self._fp = np.empty((initial_capacity, ndims), dtype=np.uint8)
        self._ids = np.empty(initial_capacity, dtype=np.uint32)
        self._tcs = np.empty(initial_capacity, dtype=np.float64)

    @property
    def ndims(self) -> int:
        return self._ndims

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = self._fp.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        self._fp = np.concatenate(
            [self._fp, np.empty((capacity - self._fp.shape[0], self._ndims),
                                dtype=np.uint8)]
        )
        self._ids = np.concatenate(
            [self._ids, np.empty(capacity - self._ids.shape[0],
                                 dtype=np.uint32)]
        )
        self._tcs = np.concatenate(
            [self._tcs, np.empty(capacity - self._tcs.shape[0],
                                 dtype=np.float64)]
        )

    def append(
        self,
        fingerprints: np.ndarray,
        ids: np.ndarray,
        timecodes: np.ndarray,
    ) -> int:
        """Append a batch of records; returns the number appended."""
        fp = np.ascontiguousarray(fingerprints, dtype=np.uint8)
        if fp.ndim != 2 or fp.shape[1] != self._ndims:
            raise StoreError(
                f"fingerprints must be (N, {self._ndims}), got shape {fp.shape}"
            )
        ids = np.ascontiguousarray(ids, dtype=np.uint32)
        tcs = np.ascontiguousarray(timecodes, dtype=np.float64)
        n = fp.shape[0]
        if ids.shape != (n,) or tcs.shape != (n,):
            raise StoreError(
                "column length mismatch: "
                f"{n} fingerprints, {ids.shape[0]} ids, {tcs.shape[0]} timecodes"
            )
        self._reserve(n)
        self._fp[self._size:self._size + n] = fp
        self._ids[self._size:self._size + n] = ids
        self._tcs[self._size:self._size + n] = tcs
        self._size += n
        return n

    @property
    def fingerprints(self) -> np.ndarray:
        """View of the filled fingerprint rows (do not mutate)."""
        return self._fp[:self._size]

    @property
    def ids(self) -> np.ndarray:
        """View of the filled id column (do not mutate)."""
        return self._ids[:self._size]

    @property
    def timecodes(self) -> np.ndarray:
        """View of the filled timecode column (do not mutate)."""
        return self._tcs[:self._size]

    def append_store(self, store: FingerprintStore) -> int:
        """Append every record of *store* (the compaction merge path)."""
        return self.append(store.fingerprints, store.ids, store.timecodes)

    def build(self) -> FingerprintStore:
        """Return the accumulated records as an immutable store (copy)."""
        return FingerprintStore(
            fingerprints=self._fp[:self._size].copy(),
            ids=self._ids[:self._size].copy(),
            timecodes=self._tcs[:self._size].copy(),
        )

    def clear(self) -> None:
        """Drop the accumulated records (capacity is retained)."""
        self._size = 0


def read_header(path: PathLike) -> tuple[int, int]:
    """Return ``(count, ndims)`` from a store file header."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
    except OSError as exc:
        raise StoreError(f"cannot read store file {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise StoreError(f"store file too short: {path}")
    magic, version, count, ndims, _pad = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise StoreError(f"bad magic in store file {path}: {magic!r}")
    if version != _VERSION:
        raise StoreError(f"unsupported store version {version} in {path}")
    return int(count), int(ndims)


def expected_file_size(count: int, ndims: int) -> int:
    """Total on-disk size of a store with *count* records of *ndims*."""
    return _HEADER.size + count * (ndims + 4 + 8)


def column_offsets(count: int, ndims: int) -> dict[str, int]:
    """Return the byte offset of each column inside a store file."""
    fp_off = _HEADER.size
    ids_off = fp_off + count * ndims
    tcs_off = ids_off + count * 4
    return {"fingerprints": fp_off, "ids": ids_off, "timecodes": tcs_off}

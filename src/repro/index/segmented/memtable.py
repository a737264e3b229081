"""In-memory write buffer of the segmented index.

The memtable accepts inserts in arrival order and is scanned exhaustively
at query time.  It is small by construction (it is sealed into a segment
once it exceeds the flush threshold), so the scan is a handful of
vectorised numpy operations.  Every query kind selects records by
p-block membership: the memtable keeps the truncated Hilbert key of
every record and tests it against the selected prefixes, so the returned
set is exactly "everything stored inside the selected blocks", the same
semantics the sealed segments implement with their sorted layouts.  A
range or window query's exact test runs afterwards on the scanned rows
of every part alike.

Hilbert keys are **computed lazily**, on the first block scan that needs
them, not on insert: the ingest acknowledgement path then costs one WAL
append plus one builder copy (microseconds), encoding is amortised over
every row inserted since the last scan (one vectorised call instead of
one per request), and a memtable that is sealed before ever being
queried skips encoding entirely (the seal re-sorts through
:class:`~repro.index.s3.S3Index`, which derives its own keys).
"""

from __future__ import annotations

import threading

import numpy as np

from ...hilbert.vectorized import encode_batch
from ..filtering import BlockSelection, SelectionBatch
from ..store import FingerprintStore, StoreBuilder


class MemTable:
    """Mutable record buffer with Hilbert keys for block-membership scans."""

    def __init__(self, ndims: int, order: int = 8, key_levels: int = 2):
        self.ndims = int(ndims)
        self.order = int(order)
        self.key_levels = int(key_levels)
        self._builder = StoreBuilder(ndims)
        self._keys = np.empty(1024, dtype=np.uint64)
        # Rows whose key has been computed; the suffix beyond it is
        # encoded on demand by _ensure_keys (under _key_lock).
        self._keyed = 0
        self._key_lock = threading.Lock()

    @property
    def key_bits(self) -> int:
        return self.key_levels * self.ndims

    def __len__(self) -> int:
        return len(self._builder)

    def nbytes(self) -> int:
        """Approximate payload size of the buffered records."""
        return len(self) * (self.ndims + 4 + 8 + 8)

    # ------------------------------------------------------------------
    def add(
        self,
        fingerprints: np.ndarray,
        ids: np.ndarray,
        timecodes: np.ndarray,
    ) -> int:
        """Buffer one batch; returns the number of records added.

        Deliberately cheap — one validated copy into the builder.  The
        Hilbert keys a block scan needs are *not* computed here; the
        first :meth:`scan_selection` over these rows encodes them in
        one vectorised batch (:meth:`_ensure_keys`), keeping the ingest
        acknowledgement latency down to the WAL append.
        """
        return self._builder.append(fingerprints, ids, timecodes)

    def _ensure_keys(self, n: int) -> None:
        """Encode the keys of rows ``[_keyed, n)`` (one batched call).

        Safe against concurrent ``add``: *n* was captured from the
        builder's published size, and the builder writes row data
        before advancing it, so the prefix ``[:n]`` of its columns is
        immutable by the time any scan asks for it.  Concurrent scans
        serialise on ``_key_lock``; ``_keyed`` only advances once the
        keys below it are fully written.
        """
        if self._keyed >= n:
            return
        with self._key_lock:
            start = self._keyed
            if start >= n:
                return
            while self._keys.size < n:
                self._keys = np.concatenate(
                    [self._keys, np.empty(self._keys.size, dtype=np.uint64)]
                )
            fp = self._builder.fingerprints
            self._keys[start:n] = encode_batch(
                fp[start:n], self.order, self.key_levels
            )
            self._keyed = n

    def clear(self) -> None:
        self._builder.clear()
        with self._key_lock:
            self._keyed = 0

    def to_store(self) -> FingerprintStore:
        """Snapshot the buffered records (insertion order) as a store."""
        return self._builder.build()

    # ------------------------------------------------------------------
    def _bound(self, limit: int | None) -> int:
        """Rows visible to a scan: everything, or a pinned snapshot.

        Readers racing a concurrent ``add`` pass the length they
        captured when their snapshot was taken; rows appended after
        that are fully written before the length they read was
        published, so the prefix ``[:limit]`` is always consistent.
        """
        n = len(self)
        return n if limit is None else min(int(limit), n)

    def scan_selection(
        self, selection: BlockSelection, limit: int | None = None
    ) -> np.ndarray:
        """Row indices of buffered records inside the selected blocks
        (one query; a batch's scan uses :meth:`scan_batch`)."""
        n = self._bound(limit)
        if n == 0 or len(selection) == 0:
            return np.empty(0, dtype=np.int64)
        self._ensure_keys(n)
        shift = np.uint64(self.key_bits - selection.depth)
        blocks = self._keys[:n] >> shift
        prefixes = np.asarray(selection.prefixes, dtype=np.uint64)
        idx = np.searchsorted(prefixes, blocks)
        member = (idx < prefixes.size) & (
            prefixes[np.minimum(idx, prefixes.size - 1)] == blocks
        )
        return np.flatnonzero(member).astype(np.int64)

    def scan_batch(
        self, selections: SelectionBatch, limit: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows of buffered records inside each query's selected
        blocks, query after query, and how many each query has.

        One membership pass for the whole batch: each row's block is
        looked up once among the batch's distinct prefixes, and a
        ``(queries, rows)`` test against each query's prefixes is read
        out in query-major order.
        """
        num = len(selections)
        n = self._bound(limit)
        prefixes = selections.prefixes
        if n == 0 or prefixes.size == 0:
            return np.empty(0, dtype=np.int64), np.zeros(num, dtype=np.int64)
        self._ensure_keys(n)
        blocks = self._keys[:n] >> np.uint64(self.key_bits - selections.depth)
        distinct, which = np.unique(prefixes, return_inverse=True)
        holds = np.zeros((num, distinct.size), dtype=bool)
        holds[np.repeat(np.arange(num), selections.counts), which] = True
        at = np.minimum(np.searchsorted(distinct, blocks), distinct.size - 1)
        member = holds[:, at] & (distinct[at] == blocks)
        hits = np.flatnonzero(member)
        return hits % n, member.sum(axis=1)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the buffered ``(ids, timecodes, fingerprints)``.

        Read-only by contract; a concurrent ``add`` may move the buffers,
        but these views keep the rows a pinned snapshot bounds.
        """
        b = self._builder
        return b.ids, b.timecodes, b.fingerprints

    def take(self, rows: np.ndarray) -> FingerprintStore:
        """The buffered records at *rows*, as a store (query gather)."""
        return FingerprintStore(
            fingerprints=self._builder.fingerprints[rows],
            ids=self._builder.ids[rows],
            timecodes=self._builder.timecodes[rows],
        )

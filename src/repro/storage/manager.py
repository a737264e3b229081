"""The tier manager: residency, budget, demotion, fetch.

Every sealed segment of a :class:`~repro.index.segmented.lsm.SegmentedS3Index`
is in exactly one tier:

* **hot** — its :class:`~repro.index.store.FingerprintStore` is in RAM
  (freshly sealed segments, or ``open(mmap=False)``);
* **warm** — the store is an ``np.memmap`` of the local ``save()`` file
  (``open(mmap=True)``);
* **cold** — the store bytes live only in the blob backend; locally the
  segment keeps its ``.sketch`` and ``.keys`` sidecars, so block
  selection and the sketch's occupancy prune never touch the backend.

Residency is a policy of the write path only.  The :class:`TierManager`
enforces a byte budget over the *resident* (hot + warm) tiers by
demoting resident segments in manifest order, oldest first; the index
calls :meth:`TierManager.enforce_budget` when storage is attached,
after a seal and after a compaction.  A query never changes a tier: a
cold segment is read by range fetches of exactly the rows its selected
blocks hold (the paper's pseudo-disk, eq. 5), and nothing is moved into
RAM for the next batch.  Every segment's tier is recorded in
``MANIFEST.json`` so a reopened directory resumes in the same shape.

A demotion is **copy-on-write**: it builds a *replacement*
:class:`Segment` carrying a cold reader and swaps it into the index's
live view atomically (:meth:`SegmentedS3Index._swap_segment`).  The
old Segment object is never mutated, so a query pinned on a snapshot
view keeps a working store however the live tiering moves — the blob
upload happens entirely outside the index's locks.

Crash safety mirrors the LSM protocol: a demotion uploads the blob and
fsyncs the ``.keys`` sidecar *before* the manifest flips the tier to
``cold``, and deletes the local store file only *after*; a crash at any
point leaves either a resident segment (plus a harmless early blob) or
a complete cold segment (plus a stale store file that open() GCs).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import ColdFetchError, StorageError
from ..index.store import FingerprintStore
from .blob import BlobBackend, FileBlobBackend
from .coldseg import (
    ColdSegmentReader,
    fetch_columns,
    keys_filename,
    load_keys,
    row_bytes,
    save_keys,
    store_from_blob,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..index.segmented.lsm import Segment, SegmentedS3Index

TIER_HOT = "hot"
TIER_WARM = "warm"
TIER_COLD = "cold"
TIERS = (TIER_HOT, TIER_WARM, TIER_COLD)

#: Default cold-blob directory name inside an index directory.
DEFAULT_COLD_DIR = "cold"


@dataclass(frozen=True)
class StorageConfig:
    """How an index's segments are tiered.

    ``budget_bytes`` bounds the summed store payload of hot + warm
    segments (``None`` = unbounded, nothing ever demotes).  The cold
    backend is either ``backend`` (an explicit object — tests pass the
    fault-injectable fake) or a :class:`FileBlobBackend` over
    ``cold_dir`` (relative paths resolve against the index directory;
    ``None`` falls back to ``<index>/cold``).  ``promote_after`` is
    validated and read by nothing — see the perf-compat note in
    :mod:`repro.index.batch`.
    """

    budget_bytes: Optional[int] = None
    cold_dir: Optional[str] = None
    backend: Optional[BlobBackend] = None
    promote_after: int = 2

    def __post_init__(self) -> None:
        if self.budget_bytes is not None and self.budget_bytes < 0:
            raise StorageError(
                f"budget_bytes must be >= 0, got {self.budget_bytes}"
            )
        if self.promote_after < 1:
            raise StorageError(
                f"promote_after must be >= 1, got {self.promote_after}"
            )

    # ------------------------------------------------------------------
    def to_manifest(self) -> dict:
        """The JSON block recorded in ``MANIFEST.json``.

        An explicit backend object cannot be persisted — reopening such
        a directory requires passing the backend again (the in-memory
        fake is gone with the process anyway).
        """
        return {
            "budget_bytes": self.budget_bytes,
            "cold_dir": self.cold_dir,
        }

    @classmethod
    def from_manifest(cls, payload: dict) -> "StorageConfig":
        """The config of a ``storage`` block.  Other keys (such as
        ``promote_after``, which older versions wrote) are ignored."""
        return cls(
            budget_bytes=payload.get("budget_bytes"),
            cold_dir=payload.get("cold_dir"),
        )


@dataclass
class TierStats:
    """Counters of tier activity since the manager was created."""

    fetches: int = 0
    fetch_rows: int = 0
    fetch_bytes: int = 0
    fetch_seconds: float = 0.0
    full_fetches: int = 0
    full_fetch_bytes: int = 0
    demotions: int = 0
    cold_errors: int = 0

    def snapshot(self) -> dict:
        return {
            "fetches": self.fetches,
            "fetch_rows": self.fetch_rows,
            "fetch_bytes": self.fetch_bytes,
            "fetch_seconds": round(self.fetch_seconds, 6),
            "full_fetches": self.full_fetches,
            "full_fetch_bytes": self.full_fetch_bytes,
            "demotions": self.demotions,
            "cold_errors": self.cold_errors,
        }


class TierManager:
    """Residency controller of one segmented index (see module docs)."""

    def __init__(
        self,
        index: "SegmentedS3Index",
        config: StorageConfig,
    ):
        self.index = index
        self.config = config
        self.budget_bytes = config.budget_bytes
        if config.backend is not None:
            self.backend = config.backend
            self.cold_dir: Optional[Path] = None
        else:
            cold = Path(config.cold_dir or DEFAULT_COLD_DIR)
            if not cold.is_absolute():
                cold = index.directory / cold
            self.cold_dir = cold
            self.backend = FileBlobBackend(cold)
        self.stats = TierStats()
        # Guards stats: fetch_ranges runs on every query thread and
        # load_store on the maintenance worker.
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _count(self, **deltas) -> None:
        """Add *deltas* to the named :class:`TierStats` counters, atomically."""
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    def segment_bytes(self, seg: "Segment") -> int:
        """Store-payload size of one segment (budget units)."""
        return seg.meta.count * row_bytes(self.index.ndims)

    def resident_bytes(self) -> int:
        return sum(
            self.segment_bytes(seg)
            for seg in self.index._segments
            if seg.index is not None
        )

    # ------------------------------------------------------------------
    # fetch paths
    # ------------------------------------------------------------------
    def fetch_ranges(
        self, seg: "Segment", ranges
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fetch exactly *ranges* of a cold segment's columns.

        *ranges* are ``(start, end)`` row pairs or an ``(n, 2)`` array;
        the fetch is one backend call (:func:`fetch_columns`).  Returns
        ``(ids, timecodes, fingerprints)`` in range order, in arrays the
        caller owns — byte-identical to a resident gather of the same
        rows.  Counts the fetched payload bytes (the eq.-(5)
        ``bytes_loaded`` of the real executor).  Safe on any thread.
        """
        name = seg.meta.name
        t0 = time.perf_counter()
        try:
            ids, tcs, fps, fetched = fetch_columns(
                self.backend, name, seg.meta.count, self.index.ndims, ranges
            )
        except ColdFetchError:
            self._count(cold_errors=1)
            raise
        self._count(
            fetches=1, fetch_rows=int(ids.size), fetch_bytes=fetched,
            fetch_seconds=time.perf_counter() - t0,
        )
        return ids, tcs, fps

    def load_store(self, seg: "Segment") -> FingerprintStore:
        """The full store of *seg*, fetching the blob when cold.

        Compaction uses this: cold inputs are fetched whole, merged,
        and their blobs discarded once the manifest has switched over.
        """
        if seg.index is not None:
            return seg.index.store
        name = seg.meta.name
        t0 = time.perf_counter()
        try:
            data = self.backend.get(name)
        except Exception as exc:
            self._count(cold_errors=1)
            raise ColdFetchError(name, f"backend read failed: {exc}") from exc
        store = store_from_blob(name, data, seg.meta.count, self.index.ndims)
        self._count(
            full_fetches=1, full_fetch_bytes=len(data),
            fetch_seconds=time.perf_counter() - t0,
        )
        return store

    # ------------------------------------------------------------------
    # demotion (the write path only)
    # ------------------------------------------------------------------
    def demote(self, seg: "Segment") -> bool:
        """Resident → cold: blob + keys durable first, manifest, unlink.

        Copy-on-write: *seg* itself is untouched; a replacement Segment
        carrying the cold reader is swapped into the live view, so a
        query pinned on the old view keeps scanning the resident store
        (hot array or POSIX-unlinked mmap) it captured.  Returns
        ``False`` when *seg* was no longer live (e.g. compacted away
        while the upload ran) — then nothing changed.
        """
        if seg.index is None:
            return False
        from ..index.segmented.lsm import Segment
        from ..index.segmented.manifest import SegmentMeta

        index = self.index
        name = seg.meta.name
        path = index.directory / (name + ".store")
        if not path.is_file():  # hot segment never saved (cannot happen
            seg.index.store.save(path)  # post-flush, but stay safe)
        self.backend.put(name, path.read_bytes())
        layout = seg.index.layout
        keys_path = index.directory / keys_filename(name)
        save_keys(
            keys_path, np.asarray(layout.keys, dtype=np.uint64),
            layout.key_bits,
        )
        reader = ColdSegmentReader(
            name, seg.meta.count, index.ndims, index.manifest.order,
            index.manifest.key_levels,
            load_keys(keys_path, seg.meta.count, layout.key_bits),
        )
        replacement = Segment(
            meta=SegmentMeta(name, seg.meta.count, seg.meta.sketch, TIER_COLD),
            index=None,
            sketch=seg.sketch,
            cold=reader,
        )
        if not index._swap_segment(seg, replacement):
            # The segment left the manifest while we uploaded; the early
            # blob/keys are orphans the usual GC reclaims.
            self.discard_blob(name)
            keys_path.unlink(missing_ok=True)
            return False
        path.unlink(missing_ok=True)
        self._count(demotions=1)
        return True

    def enforce_budget(self) -> int:
        """Demote resident segments, oldest first in manifest order,
        until the resident bytes fit the budget; returns the count.

        The index calls this at :meth:`attach_storage
        <repro.index.segmented.lsm.SegmentedS3Index.attach_storage>`,
        after a seal and after a compaction, under its maintenance lock
        — the only places the index itself changes a tier.
        """
        if self.budget_bytes is None:
            return 0
        demoted = 0
        while self.resident_bytes() > self.budget_bytes:
            oldest = next(
                (seg for seg in self.index._segments if seg.index is not None),
                None,
            )
            if oldest is None or not self.demote(oldest):
                break
            demoted += 1
        return demoted

    def settle(self) -> None:
        """No-op: queries never move segments.  Kept for the frozen
        ``perf/workloads/tiered_scan.py`` (see the perf-compat note in
        :mod:`repro.index.batch`)."""

    # ------------------------------------------------------------------
    # GC + lifecycle
    # ------------------------------------------------------------------
    def discard_blob(self, name: str) -> None:
        """Delete the blob of a segment that left the manifest."""
        try:
            self.backend.delete(name)
        except Exception:  # pragma: no cover - GC is best-effort
            pass

    def collect_orphan_blobs(self) -> int:
        """Delete blobs whose segment is gone from the manifest.

        Blobs of *any* manifest segment are kept, whatever its tier — a
        crash between a demotion's blob upload and its manifest flip
        leaves a resident segment with an early blob, which the next
        demotion reuses.  Returns the number deleted.
        """
        live = {seg.name for seg in self.index.manifest.segments}
        removed = 0
        try:
            names = self.backend.keys()
        except Exception:  # pragma: no cover - GC is best-effort
            return 0
        for name in names:
            if name not in live:
                self.discard_blob(name)
                removed += 1
        return removed

    def snapshot(self) -> dict:
        """The ``storage`` stats block (serve ``stats``, ``tier status``).

        ``promotions``, ``prefetch_hits`` and ``prefetch_misses`` are
        always 0 — see the perf-compat note in :mod:`repro.index.batch`.
        """
        return {
            "budget_bytes": self.budget_bytes,
            "backend": type(self.backend).__name__,
            "cold_dir": str(self.cold_dir) if self.cold_dir else None,
            "resident_bytes": self.resident_bytes(),
            "counters": {
                **self.stats.snapshot(),
                "promotions": 0,
                "prefetch_hits": 0,
                "prefetch_misses": 0,
            },
        }

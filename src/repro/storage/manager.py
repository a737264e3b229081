"""The tier manager: residency, budget, promotion/demotion, fetch.

Every sealed segment of a :class:`~repro.index.segmented.lsm.SegmentedS3Index`
is in exactly one tier:

* **hot** — its :class:`~repro.index.store.FingerprintStore` is in RAM
  (freshly sealed segments, or ``open(mmap=False)``);
* **warm** — the store is an ``np.memmap`` of the local ``save()`` file
  (``open(mmap=True)``, and the landing tier of a promotion);
* **cold** — the store bytes live only in the blob backend; locally the
  segment keeps its ``.sketch`` and ``.keys`` sidecars, so block
  selection and sketch pruning never touch the backend.

The :class:`TierManager` enforces a byte budget over the *resident*
(hot + warm) tiers with LRU-by-last-scan demotion, promotes cold
segments back up after ``promote_after`` scans (hysteresis — one
stray query does not trigger a full segment download), and records
every segment's tier in ``MANIFEST.json`` so a reopened directory
resumes in the same shape.

All tier **transitions** are **copy-on-write**: a transition builds a
*replacement* :class:`Segment` (new meta, new index or cold reader) and
swaps it into the index's live view atomically
(:meth:`SegmentedS3Index._swap_segment`).  The old Segment object is
never mutated, so a query pinned on a snapshot view keeps a working
store or reader however the live tiering moves — the slow I/O (blob
upload/download) happens entirely outside the index's locks.
Transitions run inside :meth:`settle`, which the engine serialises
under its maintenance lock — inline after a query/flush/compaction, or
on the background maintenance worker when one is running (queries then
only *request* a settle and never perform transitions themselves).

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
from ..index.store import FingerprintStore, expected_file_size
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
    ``None`` falls back to ``<index>/cold``).  ``promote_after`` is the
    promotion hysteresis: a cold segment is fetched whole and promoted
    only after this many distinct scans hit it.
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
            "promote_after": self.promote_after,
        }

    @classmethod
    def from_manifest(cls, payload: dict) -> "StorageConfig":
        return cls(
            budget_bytes=payload.get("budget_bytes"),
            cold_dir=payload.get("cold_dir"),
            promote_after=int(payload.get("promote_after", 2) or 2),
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
    promotions: int = 0
    climbs: int = 0
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
            "promotions": self.promotions,
            "climbs": self.climbs,
            "demotions": self.demotions,
            "cold_errors": self.cold_errors,
        }


@dataclass
class _SegState:
    """Per-segment LRU / hysteresis bookkeeping (in-memory only)."""

    last_scan: int = 0
    cold_touches: int = 0


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
        self.promote_after = config.promote_after
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
        self._clock = 0
        self._state: dict[str, _SegState] = {}
        # Guards _clock/_state: touch() runs on every query thread while
        # settle() reads the same bookkeeping on the maintenance worker.
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _count(self, **deltas) -> None:
        """Add *deltas* to the named :class:`TierStats` counters, atomically."""
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    def _seg_state(self, name: str) -> _SegState:
        state = self._state.get(name)
        if state is None:
            state = self._state[name] = _SegState()
        return state

    def touch(self, seg: "Segment") -> None:
        """Record that a scan hit *seg* (drives LRU and hysteresis)."""
        with self._state_lock:
            self._clock += 1
            state = self._seg_state(seg.meta.name)
            state.last_scan = self._clock
            if seg.index is None:
                state.cold_touches += 1

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
    # tier transitions (calling thread only)
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
        if not index._swap_segment(seg, replacement, persist=True):
            # The segment left the manifest while we uploaded; the early
            # blob/keys are orphans the usual GC reclaims.
            self.discard_blob(name)
            keys_path.unlink(missing_ok=True)
            return False
        path.unlink(missing_ok=True)
        with self._state_lock:
            self._seg_state(name).cold_touches = 0
        self._count(demotions=1)
        return True

    def promote(self, seg: "Segment") -> bool:
        """Cold → warm: fetch the blob, restore the local mmap store.

        Copy-on-write like :meth:`demote`: the fetch and file restore
        run without touching *seg*; the warm replacement is swapped in
        at the end (``False`` when the segment is no longer live).
        """
        if seg.index is not None:
            return False
        from ..index.s3 import S3Index
        from ..index.segmented.lsm import Segment
        from ..index.segmented.manifest import SegmentMeta

        index = self.index
        name = seg.meta.name
        path = index.directory / (name + ".store")
        t0 = time.perf_counter()
        try:
            data = self.backend.get(name)
        except Exception as exc:
            self._count(cold_errors=1)
            raise ColdFetchError(name, f"backend read failed: {exc}") from exc
        expected = expected_file_size(seg.meta.count, index.ndims)
        if len(data) < expected:
            self._count(cold_errors=1)
            raise ColdFetchError(
                name, f"blob truncated: {len(data)} bytes, expected {expected}"
            )
        self._count(
            full_fetches=1, full_fetch_bytes=len(data),
            fetch_seconds=time.perf_counter() - t0,
        )
        tmp = path.with_suffix(".store.tmp")
        tmp.write_bytes(data)
        tmp.replace(path)
        store = FingerprintStore.load(path, mmap=True)
        replacement = Segment(
            meta=SegmentMeta(name, seg.meta.count, seg.meta.sketch, TIER_WARM),
            index=S3Index(
                store,
                order=index.manifest.order,
                key_levels=index.manifest.key_levels,
                depth=index.manifest.depth,
                model=index.model,
                layout=(seg.cold.layout if seg.cold is not None else None),
            ),
            sketch=seg.sketch,
        )
        if not index._swap_segment(seg, replacement, persist=True):
            path.unlink(missing_ok=True)
            return False
        with self._state_lock:
            state = self._seg_state(name)
            state.cold_touches = 0
            state.last_scan = self._clock  # just-promoted = recently used
        self._count(promotions=1)
        return True

    def _climb(self, seg: "Segment") -> bool:
        """Warm → hot: replace the mmap store with an in-RAM copy.

        Advisory (tier ``hot`` is the manifest default), so the swap
        does not rewrite the manifest file.
        """
        from ..index.s3 import S3Index
        from ..index.segmented.lsm import Segment
        from ..index.segmented.manifest import SegmentMeta

        store = seg.index.store
        ram = FingerprintStore(
            fingerprints=np.array(store.fingerprints),
            ids=np.array(store.ids),
            timecodes=np.array(store.timecodes),
        )
        replacement = Segment(
            meta=SegmentMeta(
                seg.meta.name, seg.meta.count, seg.meta.sketch, TIER_HOT
            ),
            index=S3Index(
                ram,
                order=self.index.manifest.order,
                key_levels=self.index.manifest.key_levels,
                depth=self.index.manifest.depth,
                model=self.index.model,
                layout=seg.index.layout,
            ),
            sketch=seg.sketch,
        )
        if not self.index._swap_segment(seg, replacement, persist=False):
            return False
        self._count(climbs=1)
        return True

    def settle(self) -> None:
        """Apply pending promotions, then enforce the budget.

        Serialised by the engine (inline after a query / flush /
        compaction, or on the maintenance worker) — the only place
        tiers ever change while an index is live.  The per-segment
        bookkeeping is snapshotted under the state lock; the
        transitions themselves run outside it (they only swap views).
        """
        for seg in list(self.index._segments):
            with self._state_lock:
                state = self._state.get(seg.meta.name)
                if state is None:
                    continue
                touches = state.cold_touches
                last_scan = state.last_scan
            if (
                seg.index is None
                and touches >= self.promote_after
                and (
                    self.budget_bytes is None
                    or self.segment_bytes(seg) <= self.budget_bytes
                )
            ):
                self.promote(seg)
            elif (
                seg.index is not None
                and seg.meta.tier == TIER_WARM
                and touches == 0
                and last_scan > 0
                and self.budget_bytes is not None
                and self.resident_bytes() <= self.budget_bytes
                and self._warm_scans(seg, last_scan) >= 2 * self.promote_after
            ):
                self._climb(seg)
        self.enforce_budget()

    def _warm_scans(self, seg: "Segment", last_scan: int) -> int:
        # Scans since promotion are not tracked separately; climbing is
        # gated on overall recency instead: only the most recently
        # scanned warm segment climbs, one per settle.
        with self._state_lock:
            most_recent = max(
                (
                    self._state.get(s.meta.name, _SegState()).last_scan
                    for s in self.index._segments
                    if s.index is not None and s.meta.tier == TIER_WARM
                ),
                default=0,
            )
        return 2 * self.promote_after if last_scan == most_recent \
            else 0

    def enforce_budget(self) -> int:
        """Demote LRU resident segments until within budget; returns count."""
        if self.budget_bytes is None:
            return 0
        demoted = 0
        while self.resident_bytes() > self.budget_bytes:
            with self._state_lock:
                victims = [
                    (
                        self._state.get(
                            seg.meta.name, _SegState()
                        ).last_scan,
                        i,
                        seg,
                    )
                    for i, seg in enumerate(self.index._segments)
                    if seg.index is not None
                ]
            if not victims:
                break
            victims.sort(key=lambda v: (v[0], v[1]))
            if not self.demote(victims[0][2]):
                break
            demoted += 1
        return demoted

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

        ``prefetch_hits`` and ``prefetch_misses`` are always 0 — see the
        perf-compat note in :mod:`repro.index.batch`.
        """
        return {
            "budget_bytes": self.budget_bytes,
            "backend": type(self.backend).__name__,
            "cold_dir": str(self.cold_dir) if self.cold_dir else None,
            "promote_after": self.promote_after,
            "resident_bytes": self.resident_bytes(),
            "counters": {
                **self.stats.snapshot(),
                "prefetch_hits": 0,
                "prefetch_misses": 0,
            },
        }

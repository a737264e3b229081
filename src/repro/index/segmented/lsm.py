"""The segmented (LSM-style) S³ index: online ingestion over sealed segments.

The paper's S³ structure is static — "no dynamic insertion or deletion
are possible" — which matches its batch experiments but not its
operational setting (INA references new broadcast material every day).
:class:`SegmentedS3Index` converts the structure into a servable,
continuously growing engine with the classic log-structured recipe:

* inserts land in a mutable in-memory **memtable** after being made
  durable in a **write-ahead log** (:mod:`.wal` — per-append, group or
  async fsync, see the ``durability`` knob);
* when the memtable exceeds ``flush_rows`` it is **sealed**: sorted along
  the Hilbert curve and written as an immutable segment — a
  :class:`~repro.index.store.FingerprintStore` +
  :class:`~repro.index.table.HilbertLayout` pair in the existing on-disk
  format — after which the WAL is rotated;
* **compaction** (:mod:`.compaction`) merges small segments back into one
  Hilbert-ordered segment so query fan-out stays bounded;
* queries compute the block selection **once** (it depends only on the
  query, the distortion model and the shared curve geometry — not on the
  data) and read it from every sealed segment plus the memtables in one
  scan — the scan a static :class:`~repro.index.s3.S3Index` runs over its
  one part.  The answer therefore holds the records a monolithic
  :class:`~repro.index.s3.S3Index` over their union would return, for
  every query kind.

A ``MANIFEST.json`` (:mod:`.manifest`) tracks the live segments and the
current WAL; reopening a directory after a crash replays the WAL, so no
acknowledged insert is ever lost.

**Snapshot isolation.**  All live structure hangs off one immutable
:class:`_LiveView` — the tuple of sealed segments, the tuple of frozen
(seal-pending) memtables, and the active memtable.  Writers (seal,
compaction, demotion) build a *new* view and swap it atomically
under the state lock; readers capture the current view once per query
(:meth:`SegmentedS3Index._read_view`) and scan that consistent set even
while a background seal or compaction switches the live one over.
Sealing is split into **freeze** (rotate the WAL, park the memtable on
the frozen list — cheap, blocks appends only for the rotation) and
**seal** (curve-sort and write the segment — heavy, runs entirely off
the ingest path), so a :class:`.maintenance.MaintenanceThread` can do
the heavy half in the background while queries and ingest proceed.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from ...distortion.model import IndependentDistortionModel, NormalDistortionModel
from ...errors import (
    ConfigurationError,
    IndexError_,
    IngestBackpressure,
    StorageError,
)
from ...hilbert.butz import HilbertCurve
from ..parts import ViewPlan
from ..s3 import QueryStats, S3Index, S3Queries
from ..store import FingerprintStore, PathLike
from .compaction import CompactionPolicy
from .maintenance import MaintenanceThread
from .manifest import (
    Manifest,
    SegmentMeta,
    segment_filename,
    wal_filename,
)
from .memtable import MemTable
from .sketch import SegmentSketch, SketchConfig, sketch_filename
from .wal import WriteAheadLog, replay

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ...storage.coldseg import ColdSegmentReader
    from ...storage.manager import StorageConfig, TierManager

#: While the maintenance worker runs, ``add`` sheds once this many
#: ``flush_rows`` of records are unsealed (active + frozen memtables).
SHED_FLUSHES = 4


@dataclass
class SegmentedQueryStats(QueryStats):
    """Aggregated cost of one segmented query across its segments.

    ``segments_scanned`` counts every live segment the query covered
    (its historical meaning); ``segments_skipped`` counts how many of
    those the sketch tier proved empty without touching their store, and
    ``blocks_skipped`` the selected blocks pruned per segment before the
    row-range lookup.
    """

    segments_scanned: int = 0
    segments_skipped: int = 0
    blocks_skipped: int = 0
    memtable_rows_scanned: int = 0


@dataclass
class Segment:
    """One sealed, immutable segment: manifest entry, index and sketch.

    ``sketch`` is ``None`` only transiently (segments from directories
    written before the sketch tier, prior to the rebuild in
    :meth:`SegmentedS3Index.open`), and in the one-segment read view of
    a static :class:`S3Index`.

    Exactly one of ``index`` / ``cold`` is set: a **resident** segment
    (hot or warm tier) carries its :class:`S3Index`; a **cold** one
    carries a :class:`~repro.storage.coldseg.ColdSegmentReader` — keys
    sidecar only, store bytes in the blob backend.  ``layout`` abstracts
    over the two, so block selection code never cares about tiers.

    Segment objects are themselves immutable once published in a view:
    a demotion builds a *replacement* Segment and swaps it in
    (:meth:`SegmentedS3Index._swap_segment`), so a query pinned on an
    old view keeps a usable object however the live tiering moves.
    """

    meta: SegmentMeta
    index: Optional[S3Index]
    sketch: Optional[SegmentSketch] = None
    cold: Optional["ColdSegmentReader"] = None

    @property
    def resident(self) -> bool:
        return self.index is not None

    @property
    def layout(self):
        """The segment's :class:`HilbertLayout`, whatever its tier."""
        if self.index is not None:
            return self.index.layout
        if self.cold is None:
            raise StorageError(
                f"segment {self.meta.name} has neither index nor cold reader"
            )
        return self.cold.layout


@dataclass
class CompactionResult:
    """Outcome of one compaction step."""

    merged_segments: int
    merged_rows: int
    segment_name: str
    seconds: float


@dataclass(frozen=True)
class _FrozenMemtable:
    """A memtable parked between freeze and seal (immutable).

    ``wal_names`` are the log files backing its records — removed from
    the manifest's ``frozen_wals`` and unlinked only once the segment
    they seal into is durable.  ``seal_seq`` is the sequence number the
    freeze reserved for both the rotated WAL and the eventual segment,
    so one flush consumes one number (``seg-N`` next to ``wal-N``,
    exactly as the pre-pipelined inline seal named them).
    """

    memtable: MemTable
    rows: int
    wal_names: tuple[str, ...]
    seal_seq: int


@dataclass(frozen=True)
class _LiveView:
    """The atomically-swapped snapshot of all live structure.

    ``plan`` is the segments' :class:`~repro.index.parts.ViewPlan`,
    built once when the segment set is published (:meth:`of`) and
    dropped with the view; a view that changes only its memtables keeps
    it (``dataclasses.replace``).
    """

    segments: tuple[Segment, ...]
    frozen: tuple[_FrozenMemtable, ...]
    memtable: MemTable
    plan: ViewPlan

    @classmethod
    def of(
        cls,
        segments: tuple[Segment, ...],
        frozen: tuple[_FrozenMemtable, ...],
        memtable: MemTable,
    ) -> "_LiveView":
        """A view publishing the segment set *segments*."""
        return cls(segments, frozen, memtable, ViewPlan.build(segments))


class ReadView(NamedTuple):
    """What one query scans: a pinned, internally consistent snapshot.

    ``memtable_rows`` bounds the active-memtable scan to the rows that
    were published when the snapshot was taken — appends racing the
    query are excluded wholesale instead of half-seen.  A static
    :class:`S3Index`'s view is one resident segment and no memtable.
    """

    segments: tuple[Segment, ...]
    frozen: tuple[_FrozenMemtable, ...] = ()
    memtable: Optional[MemTable] = None
    memtable_rows: int = 0
    plan: Optional[ViewPlan] = None

    @property
    def memtables(self) -> list[tuple[MemTable, int]]:
        """Each memtable — frozen ones oldest first, then the active
        one — with the rows the view captured of it."""
        parts = [(f.memtable, f.rows) for f in self.frozen]
        if self.memtable is not None:
            parts.append((self.memtable, self.memtable_rows))
        return parts


class _RWGate:
    """Writer-preferring reader-writer gate for WAL rotation.

    Appenders hold the shared side across WAL append + memtable insert,
    so the exclusive side (freeze) observes no in-flight append: every
    acknowledged record is in *both* the log being rotated out and the
    memtable being frozen, or in neither.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    @contextmanager
    def shared(self):
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def exclusive(self):
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._writer = True
            while self._readers:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class SegmentedS3Index(S3Queries):
    """A live, crash-recoverable S³ index composed of sealed segments.

    Use :meth:`create` to initialise a fresh directory and :meth:`open`
    to reopen one (replaying the WAL).  All segments share one geometry
    — dimension, curve order, key levels, partition depth — fixed at
    creation time and recorded in the manifest.

    Thread model: any number of query threads plus any number of ingest
    threads are safe concurrently (queries pin snapshot views; ingests
    group-commit through the WAL's lock).  Maintenance — seal,
    compaction, budget demotion — is serialised by the maintenance
    lock; :meth:`flush` and :meth:`compact` are the only entries, run
    inline or by the background worker (:meth:`start_maintenance`).

    The query methods are :class:`~repro.index.s3.S3Queries`: a
    selection, then one scan of every segment and memtable of a pinned
    read view.
    """

    _query_stats = SegmentedQueryStats

    def __init__(
        self,
        directory: Path,
        manifest: Manifest,
        segments: list[Segment],
        memtable: MemTable,
        wal: WriteAheadLog,
        model: Optional[IndependentDistortionModel],
        flush_rows: int,
        policy: CompactionPolicy,
        auto_compact: bool,
    ):
        self.directory = directory
        self.manifest = manifest
        self._view = _LiveView.of(tuple(segments), (), memtable)
        self._wal = wal
        self.model = model
        self.flush_rows = flush_rows
        self.policy = policy
        self.auto_compact = auto_compact
        self.curve = HilbertCurve(manifest.ndims, manifest.order)
        #: The tier manager, set by :meth:`attach_storage` (directly or
        #: via :meth:`open`'s ``storage=``).  ``None`` = untiered: every
        #: segment resident, no budget, no blob backend.
        self.storage: Optional["TierManager"] = None
        # Concurrency: view swaps + manifest writes under _state_lock;
        # memtable inserts under _ingest_lock; seal/compact and budget
        # demotions under _maint_lock; WAL rotation behind the gate's
        # exclusive side.
        self._state_lock = threading.RLock()
        self._ingest_lock = threading.Lock()
        self._maint_lock = threading.RLock()
        self._wal_gate = _RWGate()
        #: WAL files backing the *active* memtable (more than one right
        #: after an open() that replayed frozen logs).
        self._active_wal_names: list[str] = (
            list(manifest.frozen_wals) + [manifest.wal]
        )
        self._maintenance: Optional[MaintenanceThread] = None
        self._shed_count = 0
        # Segments sealed and compactions run by this handle (bumped
        # under _maint_lock; the worker reports its share of them).
        self._seals = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: PathLike,
        ndims: int,
        order: int = 8,
        key_levels: int = 2,
        depth: Optional[int] = None,
        model: Optional[IndependentDistortionModel] = None,
        flush_rows: int = 8192,
        policy: Optional[CompactionPolicy] = None,
        auto_compact: bool = True,
        sync: bool = True,
        durability: Optional[str] = None,
        storage: Optional["StorageConfig"] = None,
    ) -> "SegmentedS3Index":
        """Initialise a fresh segmented index in *directory*.

        With *storage*, the directory is tiered from birth: the config
        is recorded in the manifest and sealed segments demote to the
        blob backend whenever the resident set exceeds the budget.

        *durability* picks the WAL fsync policy (``"always"``,
        ``"group"`` or ``"async"``, see :mod:`.wal`).  ``sync=False``
        without a *durability* means ``"async"`` (perf-compat, see
        :mod:`repro.index.batch`).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if Manifest.exists(directory):
            raise IndexError_(
                f"already a segmented index directory: {directory}"
            )
        if ndims < 1:
            raise ConfigurationError(f"ndims must be >= 1, got {ndims}")
        key_bits = key_levels * ndims
        if not 1 <= key_bits <= 64:
            raise ConfigurationError(
                f"key_levels * ndims must be in [1, 64], got {key_bits}"
            )
        if depth is None:
            depth = min(16, key_bits)
        if not 1 <= depth <= key_bits:
            raise ConfigurationError(
                f"depth must be in [1, {key_bits}], got {depth}"
            )
        if model is not None and model.ndims != ndims:
            raise ConfigurationError(
                f"model dimension {model.ndims} != index dimension {ndims}"
            )
        if flush_rows < 1:
            raise ConfigurationError(
                f"flush_rows must be >= 1, got {flush_rows}"
            )
        manifest = Manifest(
            ndims=ndims,
            order=order,
            key_levels=key_levels,
            depth=depth,
            sigma=getattr(model, "sigma", None),
            next_seq=1,
            wal=wal_filename(0),
        )
        if durability is None:
            durability = "always" if sync else "async"
        wal = WriteAheadLog.create(
            directory / manifest.wal, ndims, durability=durability
        )
        manifest.save(directory)
        memtable = MemTable(ndims, order, key_levels)
        index = cls(
            directory, manifest, [], memtable, wal, model,
            flush_rows, policy or CompactionPolicy(), auto_compact,
        )
        if storage is not None:
            index.attach_storage(storage)
        return index

    @classmethod
    def open(
        cls,
        directory: PathLike,
        model: Optional[IndependentDistortionModel] = None,
        flush_rows: int = 8192,
        policy: Optional[CompactionPolicy] = None,
        auto_compact: bool = True,
        durability: str = "always",
        mmap: bool = False,
        storage: Optional["StorageConfig"] = None,
    ) -> "SegmentedS3Index":
        """Reopen *directory*: load segments, replay the WAL, GC orphans.

        *flush_rows*, *policy*, *auto_compact* and *durability* are
        per-open settings, as in :meth:`create`: none is persisted.

        *model* overrides the manifest's calibrated σ; by default a
        :class:`~repro.distortion.model.NormalDistortionModel` is rebuilt
        from the manifest, mirroring :meth:`repro.index.s3.S3Index.load`.
        With ``mmap=True`` sealed segment stores are memory-mapped
        instead of read into RAM — segment files are curve-ordered on
        disk, so the mapping survives index construction.

        WALs a background freeze parked (``manifest.frozen_wals``) are
        replayed *before* the active WAL, oldest first — a crash at any
        point of a background seal loses no acknowledged record.

        Segments the manifest marks ``cold`` load **sidecars only**
        (sketch + keys) — opening never fetches a cold store from the
        blob backend.  *storage* overrides the manifest's persisted
        tier settings (it is required when the manifest records cold
        segments but no ``cold_dir`` — e.g. a directory tiered against
        an in-memory backend).
        """
        directory = Path(directory)
        manifest = Manifest.load(directory)
        if model is None and manifest.sigma is not None:
            model = NormalDistortionModel(manifest.ndims, manifest.sigma)
        from ...storage.coldseg import ColdSegmentReader, keys_filename, load_keys
        from ...storage.manager import (
            TIER_COLD,
            TIER_HOT,
            TIER_WARM,
            StorageConfig,
        )

        key_bits = manifest.key_levels * manifest.ndims
        segments = []
        manifest_dirty = False
        for meta in manifest.segments:
            path = directory / (meta.name + ".store")
            if meta.tier == TIER_COLD:
                # Sidecars only.  Both were made durable before the
                # manifest flipped the tier, so their absence means real
                # damage, not a crash window.
                sketch_path = directory / sketch_filename(meta.name)
                try:
                    sketch = SegmentSketch.load(sketch_path, key_bits)
                except IndexError_ as exc:
                    raise StorageError(
                        f"cold segment {meta.name} is missing its sketch "
                        f"sidecar ({sketch_path}): {exc}"
                    ) from exc
                keys = load_keys(
                    directory / keys_filename(meta.name), meta.count, key_bits
                )
                reader = ColdSegmentReader(
                    meta.name, meta.count, manifest.ndims,
                    manifest.order, manifest.key_levels, keys,
                )
                # A crash between the manifest flip and the local-store
                # unlink leaves a stale .store; the blob is durable, so
                # the local copy is garbage.
                path.unlink(missing_ok=True)
                segments.append(
                    Segment(meta=meta, index=None, sketch=sketch, cold=reader)
                )
                continue
            store = FingerprintStore.load(path, mmap=mmap)
            if len(store) != meta.count or store.ndims != manifest.ndims:
                raise IndexError_(
                    f"segment {path} does not match its manifest entry: "
                    f"{len(store)}x{store.ndims} vs "
                    f"{meta.count}x{manifest.ndims}"
                )
            index = S3Index(
                store,
                order=manifest.order,
                key_levels=manifest.key_levels,
                depth=manifest.depth,
                model=model,
            )
            # Load the pre-filter sidecar; segments from before the
            # sketch tier (or with a damaged sidecar) get theirs rebuilt
            # and the manifest is rewritten once below.  Rebuild only
            # ever reads the local store — never the blob backend.
            sketch = None
            sketch_path = directory / sketch_filename(meta.name)
            if meta.sketch is not None and sketch_path.is_file():
                try:
                    sketch = SegmentSketch.load(
                        sketch_path, index.layout.key_bits
                    )
                except IndexError_:
                    sketch = None
            if sketch is None:
                sketch = SegmentSketch.build(index.layout)
                sketch.save(sketch_path)
                meta.sketch = sketch.to_meta()
                manifest_dirty = True
            # Residency reflects how we actually loaded, not what the
            # manifest last said (advisory for resident tiers).
            meta.tier = TIER_WARM if mmap else TIER_HOT
            segments.append(Segment(meta=meta, index=index, sketch=sketch))
        if manifest_dirty:
            manifest.save(directory)
        memtable = MemTable(manifest.ndims, manifest.order, manifest.key_levels)
        # Frozen WALs first (oldest first), then the active WAL — the
        # same order the records were acknowledged in.
        for frozen_name in manifest.frozen_wals:
            frozen_path = directory / frozen_name
            if frozen_path.is_file():
                for fp, ids, tcs in replay(frozen_path):
                    memtable.add(fp, ids, tcs)
        wal_path = directory / manifest.wal
        if wal_path.is_file():
            for fp, ids, tcs in replay(wal_path):
                memtable.add(fp, ids, tcs)
            wal = WriteAheadLog.open(wal_path, durability=durability)
        else:
            wal = WriteAheadLog.create(
                wal_path, manifest.ndims, durability=durability
            )
        _collect_orphans(directory, manifest)
        index = cls(
            directory, manifest, segments, memtable, wal, model,
            flush_rows, policy or CompactionPolicy(), auto_compact,
        )
        config = storage
        if config is None and manifest.storage is not None:
            config = StorageConfig.from_manifest(manifest.storage)
        has_cold = any(s.meta.tier == TIER_COLD for s in segments)
        if config is None and has_cold:
            raise StorageError(
                f"{directory} has cold segments but no storage "
                "configuration: pass storage=StorageConfig(...) to open()"
            )
        if config is not None:
            index.attach_storage(config, persist=storage is not None)
        return index

    def attach_storage(
        self, config: "StorageConfig", persist: bool = True
    ) -> "TierManager":
        """Put this index under tiered-storage management.

        Creates the :class:`~repro.storage.manager.TierManager`, records
        the config as the manifest's storage block when it is
        representable (an explicit backend object is not) — saved now
        when *persist*, else by the next manifest write — GCs orphan
        blobs, and immediately enforces the budget (a freshly opened
        directory demotes down to it before serving anything).  From
        then on only seals and compactions enforce it: queries never
        move segments.
        """
        from ...storage.manager import TierManager

        if self.storage is not None:
            raise StorageError("storage is already attached to this index")
        manager = TierManager(self, config)
        self.storage = manager
        if config.backend is None:
            with self._state_lock:
                self.manifest.storage = config.to_manifest()
                if persist:
                    self.manifest.save(self.directory)
        manager.collect_orphan_blobs()
        with self._maint_lock:
            manager.enforce_budget()
        return manager

    def storage_info(self) -> dict:
        """Per-tier residency and activity (``info --json``, serve stats).

        Available on untiered indexes too — then every segment is
        resident and the ``manager`` block is ``None``.
        """
        tiers = {
            tier: {"segments": 0, "rows": 0, "bytes": 0}
            for tier in ("hot", "warm", "cold")
        }
        per_row = self.ndims + 4 + 8
        for seg in self._view.segments:
            bucket = tiers[seg.meta.tier]
            bucket["segments"] += 1
            bucket["rows"] += seg.meta.count
            bucket["bytes"] += seg.meta.count * per_row
        return {
            "tiered": self.storage is not None,
            "tiers": tiers,
            "manager": (
                self.storage.snapshot() if self.storage is not None else None
            ),
        }

    def close(self) -> None:
        """Stop maintenance, close the WAL (records stay durable)."""
        self.stop_maintenance()
        self._wal.close()

    def __enter__(self) -> "SegmentedS3Index":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # background maintenance
    # ------------------------------------------------------------------
    @property
    def maintenance(self) -> Optional[MaintenanceThread]:
        """The background worker, or ``None`` when maintenance is inline."""
        return self._maintenance

    def start_maintenance(
        self, on_change: Optional[Callable[[str], None]] = None
    ) -> MaintenanceThread:
        """Move seal/compaction onto a background worker.

        From this point ``add`` never seals inline: reaching
        ``flush_rows`` requests a background ``flush()``, and an ingest
        that finds ``SHED_FLUSHES * flush_rows`` unsealed rows sheds
        with :class:`IngestBackpressure` instead of stalling the caller.
        *on_change* is the worker's observer (see
        :class:`.maintenance.MaintenanceThread`).
        """
        if self._maintenance is not None:
            raise ConfigurationError(
                "maintenance is already running for this index"
            )
        self._maintenance = MaintenanceThread(self, on_change)
        return self._maintenance

    def stop_maintenance(self, drain: bool = True) -> None:
        """Stop the background worker (draining queued jobs first)."""
        worker = self._maintenance
        if worker is not None:
            self._maintenance = None
            worker.close(drain=drain)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def ndims(self) -> int:
        return self.manifest.ndims

    @property
    def depth(self) -> int:
        return self.manifest.depth

    @property
    def durability(self) -> str:
        """The WAL fsync policy (``always`` / ``group`` / ``async``)."""
        return self._wal.durability

    @property
    def num_segments(self) -> int:
        return len(self._view.segments)

    @property
    def _segments(self) -> list[Segment]:
        """The current view's segments (legacy accessor; do not mutate)."""
        return list(self._view.segments)

    @property
    def _memtable(self) -> MemTable:
        """The current active memtable (legacy accessor)."""
        return self._view.memtable

    @property
    def segments(self) -> list[SegmentMeta]:
        """Manifest entries of the live segments (copies)."""
        return [
            SegmentMeta(s.meta.name, s.meta.count, s.meta.sketch, s.meta.tier)
            for s in self._view.segments
        ]

    def prefilter_info(self) -> dict:
        """Resident-footprint summary of the sketch tier and of the
        view's scan plan (its part-tagged occupancy: 8 bytes per
        occupied prefix, none for one part)."""
        view = self._view
        sketches = [s.sketch for s in view.segments if s.sketch is not None]
        return {
            "segments": len(view.segments),
            "sketches": len(sketches),
            "depth": SketchConfig.depth,
            "resident_bytes": sum(s.nbytes() for s in sketches),
            "plan_occupancy_bytes": view.plan.nbytes(),
        }

    @property
    def pending_rows(self) -> int:
        """Records not yet sealed (active + frozen memtables)."""
        view = self._view
        return sum(f.rows for f in view.frozen) + len(view.memtable)

    def ingest_info(self) -> dict:
        """Write-path pressure: memtable, WAL, compaction debt, worker.

        The shared schema behind ``repro-s3 info --json`` (``ingest``
        block) and ``serve stats``.
        """
        view = self._view
        counts = [s.meta.count for s in view.segments]
        planned = self.policy.plan(counts)
        worker = self._maintenance
        return {
            "durability": self._wal.durability,
            "memtable_rows": len(view.memtable),
            "frozen_memtables": len(view.frozen),
            "frozen_rows": sum(f.rows for f in view.frozen),
            "wal": self._wal.stats(),
            "compaction_debt": {
                "segments": len(planned),
                "rows": sum(counts[i] for i in planned),
            },
            "backpressure_sheds": self._shed_count,
            "maintenance": worker.stats() if worker is not None else None,
        }

    def __len__(self) -> int:
        view = self._view
        return (
            sum(s.meta.count for s in view.segments)
            + sum(f.rows for f in view.frozen)
            + len(view.memtable)
        )

    def _read_view(self) -> ReadView:
        """Pin the current snapshot for one query (cheap, lock-free)."""
        view = self._view
        return ReadView(
            view.segments, view.frozen, view.memtable, len(view.memtable),
            view.plan,
        )

    def record(self, row: int) -> tuple[np.ndarray, int, float]:
        """The ``(fingerprint, id, timecode)`` at global *row*.

        Rows number the sealed segments in manifest order (each in curve
        order), then any frozen memtables (oldest first), then the
        active memtable in insertion order — the same virtual
        concatenation query results index into.
        """
        view = self._read_view()
        total = (
            sum(s.meta.count for s in view.segments)
            + sum(f.rows for f in view.frozen)
            + view.memtable_rows
        )
        if row < 0 or row >= total:
            raise ConfigurationError(
                f"row must be in [0, {total}), got {row}"
            )
        for seg in view.segments:
            if row < seg.meta.count:
                if seg.index is None:
                    # Cold: fetch exactly the one row's columns.
                    ids, tcs, fps = self.storage.fetch_ranges(
                        seg, [(row, row + 1)]
                    )
                    return (fps[0].copy(), int(ids[0]), float(tcs[0]))
                store = seg.index.store
                return (
                    store.fingerprints[row].copy(),
                    int(store.ids[row]),
                    float(store.timecodes[row]),
                )
            row -= seg.meta.count
        for frozen in view.frozen:
            if row < frozen.rows:
                part = frozen.memtable.take(np.array([row]))
                return (
                    part.fingerprints[0].copy(),
                    int(part.ids[0]),
                    float(part.timecodes[0]),
                )
            row -= frozen.rows
        part = view.memtable.take(np.array([row]))
        return (
            part.fingerprints[0].copy(),
            int(part.ids[0]),
            float(part.timecodes[0]),
        )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def add(
        self,
        fingerprints: np.ndarray,
        ids: np.ndarray,
        timecodes: np.ndarray,
    ) -> int:
        """Durably insert a batch of records; returns the number added.

        The batch is appended to the WAL first (fsync per the
        ``durability`` mode — concurrent callers share one fsync in
        ``"group"`` mode), then buffered in the memtable.  Reaching
        ``flush_rows`` runs :meth:`flush` inline, or requests it from
        the worker when maintenance is running; past the backpressure
        limit the insert is shed with :class:`IngestBackpressure`
        (retryable) instead.
        """
        self._check_backpressure()
        with self._wal_gate.shared():
            added = self._wal.append(fingerprints, ids, timecodes)
            if added == 0:
                return 0
            with self._ingest_lock:
                self._view.memtable.add(fingerprints, ids, timecodes)
        if len(self._view.memtable) >= self.flush_rows:
            worker = self._maintenance
            if worker is not None:
                worker.request_seal()
            else:
                self.flush()
        return added

    def _check_backpressure(self) -> None:
        """Shed the ingest when unsealed rows outrun maintenance."""
        worker = self._maintenance
        if worker is None:
            return
        limit = SHED_FLUSHES * self.flush_rows
        pending = self.pending_rows
        if pending < limit:
            return
        worker.request_seal()
        self._shed_count += 1
        raise IngestBackpressure(
            f"ingest shedding: {pending} unsealed rows >= backpressure "
            f"limit {limit}; retry once the background seal catches up",
            pending_rows=pending,
        )

    def flush(self) -> Optional[SegmentMeta]:
        """Seal all buffered records into immutable segments, now.

        Freezes the active memtable and seals every frozen one (oldest
        first), synchronously on the calling thread.  No-op (returns
        ``None``) when nothing is buffered.  Each segment file is fully
        written and fsynced before the manifest references it, and WALs
        are removed only after their records are sealed, so a crash at
        any point loses nothing and duplicates nothing.  With
        ``auto_compact`` one policy :meth:`compact` step follows the
        seal.  The maintenance worker's seal job is this method.
        """
        with self._maint_lock:
            self._freeze_active()
            meta = None
            while self._view.frozen:
                meta = self._seal_oldest_frozen()
            if meta is None:
                return None
            if self.auto_compact:
                self.compact()
            # Sealing may have pushed the resident set over the budget.
            if self.storage is not None:
                self.storage.enforce_budget()
            return meta

    def _freeze_active(self) -> bool:
        """Rotate the WAL and park the active memtable on the frozen list.

        The cheap half of sealing: appenders are excluded only for the
        duration of one WAL create + manifest write.  Crash-safe at
        every step — the old WAL joins ``frozen_wals`` in the manifest
        before the memtable moves, so replay-on-open always covers the
        parked records.
        """
        with self._wal_gate.exclusive():
            if len(self._view.memtable) == 0:
                return False
            with self._state_lock:
                seq = self.manifest.next_seq
                self.manifest.next_seq = seq + 1
            new_name = wal_filename(seq)
            new_wal = WriteAheadLog.create(
                self.directory / new_name, self.ndims,
                durability=self._wal.durability,
            )
            old_wal = self._wal
            backing = tuple(self._active_wal_names)
            with self._state_lock:
                view = self._view
                for name in backing:
                    if name not in self.manifest.frozen_wals:
                        self.manifest.frozen_wals.append(name)
                self.manifest.wal = new_name
                self.manifest.save(self.directory)
                frozen = _FrozenMemtable(
                    memtable=view.memtable,
                    rows=len(view.memtable),
                    wal_names=backing,
                    seal_seq=seq,
                )
                self._view = dataclasses.replace(
                    view,
                    frozen=view.frozen + (frozen,),
                    memtable=MemTable(
                        self.ndims, self.manifest.order,
                        self.manifest.key_levels,
                    ),
                )
                self._wal = new_wal
                self._active_wal_names = [new_name]
            old_wal.close()
            return True

    def _seal_oldest_frozen(self) -> Optional[SegmentMeta]:
        """Seal the oldest frozen memtable into a segment (heavy half).

        Runs entirely off the ingest path: the frozen memtable is
        immutable, so sorting and writing need no locks; only the final
        view/manifest switchover takes the state lock.  The frozen WALs
        are deleted last — after the segment and the manifest that
        references it are durable.
        """
        view = self._view
        if not view.frozen:
            return None
        frozen = view.frozen[0]
        # The freeze reserved this seq alongside the rotated WAL's name.
        segment = self._write_segment(
            segment_filename(frozen.seal_seq), frozen.memtable.to_store()
        )
        with self._state_lock:
            view = self._view
            self.manifest.segments.append(segment.meta)
            self.manifest.frozen_wals = [
                w for w in self.manifest.frozen_wals
                if w not in frozen.wal_names
            ]
            self.manifest.save(self.directory)
            self._view = _LiveView.of(
                view.segments + (segment,), view.frozen[1:], view.memtable
            )
        for wal_name in frozen.wal_names:
            (self.directory / wal_name).unlink(missing_ok=True)
        self._seals += 1
        return segment.meta

    def _write_segment(self, name: str, store: FingerprintStore) -> Segment:
        """Write *store* as segment *name*, durably, with its sketch.

        The one way seal and compaction write a segment: curve-sort the
        rows (inside :class:`S3Index`), save and fsync the store, then
        build the sketch from the sorted layout and save it.  The caller
        references the segment from the manifest only after this
        returns.
        """
        index = S3Index(
            store,
            order=self.manifest.order,
            key_levels=self.manifest.key_levels,
            depth=self.manifest.depth,
            model=self.model,
        )
        seg_path = self.directory / (name + ".store")
        index.store.save(seg_path)
        _fsync_file(seg_path)
        sketch = SegmentSketch.build(index.layout)
        sketch.save(self.directory / sketch_filename(name))
        meta = SegmentMeta(
            name=name, count=len(index.store), sketch=sketch.to_meta()
        )
        return Segment(meta=meta, index=index, sketch=sketch)

    def compact(self, force: bool = False) -> Optional[CompactionResult]:
        """Merge segments according to the policy (everything if *force*).

        Returns ``None`` when there is nothing to merge.  The merge runs
        against a pinned snapshot of the segment set — queries keep
        scanning the old view until the atomic switchover — and the
        merged segment is written and fsynced before the manifest
        switches; the replaced files are deleted last, so a crash
        mid-compaction leaves at worst an orphan file that :meth:`open`
        collects.
        """
        with self._maint_lock:
            snapshot = list(self._view.segments)
            counts = [seg.meta.count for seg in snapshot]
            if force:
                picked = list(range(len(counts))) if len(counts) >= 2 else []
            else:
                picked = self.policy.plan(counts)
            if not picked:
                return None
            t0 = time.perf_counter()
            old = [snapshot[i] for i in picked]
            with self._state_lock:
                seq = self.manifest.next_seq
                self.manifest.next_seq = seq + 1
            # Cold inputs are fetched whole from the blob backend; their
            # blobs are discarded below once the manifest has switched.
            # The merged rows are re-sorted along the curve, so the
            # inputs' sketches are rebuilt, not merged.
            merged = self._write_segment(
                segment_filename(seq),
                FingerprintStore.concatenate(
                    self._segment_store(seg) for seg in old
                ),
            )
            old_names = {seg.meta.name for seg in old}
            with self._state_lock:
                view = self._view
                new_segments: list[Segment] = []
                inserted = False
                for seg in view.segments:
                    if seg.meta.name in old_names:
                        if not inserted:
                            new_segments.append(merged)
                            inserted = True
                        continue
                    new_segments.append(seg)
                self._view = _LiveView.of(
                    tuple(new_segments), view.frozen, view.memtable
                )
                self.manifest.segments = [s.meta for s in new_segments]
                self.manifest.save(self.directory)
            for seg in old:
                (self.directory / (seg.meta.name + ".store")).unlink(
                    missing_ok=True
                )
                (self.directory / sketch_filename(seg.meta.name)).unlink(
                    missing_ok=True
                )
                if self.storage is not None:
                    from ...storage.coldseg import keys_filename

                    (self.directory / keys_filename(seg.meta.name)).unlink(
                        missing_ok=True
                    )
                    self.storage.discard_blob(seg.meta.name)
            if self.storage is not None:
                self.storage.enforce_budget()
            self._compactions += 1
            return CompactionResult(
                merged_segments=len(picked),
                merged_rows=merged.meta.count,
                segment_name=merged.meta.name,
                seconds=time.perf_counter() - t0,
            )

    def _swap_segment(self, old: Segment, new: Segment) -> bool:
        """Atomically replace *old* with *new* in the live view.

        The copy-on-write primitive behind demotion: the old
        Segment object is left untouched, so queries pinned on a view
        that contains it keep a working store/reader.  Returns ``False``
        (no swap, no manifest write) when *old* is no longer live —
        e.g. compacted away while the transition was being prepared.
        """
        with self._state_lock:
            view = self._view
            position = next(
                (i for i, seg in enumerate(view.segments) if seg is old),
                None,
            )
            if position is None:
                return False
            segments = (
                view.segments[:position]
                + (new,)
                + view.segments[position + 1:]
            )
            self._view = _LiveView.of(segments, view.frozen, view.memtable)
            self.manifest.segments = [s.meta for s in segments]
            self.manifest.save(self.directory)
            return True

    def _segment_store(self, seg: Segment) -> FingerprintStore:
        """The full store of *seg*, fetching the blob when cold."""
        if seg.index is not None:
            return seg.index.store
        if self.storage is None:
            raise StorageError(
                f"segment {seg.meta.name} is cold but no storage is attached"
            )
        return self.storage.load_store(seg)

    # ------------------------------------------------------------------
    def _resolve_depth(self, depth: Optional[int]) -> int:
        if depth is None:
            return self.manifest.depth
        key_bits = self.manifest.key_levels * self.ndims
        if not 1 <= depth <= key_bits:
            raise ConfigurationError(
                f"depth must be in [1, {key_bits}], got {depth}"
            )
        return depth


def _fsync_file(path: Path) -> None:
    """Flush a freshly written file's contents to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _collect_orphans(directory: Path, manifest: Manifest) -> None:
    """Delete files a crash left behind (not referenced by the manifest).

    ``.keys`` sidecars are live for **every** manifest segment whatever
    its tier: a resident segment may have been demoted before (the
    sidecar is reused), and a cold one depends on it.  Frozen WALs are
    live until the memtable they back is sealed.  Blob GC is separate
    (:meth:`TierManager.collect_orphan_blobs`) and equally keeps every
    manifest-referenced blob.
    """
    live = {seg.name + ".store" for seg in manifest.segments}
    live |= {sketch_filename(seg.name) for seg in manifest.segments}
    live |= {seg.name + ".keys" for seg in manifest.segments}
    live.add(manifest.wal)
    live |= set(manifest.frozen_wals)
    for path in directory.iterdir():
        name = path.name
        if name.startswith("seg-") and name.endswith(".store") \
                and name not in live:
            path.unlink(missing_ok=True)
        elif name.startswith("seg-") and name.endswith(".sketch") \
                and name not in live:
            path.unlink(missing_ok=True)
        elif name.startswith("seg-") and name.endswith(".keys") \
                and name not in live:
            path.unlink(missing_ok=True)
        elif name.startswith("wal-") and name.endswith(".log") \
                and name not in live:
            path.unlink(missing_ok=True)
        elif name.endswith(".tmp"):
            path.unlink(missing_ok=True)

"""The shard planner: partition a sealed segmented index by key range.

A cluster is planned offline from a sealed :mod:`repro.index.segmented`
directory.  Sealed segments are already curve-sorted — each spans a
contiguous Hilbert-key interval on disk — so they are the natural
assignment unit: the planner orders segments by their minimum key,
splits that order into ``num_shards`` contiguous runs of roughly equal
row count, and derives shard key ranges from the run boundaries.  Every
segment lands in exactly one shard and the shard ranges are disjoint
and cover the whole key space (``[0, 2^key_bits)``); both invariants
are unit-tested.

Because the source index is an LSM, segments may *overlap* in key space
(two flush generations can cover the same region).  The ranges are
therefore a placement and ingest-routing policy, **not** a query
filter: a query is routed to every shard whose resident occupancy union
intersects its block selection — the same admissible test the
single-node sketch tier uses — never by comparing the query's keys
against the range boundaries, which would be unsound for overlapping
segments.

For each shard, ``replicas`` full copies of the shard's segments are
materialised as independent segmented directories
(``shard-NNN/replica-RR/``), each with its own manifest and WAL — a
replica is simply a directory ``repro-s3 serve`` can front.  The plan
is recorded in ``CLUSTER.json`` next to them, including each shard's
occupancy union (the router's skip bitmap) and, per segment, its row
offset in the *source* index — the piece of metadata that lets the
router renumber shard-local result rows back into single-node global
rows bit for bit (see :mod:`repro.cluster.merge`).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError, IndexError_
from ..index.segmented.lsm import SegmentedS3Index
from ..index.segmented.manifest import (
    Manifest,
    SegmentMeta,
    wal_filename,
)
from ..index.segmented.sketch import (
    SegmentSketch,
    occupancy_keep,
    sketch_filename,
)
from ..index.store import PathLike, expected_file_size

CLUSTER_MANIFEST_NAME = "CLUSTER.json"
_FORMAT = 1


@dataclass(frozen=True)
class SegmentAssignment:
    """One source segment placed in a shard.

    ``global_base`` is the segment's first row number in the *source*
    index's virtual concatenation (manifest order) and ``source_pos``
    its position in that order — together they let the router rebuild
    the exact single-node result layout from shard-local answers.
    """

    name: str
    count: int
    global_base: int
    source_pos: int
    key_min: int
    key_max: int


@dataclass(frozen=True)
class ShardPresence:
    """A shard's resident occupancy union: which curve blocks it holds.

    The union of the shard's segment-sketch occupancy bitmaps, reduced
    to the shallowest sketch depth among them.  ``keep_mask`` is the
    router's skip test — exact, like the per-segment prune it unions.
    """

    depth: int
    occupied: np.ndarray  # sorted uint64 of populated depth-bit prefixes

    def keep_mask(self, prefixes: np.ndarray, depth: int) -> np.ndarray:
        """Which selected *prefixes* may hold rows of this shard."""
        return occupancy_keep(self.occupied, self.depth, prefixes, depth)

    def with_keys(self, keys: np.ndarray, key_bits: int) -> "ShardPresence":
        """This presence with the blocks of rows at Hilbert *keys*
        (``key_bits`` wide) added."""
        blocks = np.unique(keys >> np.uint64(key_bits - self.depth))
        new = blocks[~self.keep_mask(blocks, self.depth)]
        if not new.size:
            return self
        at = np.searchsorted(self.occupied, new)
        return ShardPresence(self.depth, np.insert(self.occupied, at, new))

    def to_payload(self) -> dict:
        bitmap = np.zeros(1 << self.depth, dtype=np.uint8)
        bitmap[self.occupied.astype(np.int64)] = 1
        return {
            "depth": int(self.depth),
            "occupied_hex": np.packbits(bitmap).tobytes().hex(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardPresence":
        depth = int(payload["depth"])
        packed = np.frombuffer(
            bytes.fromhex(payload["occupied_hex"]), dtype=np.uint8
        )
        bits = np.unpackbits(packed, count=1 << depth)
        return cls(
            depth=depth, occupied=np.flatnonzero(bits).astype(np.uint64)
        )


@dataclass(frozen=True)
class ShardSpec:
    """One planned shard: key range, segments, replica directories."""

    shard: int
    key_lo: int  # inclusive
    key_hi: int  # exclusive
    rows: int
    segments: tuple[SegmentAssignment, ...]
    replicas: tuple[str, ...]  # directory names relative to the cluster dir
    presence: ShardPresence


@dataclass
class ClusterManifest:
    """Durable description of a planned cluster (``CLUSTER.json``)."""

    source: str
    ndims: int
    order: int
    key_levels: int
    depth: int
    sigma: float | None
    total_rows: int
    shards: list[ShardSpec] = field(default_factory=list)

    @property
    def key_bits(self) -> int:
        return self.key_levels * self.ndims

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def replicas_per_shard(self) -> int:
        return max(len(s.replicas) for s in self.shards) if self.shards else 0

    # ------------------------------------------------------------------
    def save(self, directory: PathLike) -> None:
        directory = Path(directory)
        payload = {
            "format": _FORMAT,
            "source": self.source,
            "ndims": self.ndims,
            "order": self.order,
            "key_levels": self.key_levels,
            "depth": self.depth,
            "sigma": self.sigma,
            "total_rows": self.total_rows,
            "shards": [
                {
                    "shard": s.shard,
                    "key_lo": s.key_lo,
                    "key_hi": s.key_hi,
                    "rows": s.rows,
                    "segments": [
                        {
                            "name": a.name,
                            "count": a.count,
                            "global_base": a.global_base,
                            "source_pos": a.source_pos,
                            "key_min": a.key_min,
                            "key_max": a.key_max,
                        }
                        for a in s.segments
                    ],
                    "replicas": list(s.replicas),
                    "presence": s.presence.to_payload(),
                }
                for s in self.shards
            ],
        }
        tmp = directory / (CLUSTER_MANIFEST_NAME + ".tmp")
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, directory / CLUSTER_MANIFEST_NAME)

    @classmethod
    def load(cls, directory: PathLike) -> "ClusterManifest":
        path = Path(directory) / CLUSTER_MANIFEST_NAME
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise IndexError_(
                f"not a cluster directory (no {CLUSTER_MANIFEST_NAME}): "
                f"{directory}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise IndexError_(f"corrupt cluster manifest {path}: {exc}") from exc
        if payload.get("format") != _FORMAT:
            raise IndexError_(
                f"unsupported cluster manifest format "
                f"{payload.get('format')!r} in {path}"
            )
        try:
            return cls(
                source=str(payload["source"]),
                ndims=int(payload["ndims"]),
                order=int(payload["order"]),
                key_levels=int(payload["key_levels"]),
                depth=int(payload["depth"]),
                sigma=(
                    None if payload.get("sigma") is None
                    else float(payload["sigma"])
                ),
                total_rows=int(payload["total_rows"]),
                shards=[
                    ShardSpec(
                        shard=int(s["shard"]),
                        key_lo=int(s["key_lo"]),
                        key_hi=int(s["key_hi"]),
                        rows=int(s["rows"]),
                        segments=tuple(
                            SegmentAssignment(
                                name=str(a["name"]),
                                count=int(a["count"]),
                                global_base=int(a["global_base"]),
                                source_pos=int(a["source_pos"]),
                                key_min=int(a["key_min"]),
                                key_max=int(a["key_max"]),
                            )
                            for a in s["segments"]
                        ),
                        replicas=tuple(str(r) for r in s["replicas"]),
                        presence=ShardPresence.from_payload(s["presence"]),
                    )
                    for s in payload["shards"]
                ],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexError_(
                f"corrupt cluster manifest {path}: {exc}"
            ) from exc

    @classmethod
    def exists(cls, directory: PathLike) -> bool:
        return (Path(directory) / CLUSTER_MANIFEST_NAME).is_file()


def shard_dirname(shard: int, replica: int) -> str:
    """Directory of one shard replica, relative to the cluster dir."""
    return f"shard-{shard:03d}/replica-{replica:02d}"


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_cluster(
    source_dir: PathLike,
    cluster_dir: PathLike,
    num_shards: int,
    replicas: int = 1,
    seal: bool = False,
    storage_budget: int | None = None,
    cold_dir: str | None = None,
) -> ClusterManifest:
    """Partition *source_dir* into ``num_shards`` shard directories.

    The source must be sealed (no rows pending in its WAL/memtable);
    pass ``seal=True`` to flush it first.  Each shard gets ``replicas``
    independent full copies of its segments.  Cold source segments
    (tiered storage, :mod:`repro.storage`) are planned from their
    resident ``.keys`` sidecars and materialised straight from the blob
    backend — planning never changes the source's tiers.  Passing
    ``storage_budget`` (bytes; ``cold_dir`` optionally) stamps a
    storage block into every replica manifest, so each replica opens
    with that tier budget and demotes itself to fit on first open.
    Returns the saved :class:`ClusterManifest`.
    """
    source_dir = Path(source_dir)
    cluster_dir = Path(cluster_dir)
    if num_shards < 1:
        raise ConfigurationError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    if replicas < 1:
        raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
    if ClusterManifest.exists(cluster_dir):
        raise ConfigurationError(
            f"already a cluster directory: {cluster_dir}"
        )
    replica_storage = None
    if storage_budget is not None or cold_dir is not None:
        from ..storage.manager import StorageConfig

        replica_storage = StorageConfig(
            budget_bytes=storage_budget, cold_dir=cold_dir
        ).to_manifest()

    with SegmentedS3Index.open(source_dir, auto_compact=False) as source:
        pending = source.pending_rows
        if pending and not seal:
            raise ConfigurationError(
                f"{source_dir} has {pending} unsealed rows; pass "
                "seal=True (CLI: --seal) to flush them before planning"
            )
        if pending:
            source.flush()
        manifest = source.manifest
        if not manifest.segments:
            raise ConfigurationError(
                f"{source_dir} has no sealed segments to shard; ingest "
                "and flush it first"
            )
        if num_shards > len(manifest.segments):
            raise ConfigurationError(
                f"cannot plan {num_shards} shards from "
                f"{len(manifest.segments)} segments — segments are whole "
                "assignment units; compact less aggressively or pick "
                "fewer shards"
            )

        assignments = _segment_assignments(source)
        groups = _partition(assignments, num_shards)
        key_bits = manifest.key_levels * manifest.ndims
        boundaries = _range_boundaries(groups, key_bits)

        cluster_dir.mkdir(parents=True, exist_ok=True)
        shards = []
        for shard_id, group in enumerate(groups):
            replica_dirs = tuple(
                shard_dirname(shard_id, r) for r in range(replicas)
            )
            for rel in replica_dirs:
                _materialise_replica(
                    source, cluster_dir / rel, group, replica_storage
                )
            shards.append(ShardSpec(
                shard=shard_id,
                key_lo=boundaries[shard_id],
                key_hi=boundaries[shard_id + 1],
                rows=sum(a.count for a in group),
                segments=tuple(group),
                replicas=replica_dirs,
                presence=_shard_presence(source_dir, manifest, group),
            ))
        cluster = ClusterManifest(
            source=str(source_dir),
            ndims=manifest.ndims,
            order=manifest.order,
            key_levels=manifest.key_levels,
            depth=manifest.depth,
            sigma=manifest.sigma,
            total_rows=manifest.total_sealed(),
            shards=shards,
        )
    cluster.save(cluster_dir)
    return cluster


def _segment_assignments(
    source: SegmentedS3Index,
) -> list[SegmentAssignment]:
    """Each source segment with its global base row and key span.

    Sealed segments are curve-sorted, so a segment's key span is just
    its layout's first and last keys.  The layout is resident for every
    tier — cold segments keep their ``.keys`` sidecar mapped — so no
    fingerprint store is loaded and no blob is fetched here.
    """
    assignments = []
    base = 0
    for pos, seg in enumerate(source._segments):
        keys = seg.layout.keys
        assignments.append(SegmentAssignment(
            name=seg.meta.name,
            count=seg.meta.count,
            global_base=base,
            source_pos=pos,
            key_min=int(keys[0]),
            key_max=int(keys[-1]),
        ))
        base += seg.meta.count
    return assignments


def _partition(
    assignments: list[SegmentAssignment], num_shards: int
) -> list[list[SegmentAssignment]]:
    """Split key-ordered segments into contiguous row-balanced runs.

    Greedy walk over segments sorted by key span: a shard closes once
    its row count reaches the remaining-average, while always leaving at
    least one segment for each shard still to fill — so every shard is
    non-empty whenever ``num_shards <= len(assignments)``.
    """
    ordered = sorted(
        assignments, key=lambda a: (a.key_min, a.key_max, a.source_pos)
    )
    total = sum(a.count for a in ordered)
    groups: list[list[SegmentAssignment]] = []
    i = 0
    for shard in range(num_shards):
        remaining_shards = num_shards - shard
        remaining_rows = total - sum(
            a.count for g in groups for a in g
        )
        target = remaining_rows / remaining_shards
        group = [ordered[i]]
        i += 1
        while (
            i < len(ordered)
            and len(ordered) - i > remaining_shards - 1
            and sum(a.count for a in group) + ordered[i].count / 2 < target
        ):
            group.append(ordered[i])
            i += 1
        groups.append(group)
    # Any stragglers (only possible from rounding) join the last shard.
    groups[-1].extend(ordered[i:])
    return groups


def _range_boundaries(
    groups: list[list[SegmentAssignment]], key_bits: int
) -> list[int]:
    """Disjoint, covering key boundaries: ``b[i] <= shard i < b[i+1]``.

    ``b[0] = 0`` and ``b[n] = 2^key_bits`` so the union is the whole key
    space; interior boundaries sit at each shard's minimum segment key
    (bumped by one where two shards' minima coincide, keeping the ranges
    strictly disjoint).
    """
    boundaries = [0]
    for group in groups[1:]:
        lo = min(a.key_min for a in group)
        boundaries.append(max(lo, boundaries[-1] + 1))
    boundaries.append(1 << key_bits)
    if boundaries[-1] <= boundaries[-2]:
        raise IndexError_(
            "degenerate shard ranges: too many shards for the occupied "
            "key space"
        )
    return boundaries


def _shard_presence(
    source_dir: Path, manifest: Manifest, group: list[SegmentAssignment]
) -> ShardPresence:
    """Union the group's sketch occupancy at their shallowest depth."""
    key_bits = manifest.key_levels * manifest.ndims
    sketches = []
    for a in group:
        sketches.append(SegmentSketch.load(
            source_dir / sketch_filename(a.name), key_bits
        ))
    depth = min(s.depth for s in sketches)
    parts = [
        np.unique(s.occupied >> np.uint64(s.depth - depth))
        for s in sketches
    ]
    occupied = np.unique(np.concatenate(parts)) if parts else \
        np.empty(0, dtype=np.uint64)
    return ShardPresence(depth=depth, occupied=occupied)


def _materialise_replica(
    source: SegmentedS3Index,
    replica_dir: Path,
    group: list[SegmentAssignment],
    storage: dict | None,
) -> None:
    """Write one replica directory: copied segments + a fresh manifest.

    The replica manifest lists the group's segments in assignment order
    (the shard-local merge order the router's renumbering relies on) and
    continues the source's segment sequence numbers, so post-plan
    flushes never collide with copied segment names.  Its WAL is fresh
    and empty; ``SegmentedS3Index.open`` creates the file on first open.

    Cold source segments are materialised from the blob backend: a
    demoted segment's blob is byte-identical to the ``.store`` file it
    replaced, so the replica starts hot without the source's tiers
    changing.  *storage* (a manifest storage block, or ``None``) gives
    each replica its own tier budget — the replica's first open then
    demotes itself to fit, independently of the source's tiers.
    """
    source_dir = source.directory
    source_manifest = source.manifest
    replica_dir.mkdir(parents=True, exist_ok=True)
    if Manifest.exists(replica_dir):
        raise ConfigurationError(
            f"replica directory already initialised: {replica_dir}"
        )
    metas = []
    source_by_name = {m.name: m for m in source_manifest.segments}
    for a in group:
        store_src = source_dir / (a.name + ".store")
        store_dst = replica_dir / (a.name + ".store")
        if store_src.is_file():
            shutil.copyfile(store_src, store_dst)
        else:
            if source.storage is None:
                raise IndexError_(
                    f"segment {a.name} has no resident store and the "
                    "source index has no storage manager to fetch it"
                )
            data = source.storage.backend.get(a.name)
            want = expected_file_size(a.count, source_manifest.ndims)
            if len(data) != want:
                raise IndexError_(
                    f"blob for segment {a.name} is {len(data)} bytes, "
                    f"expected {want}; refusing to materialise a torn "
                    "replica"
                )
            tmp = store_dst.with_suffix(".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, store_dst)
        # Sketch sidecars stay resident across demotion, so a straight
        # copy works for every tier.
        shutil.copyfile(
            source_dir / sketch_filename(a.name),
            replica_dir / sketch_filename(a.name),
        )
        src_meta = source_by_name[a.name]
        metas.append(SegmentMeta(
            name=a.name, count=a.count, sketch=src_meta.sketch
        ))
    replica_manifest = Manifest(
        ndims=source_manifest.ndims,
        order=source_manifest.order,
        key_levels=source_manifest.key_levels,
        depth=source_manifest.depth,
        sigma=source_manifest.sigma,
        next_seq=source_manifest.next_seq,
        wal=wal_filename(source_manifest.next_seq - 1),
        segments=metas,
        storage=storage,
    )
    replica_manifest.save(replica_dir)

"""Per-segment pre-filter sketches: an occupancy bitmap.

At the paper's target scale most sealed segments contribute nothing to a
given query, yet the fan-out in :mod:`.lsm` used to consult every
segment's Hilbert tree and touch its mmap.  A :class:`SegmentSketch` is
a small always-in-RAM summary, built once when a segment is sealed (or
re-merged by compaction) and persisted next to its store as
``<name>.sketch``: an **occupancy bitmap** over the segment's
Hilbert-key population at a fixed prefix depth — one bit per curve
block, set iff the segment holds at least one row in that block.

The prune is **admissible** — results stay bit-identical to the
unfiltered fan-out: dropping a selected prefix whose occupancy interval
is empty removes only blocks that contain no rows of this segment, so
the merged row ranges are unchanged (empty blocks never contribute
rows).  It serves every query kind alike, since each scans the rows of
its selected blocks.  See ``docs/prefilter.md`` for the full argument
and tuning guidance.

The sidecar header still has the three fields (rows per block,
dimensions, blocks) of the per-block min/max bounds earlier sketches
carried; new sidecars write them as 0, and :meth:`SegmentSketch.load`
skips the bounds bytes an older sidecar declares.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ...errors import ConfigurationError, IndexError_
from ..store import PathLike
from ..table import HilbertLayout

#: File magic of the ``.sketch`` sidecar format.
SKETCH_MAGIC = b"S3SK"
SKETCH_FORMAT = 1

#: Occupancy depths above this would make the bitmap itself large
#: (2^depth bits); 21 caps it at 256 KiB per segment.
MAX_SKETCH_DEPTH = 21

_HEADER = struct.Struct("!4sHHIQII")


def sketch_filename(name: str) -> str:
    """Sidecar file name of segment stem *name*."""
    return f"{name}.sketch"


def occupancy_keep(
    occupied: np.ndarray,
    occupied_depth: int,
    prefixes: np.ndarray,
    depth: int,
) -> np.ndarray:
    """Which selected *prefixes* intersect an occupancy population.

    *occupied* is a sorted ``uint64`` array of populated
    ``occupied_depth``-bit curve prefixes; *prefixes* are sorted
    ``depth``-bit selection prefixes.  Returns a boolean keep-mask.  The
    test is exact (not probabilistic) in both directions of the depth
    mismatch: a deeper selection prefix is shifted down to its ancestor,
    a shallower one is checked for any occupied descendant in its key
    interval.  Shared by :meth:`SegmentSketch.occupancy_mask` and the
    cluster router's shard-presence skip, so single-node and routed
    pruning can never disagree.
    """
    prefixes = np.asarray(prefixes, dtype=np.uint64)
    if prefixes.size == 0 or occupied.size == 0:
        return np.zeros(prefixes.size, dtype=bool)
    if depth >= occupied_depth:
        ancestors = prefixes >> np.uint64(depth - occupied_depth)
        pos = np.searchsorted(occupied, ancestors, side="left")
        pos = np.minimum(pos, occupied.size - 1)
        return occupied[pos] == ancestors
    shift = np.uint64(occupied_depth - depth)
    lo = np.searchsorted(occupied, prefixes << shift, side="left")
    hi = np.searchsorted(
        occupied, (prefixes + np.uint64(1)) << shift, side="left"
    )
    return lo < hi


@dataclass(frozen=True)
class SketchConfig:
    """Build-time geometry of segment sketches.

    ``depth`` is the occupancy prefix depth (bits of curve key per
    bitmap slot); the default keeps a sidecar's bitmap at 8 KiB
    whatever the segment's size.
    """

    depth: int = 16

    def __post_init__(self) -> None:
        if not 1 <= self.depth <= MAX_SKETCH_DEPTH:
            raise ConfigurationError(
                f"sketch depth must be in [1, {MAX_SKETCH_DEPTH}], "
                f"got {self.depth}"
            )


@dataclass
class SegmentSketch:
    """In-RAM pre-filter summary of one sealed segment.

    Attributes
    ----------
    depth:
        Occupancy prefix depth (``occupied`` holds ``depth``-bit values).
    key_bits:
        Key resolution of the segment's layout the sketch was built
        against (prefixes of deeper selections are shifted down to
        ``depth`` before the membership test).
    rows:
        Row count of the segment.
    occupied:
        Sorted ``uint64`` array of populated ``depth``-bit prefixes.
    """

    depth: int
    key_bits: int
    rows: int
    occupied: np.ndarray

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, layout: HilbertLayout, config: Optional[SketchConfig] = None
    ) -> "SegmentSketch":
        """Sketch a sealed segment from its layout's keys."""
        config = config or SketchConfig()
        depth = min(config.depth, layout.key_bits)
        shift = np.uint64(layout.key_bits - depth)
        return cls(
            depth=depth,
            key_bits=layout.key_bits,
            rows=int(layout.keys.size),
            occupied=np.unique(layout.keys >> shift),
        )

    def nbytes(self) -> int:
        """Approximate resident size of the sketch."""
        return int(self.occupied.nbytes)

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------
    def occupancy_mask(
        self, prefixes: np.ndarray, depth: int
    ) -> np.ndarray:
        """Keep-mask of the selected *prefixes* this segment holds rows in.

        *prefixes* are ``depth``-bit curve prefixes, sorted within each
        query's selection; a batch's selections may be passed
        concatenated, since each prefix is tested on its own.  The test
        is exact (not probabilistic) in both directions of the depth
        mismatch (:func:`occupancy_keep`).
        """
        prefixes = np.asarray(prefixes, dtype=np.uint64)
        if self.rows == 0:
            return np.zeros(prefixes.size, dtype=bool)
        return occupancy_keep(self.occupied, self.depth, prefixes, depth)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Atomically write the sketch sidecar to *path*."""
        path = Path(path)
        bitmap = np.zeros(1 << self.depth, dtype=np.uint8)
        bitmap[self.occupied.astype(np.int64)] = 1
        packed = np.packbits(bitmap)
        # The three bounds fields are 0: no bounds section.
        header = _HEADER.pack(
            SKETCH_MAGIC, SKETCH_FORMAT, self.depth, 0, self.rows, 0, 0
        )
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(packed.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: PathLike, key_bits: int) -> "SegmentSketch":
        """Read a sketch sidecar; raises :class:`IndexError_` if corrupt."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise IndexError_(f"cannot read sketch {path}: {exc}") from exc
        if len(raw) < _HEADER.size:
            raise IndexError_(f"truncated sketch header in {path}")
        magic, fmt, depth, _, rows, ndims, nblocks = _HEADER.unpack_from(raw)
        if magic != SKETCH_MAGIC:
            raise IndexError_(f"bad sketch magic in {path}")
        if fmt != SKETCH_FORMAT:
            raise IndexError_(
                f"unsupported sketch format {fmt} in {path}"
            )
        bitmap_bytes = (1 << depth) // 8 if depth >= 3 else 1
        expected = (
            _HEADER.size + bitmap_bytes + 2 * nblocks * ndims
        )
        if len(raw) != expected:
            raise IndexError_(
                f"sketch {path} has {len(raw)} bytes, expected {expected}"
            )
        packed = np.frombuffer(raw, dtype=np.uint8, count=bitmap_bytes,
                               offset=_HEADER.size)
        bits = np.unpackbits(packed, count=1 << depth)
        return cls(
            depth=depth,
            key_bits=key_bits,
            rows=rows,
            occupied=np.flatnonzero(bits).astype(np.uint64),
        )

    def to_meta(self) -> dict:
        """The manifest-side summary of this sketch (geometry only)."""
        return {"depth": int(self.depth)}

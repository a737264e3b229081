"""Per-segment pre-filter sketches: occupancy bitmap + block bounds.

At the paper's target scale most sealed segments contribute nothing to a
given query, yet the fan-out in :mod:`.lsm` used to consult every
segment's Hilbert tree and touch its mmap.  A :class:`SegmentSketch` is
a small always-in-RAM summary, built once when a segment is sealed (or
re-merged by compaction) and persisted next to its store as
``<name>.sketch``:

* an **occupancy bitmap** over the segment's Hilbert-key population at a
  fixed prefix depth — one bit per curve block, set iff the segment
  holds at least one row in that block;
* **per-block component min/max bounds** over runs of ``block_rows``
  curve-sorted rows, giving the exact VA-file-style lower bound
  ``lb(q, block)² = Σ_d gap_d²`` with
  ``gap_d = max(min_d - q_d, 0) + max(q_d - max_d, 0)``.

Both prunes are **admissible** — results stay bit-identical to the
unfiltered fan-out:

* dropping a selected prefix whose occupancy interval is empty removes
  only blocks that contain no rows of this segment, so the merged row
  ranges are unchanged (empty blocks never contribute rows);
* dropping a row range of an ε-range query because every overlapping
  bounds-block has ``lb² > ε²`` removes only rows the exact refinement
  step would reject, since ``lb(q, block) <= dist(q, row)`` for every
  row in the block.

The bounds prune applies to ε-range queries only.  A statistical query
of expectation α scans *every* row of its selected blocks without a
distance test (paper §III), so for it only the occupancy prune is
admissible.  See ``docs/prefilter.md`` for the full argument and tuning
guidance.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ...errors import ConfigurationError, IndexError_
from ..store import PathLike
from ..table import HilbertLayout, RangeBatch

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
    bitmap slot); ``block_rows`` is the run length of each min/max
    bounds block.  The defaults keep a sketch a few hundred KiB even
    for multi-million-row segments.
    """

    depth: int = 16
    block_rows: int = 4096

    def __post_init__(self) -> None:
        if not 1 <= self.depth <= MAX_SKETCH_DEPTH:
            raise ConfigurationError(
                f"sketch depth must be in [1, {MAX_SKETCH_DEPTH}], "
                f"got {self.depth}"
            )
        if self.block_rows < 1:
            raise ConfigurationError(
                f"sketch block_rows must be >= 1, got {self.block_rows}"
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
    block_rows:
        Rows per min/max bounds block.
    rows:
        Row count of the segment.
    occupied:
        Sorted ``uint64`` array of populated ``depth``-bit prefixes.
    mins / maxs:
        ``(B, D)`` ``uint8`` per-block component bounds, ``B = ceil(rows
        / block_rows)``, in curve order.
    """

    depth: int
    key_bits: int
    block_rows: int
    rows: int
    occupied: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        layout: HilbertLayout,
        fingerprints: np.ndarray,
        config: Optional[SketchConfig] = None,
    ) -> "SegmentSketch":
        """Sketch a sealed segment from its layout and *sorted* store.

        *fingerprints* must be the segment store's ``(N, D)`` byte
        matrix, already in curve order (as every sealed store is).
        """
        config = config or SketchConfig()
        depth = min(config.depth, layout.key_bits)
        keys = layout.keys
        n = int(keys.size)
        shift = np.uint64(layout.key_bits - depth)
        occupied = np.unique(keys >> shift)
        fingerprints = np.asarray(fingerprints, dtype=np.uint8)
        if fingerprints.shape[0] != n:
            raise ConfigurationError(
                f"sketch build: store has {fingerprints.shape[0]} rows "
                f"but layout has {n} keys"
            )
        if n:
            starts = np.arange(0, n, config.block_rows)
            mins = np.minimum.reduceat(fingerprints, starts, axis=0)
            maxs = np.maximum.reduceat(fingerprints, starts, axis=0)
        else:
            ndims = fingerprints.shape[1] if fingerprints.ndim == 2 else 0
            mins = np.empty((0, ndims), dtype=np.uint8)
            maxs = np.empty((0, ndims), dtype=np.uint8)
        return cls(
            depth=depth,
            key_bits=layout.key_bits,
            block_rows=config.block_rows,
            rows=n,
            occupied=occupied,
            mins=mins,
            maxs=maxs,
        )

    @property
    def num_blocks(self) -> int:
        return int(self.mins.shape[0])

    def nbytes(self) -> int:
        """Approximate resident size of the sketch."""
        return int(
            self.occupied.nbytes + self.mins.nbytes + self.maxs.nbytes
        )

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

    def ball_lower_bounds_sq(self, query: np.ndarray) -> np.ndarray:
        """``(B,)`` exact squared lower bounds of each block to *query*."""
        q = np.asarray(query, dtype=np.float64)
        gap = (
            np.maximum(self.mins.astype(np.float64) - q, 0.0)
            + np.maximum(q - self.maxs.astype(np.float64), 0.0)
        )
        return np.einsum("ij,ij->i", gap, gap)

    def ball_mask(
        self, sections: RangeBatch, balls: Sequence[tuple[np.ndarray, float]]
    ) -> np.ndarray:
        """Keep-mask of the row ranges ε-balls may match rows in.

        Query ``i`` owns list ``i`` of *sections* and the ball
        ``balls[i] = (centre, epsilon)``.  A range survives iff at least
        one of its overlapping bounds blocks has ``lb² <= ε²``: a running
        count of each ball's near blocks, read at the range's first and
        past-the-last block.  Only admissible for range queries — their
        refinement rejects exactly the rows the bound excludes.
        """
        starts, ends, bounds = sections
        near = np.zeros((len(balls), self.num_blocks + 1), dtype=np.int64)
        for row, (centre, epsilon) in zip(near, balls):
            np.cumsum(
                self.ball_lower_bounds_sq(centre) <= float(epsilon) ** 2,
                out=row[1:],
            )
        owner = np.repeat(np.arange(len(balls)), np.diff(bounds))
        return (
            near[owner, (ends - 1) // self.block_rows + 1]
            > near[owner, starts // self.block_rows]
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Atomically write the sketch sidecar to *path*."""
        path = Path(path)
        bitmap = np.zeros(1 << self.depth, dtype=np.uint8)
        bitmap[self.occupied.astype(np.int64)] = 1
        packed = np.packbits(bitmap)
        header = _HEADER.pack(
            SKETCH_MAGIC,
            SKETCH_FORMAT,
            self.depth,
            self.block_rows,
            self.rows,
            self.mins.shape[1] if self.mins.ndim == 2 else 0,
            self.num_blocks,
        )
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(packed.tobytes())
            fh.write(self.mins.astype(np.uint8).tobytes())
            fh.write(self.maxs.astype(np.uint8).tobytes())
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
        magic, fmt, depth, block_rows, rows, ndims, nblocks = \
            _HEADER.unpack_from(raw)
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
        off = _HEADER.size
        packed = np.frombuffer(raw, dtype=np.uint8, count=bitmap_bytes,
                               offset=off)
        off += bitmap_bytes
        bits = np.unpackbits(packed, count=1 << depth)
        occupied = np.flatnonzero(bits).astype(np.uint64)
        mins = np.frombuffer(
            raw, dtype=np.uint8, count=nblocks * ndims, offset=off
        ).reshape(nblocks, ndims).copy()
        off += nblocks * ndims
        maxs = np.frombuffer(
            raw, dtype=np.uint8, count=nblocks * ndims, offset=off
        ).reshape(nblocks, ndims).copy()
        return cls(
            depth=depth,
            key_bits=key_bits,
            block_rows=block_rows,
            rows=rows,
            occupied=occupied,
            mins=mins,
            maxs=maxs,
        )

    def to_meta(self) -> dict:
        """The manifest-side summary of this sketch (geometry only)."""
        return {"depth": int(self.depth), "block_rows": int(self.block_rows)}

"""D-dimensional Hilbert space-filling curve (Butz algorithm) substrate.

The index structure of the paper (§IV) physically orders fingerprints along
the Hilbert curve and filters queries through the hyper-rectangular
*p-block* partition the curve induces.  This package provides:

* :class:`~repro.hilbert.butz.HilbertCurve` — exact scalar encode/decode for
  any dimension ``D`` and order ``K`` (big-integer indices);
* :func:`~repro.hilbert.vectorized.encode_batch` — numpy bulk computation of
  truncated curve keys for index builds;
* :class:`~repro.hilbert.partition.PartitionNode` — the lazily explored
  p-block tree with exact box geometry;
* :class:`~repro.hilbert.walk.PartitionWalk` — the same tree walked level
  by level on whole node arrays, which block selection runs.
"""

from .butz import HilbertCurve
from .gray import gray, gray_inverse
from .partition import PartitionNode, blocks_at_depth, partition_grid_2d
from .vectorized import encode_batch

__all__ = [
    "HilbertCurve",
    "PartitionNode",
    "blocks_at_depth",
    "encode_batch",
    "gray",
    "gray_inverse",
    "partition_grid_2d",
]

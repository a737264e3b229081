"""Index diagnostics: occupancy and curve-clustering measurements.

The S³ design leans on two empirical properties the paper asserts but
never needs to expose programmatically:

* **block occupancy** — real fingerprints cluster, so p-blocks are far
  from uniformly filled; the occupancy profile explains where refinement
  time goes and how the depth trade-off behaves on a given corpus;
* **curve clustering** — blocks selected together by a query merge into
  few contiguous row sections (the Hilbert curve's locality), which is
  what bounds the dispersion of memory accesses.

This module computes both, for operators tuning an index and for the
diagnostics example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .s3 import S3Index


@dataclass(frozen=True)
class OccupancySummary:
    """Distribution of rows over the populated p-blocks at one depth."""

    depth: int
    total_blocks: int
    populated_blocks: int
    max_rows: int
    mean_rows: float
    gini: float

    @property
    def occupancy_rate(self) -> float:
        """Fraction of the partition's blocks holding at least one row."""
        return self.populated_blocks / self.total_blocks


def block_occupancy(index: S3Index, depth: int | None = None) -> np.ndarray:
    """Return the per-populated-block row counts at *depth*.

    Counts only populated blocks (the partition has ``2^depth`` blocks in
    total, nearly all empty for realistic depths).
    """
    depth = index.depth if depth is None else depth
    if not 1 <= depth <= index.layout.max_depth:
        raise ConfigurationError(
            f"depth must be in [1, {index.layout.max_depth}], got {depth}"
        )
    shift = np.uint64(index.layout.key_bits - depth)
    prefixes = index.layout.keys >> shift
    _, counts = np.unique(prefixes, return_counts=True)
    return counts


def occupancy_summary(index: S3Index, depth: int | None = None) -> OccupancySummary:
    """Summarise the occupancy distribution at *depth*."""
    depth = index.depth if depth is None else depth
    counts = block_occupancy(index, depth)
    return OccupancySummary(
        depth=depth,
        total_blocks=1 << depth,
        populated_blocks=int(counts.size),
        max_rows=int(counts.max()),
        mean_rows=float(counts.mean()),
        gini=_gini(counts),
    )


def _gini(counts: np.ndarray) -> float:
    """Gini coefficient of the occupancy distribution (0 = uniform)."""
    sorted_counts = np.sort(counts.astype(np.float64))
    n = sorted_counts.size
    if n == 0 or sorted_counts.sum() == 0:
        return 0.0
    cum = np.cumsum(sorted_counts)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


@dataclass(frozen=True)
class ClusteringSummary:
    """How well selected blocks merge into contiguous row sections."""

    queries: int
    mean_blocks: float
    mean_sections: float

    @property
    def merge_factor(self) -> float:
        """Blocks per contiguous section (> 1 = clustering at work)."""
        if self.mean_sections == 0:
            return float("inf")
        return self.mean_blocks / self.mean_sections


def clustering_summary(
    index: S3Index,
    queries: np.ndarray,
    alpha: float,
    depth: int | None = None,
) -> ClusteringSummary:
    """Measure the Hilbert clustering benefit on a query sample.

    For each query, counts the selected blocks and the merged row ranges;
    their ratio is the number of neighbouring-block coalescings the curve
    provided per section.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[0] == 0:
        raise ConfigurationError("queries must be a non-empty (N, D) array")
    blocks = 0.0
    sections = 0.0
    for q in queries:
        selection = index.block_selection(q, alpha, depth=depth)
        ranges = index.layout.block_row_ranges(
            selection.prefixes, selection.depth
        )
        blocks += len(selection)
        sections += len(ranges)
    n = queries.shape[0]
    return ClusteringSummary(
        queries=n, mean_blocks=blocks / n, mean_sections=sections / n
    )

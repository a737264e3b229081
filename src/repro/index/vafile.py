"""VA-file baseline: approximation-based sequential search.

The paper's related work singles out the VA-file (Weber & Blott 1997) as
the "improved sequential technique" that sometimes beats hierarchical
indexes outright in high dimension, which is why beating a *sequential
scan* is the paper's reference comparison.  This module implements the
classic two-phase VA-file ε-range query as an additional baseline:

1. **approximation scan** — every vector is pre-quantised to ``bits`` bits
   per dimension; a scan over the compact approximations computes, per
   cell, a lower bound on the distance to the query and discards vectors
   whose bound exceeds ε;
2. **refinement** — the surviving candidates' raw vectors are fetched and
   tested exactly.

Like the paper's own structures, the VA-file is static and exact for range
queries; its virtue is touching far fewer raw bytes than a naive scan.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import ConfigurationError, IndexError_
from .kernels import squared_distances
from .s3 import QueryStats, SearchResult
from .store import FingerprintStore

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .options import QueryOptions


class VAFile:
    """Vector-Approximation file over a byte fingerprint store.

    Parameters
    ----------
    store:
        The fingerprint database (components in ``[0, 255]``).
    bits:
        Bits per dimension of the approximation grid (1–8).  ``bits = 4``
        gives 16 slices per dimension and approximations of
        ``D * 4`` bits — an 8× compression of the byte vectors.
    """

    def __init__(self, store: FingerprintStore, bits: int = 4):
        if len(store) == 0:
            raise IndexError_("cannot build a VA-file over an empty store")
        if not 1 <= bits <= 8:
            raise ConfigurationError(f"bits must be in [1, 8], got {bits}")
        self.store = store
        self.bits = bits
        self.slices = 1 << bits
        # Uniform slicing of [0, 256): slice s covers [s*w, (s+1)*w).
        self._width = 256 // self.slices
        self.approximations = (
            store.fingerprints // np.uint8(self._width)
        ).astype(np.uint8)

    def __len__(self) -> int:
        return len(self.store)

    @property
    def ndims(self) -> int:
        return self.store.ndims

    def approximation_bytes(self) -> int:
        """Size of the approximation table (the phase-1 scan volume)."""
        return self.approximations.nbytes

    # ------------------------------------------------------------------
    def _lower_bound_sq(self, query: np.ndarray) -> np.ndarray:
        """Per-row squared lower bound on the distance to *query*.

        For each dimension, the distance from the query component to the
        *slice interval* of the stored vector lower-bounds the true
        component distance.
        """
        width = self._width
        cell_lo = self.approximations.astype(np.float64) * width
        cell_hi = cell_lo + width
        gap = np.maximum(cell_lo - query, 0.0) + np.maximum(
            query - cell_hi, 0.0
        )
        return np.einsum("ij,ij->i", gap, gap)

    def range_query(
        self,
        query: np.ndarray,
        epsilon: float,
        options: Optional["QueryOptions"] = None,
    ) -> SearchResult:
        """Exact ε-range query via the two-phase VA-file algorithm.

        ``options`` is accepted for :class:`~repro.index.IndexProtocol`
        uniformity; the VA-file's own pruning is its approximation scan.
        """
        query = np.asarray(query, dtype=np.float64).ravel()
        if query.size != self.ndims:
            raise ConfigurationError(
                f"query has {query.size} components, store has {self.ndims}"
            )
        if epsilon < 0:
            raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")

        t0 = time.perf_counter()
        bounds = self._lower_bound_sq(query)
        eps_sq = float(epsilon) ** 2
        candidates = np.nonzero(bounds <= eps_sq)[0]
        t1 = time.perf_counter()

        dist_sq = squared_distances(
            self.store.fingerprints[candidates], query
        )
        keep = dist_sq <= eps_sq
        rows = candidates[keep]
        t2 = time.perf_counter()

        stats = QueryStats(
            blocks_selected=int(candidates.size),
            sections_scanned=1,
            rows_scanned=int(candidates.size),
            results=int(rows.size),
            filter_seconds=t1 - t0,
            refine_seconds=t2 - t1,
        )
        return SearchResult(
            rows=rows,
            ids=self.store.ids[rows],
            timecodes=self.store.timecodes[rows],
            fingerprints=self.store.fingerprints[rows],
            distances=np.sqrt(dist_sq[keep]),
            stats=stats,
        )

    def selectivity(self, query: np.ndarray, epsilon: float) -> float:
        """Fraction of rows surviving the approximation scan.

        The VA-file's quality measure: how much raw-vector I/O phase 1
        avoids.  In dimension 20 with a large ε this fraction approaches 1
        — the dimensionality-curse effect the statistical query sidesteps.
        """
        query = np.asarray(query, dtype=np.float64).ravel()
        bounds = self._lower_bound_sq(query)
        return float(np.mean(bounds <= float(epsilon) ** 2))

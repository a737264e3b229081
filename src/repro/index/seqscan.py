"""Sequential scan baseline (paper §V-B).

The reference method the paper measures the S³ index against: a brute-force
ε-range query that touches every fingerprint.  It is deliberately written
the same way the index's refinement step is (chunked, vectorised distance
computations over the raw byte columns) so the two are comparable — the
paper makes the same point ("we implemented our own version of the
sequential scan so that the two methods are comparable").
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


class SequentialScanIndex:
    """Chunked brute-force ε-range search over a fingerprint store."""

    def __init__(self, store: FingerprintStore, chunk_rows: int = 262_144):
        if len(store) == 0:
            raise IndexError_("cannot scan an empty store")
        if chunk_rows < 1:
            raise ConfigurationError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.store = store
        self.chunk_rows = chunk_rows

    def __len__(self) -> int:
        return len(self.store)

    @property
    def ndims(self) -> int:
        return self.store.ndims

    def range_query(
        self,
        query: np.ndarray,
        epsilon: float,
        options: Optional["QueryOptions"] = None,
    ) -> SearchResult:
        """Return every fingerprint within *epsilon* of *query* (exact).

        ``options`` is accepted for :class:`~repro.index.IndexProtocol`
        uniformity; a brute-force scan has no knobs it applies to.
        """
        query = np.asarray(query, dtype=np.float64).ravel()
        if query.size != self.ndims:
            raise ConfigurationError(
                f"query has {query.size} components, store has {self.ndims}"
            )
        if epsilon < 0:
            raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")

        t0 = time.perf_counter()
        eps_sq = float(epsilon) ** 2
        hits: list[np.ndarray] = []
        dists: list[np.ndarray] = []
        fp = self.store.fingerprints
        for start in range(0, len(self), self.chunk_rows):
            stop = min(start + self.chunk_rows, len(self))
            dist_sq = squared_distances(fp[start:stop], query)
            local = np.nonzero(dist_sq <= eps_sq)[0]
            if local.size:
                hits.append(local + start)
                dists.append(np.sqrt(dist_sq[local]))
        rows = (
            np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
        )
        distances = (
            np.concatenate(dists) if dists else np.empty(0, dtype=np.float64)
        )
        t1 = time.perf_counter()

        stats = QueryStats(
            blocks_selected=0,
            sections_scanned=1,
            rows_scanned=len(self),
            results=int(rows.size),
            refine_seconds=t1 - t0,
        )
        return SearchResult(
            rows=rows,
            ids=self.store.ids[rows],
            timecodes=self.store.timecodes[rows],
            fingerprints=self.store.fingerprints[rows],
            distances=distances,
            stats=stats,
        )

    def knn_query(self, query: np.ndarray, k: int) -> SearchResult:
        """Exact k-nearest-neighbour query (for the k-NN ablation).

        The paper argues k-NN search is ill-suited to copy detection
        because the number of relevant fingerprints per query varies wildly
        (§I); this exact scan provides the comparison point.
        """
        query = np.asarray(query, dtype=np.float64).ravel()
        if query.size != self.ndims:
            raise ConfigurationError(
                f"query has {query.size} components, store has {self.ndims}"
            )
        if not 1 <= k <= len(self):
            raise ConfigurationError(f"k must be in [1, {len(self)}], got {k}")

        t0 = time.perf_counter()
        dist_sq = squared_distances(self.store.fingerprints, query)
        rows = np.argpartition(dist_sq, k - 1)[:k]
        rows = rows[np.argsort(dist_sq[rows], kind="stable")]
        t1 = time.perf_counter()

        stats = QueryStats(
            rows_scanned=len(self),
            results=k,
            sections_scanned=1,
            refine_seconds=t1 - t0,
        )
        return SearchResult(
            rows=rows,
            ids=self.store.ids[rows],
            timecodes=self.store.timecodes[rows],
            fingerprints=self.store.fingerprints[rows],
            distances=np.sqrt(dist_sq[rows]),
            stats=stats,
        )

"""Pseudo-disk strategy for databases exceeding main memory (paper §IV-B).

When the fingerprint file does not fit in RAM, the S³ system batches
``N_sig`` queries: the filtering step (which is independent of the
database rows) runs first for the whole batch, then the curve is split into
``2^r`` regular sections — ``r`` chosen so the fullest section fits the
memory budget — and each section is loaded once while the refinement of
every query in the batch runs against it.  The average response time per
query becomes

``T_tot = T + T_load / N_sig``    (eq. 5)

so the linear loading component is amortised by the batch size.  This
module implements the strategy over a store *file* (sections are read
through a memory map, so real I/O volume is exactly the touched sections)
and accounts bytes loaded and load time explicitly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..distortion.model import IndependentDistortionModel
from ..errors import ConfigurationError
from .filtering import statistical_blocks_multi
from .s3 import QueryStats, SearchResult
from .store import FingerprintStore, PathLike
from .table import HilbertLayout


@dataclass
class BatchStats:
    """Aggregate cost of one pseudo-disk batch."""

    num_queries: int = 0
    num_sections: int = 0
    sections_loaded: int = 0
    bytes_loaded: int = 0
    rows_scanned: int = 0
    filter_seconds: float = 0.0
    load_seconds: float = 0.0
    refine_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Batch wall time: filtering + loads + refinement."""
        return self.filter_seconds + self.load_seconds + self.refine_seconds

    @property
    def seconds_per_query(self) -> float:
        """Eq. (5): the amortised per-query response time."""
        if self.num_queries == 0:
            return 0.0
        return self.total_seconds / self.num_queries


class PseudoDiskSearcher:
    """Batched statistical search over an on-disk, curve-sorted store file.

    Parameters
    ----------
    path:
        A store file saved by :meth:`repro.index.s3.S3Index.save` (i.e.
        already sorted in curve order).
    model:
        Distortion model for the statistical filtering.
    memory_rows:
        Memory budget, in rows; the curve split ``2^r`` is the smallest one
        whose fullest section fits this budget.
    order, key_levels, depth:
        Index geometry, matching the values the store was built with.
    """

    def __init__(
        self,
        path: PathLike,
        model: IndependentDistortionModel,
        memory_rows: int,
        order: int = 8,
        key_levels: int = 2,
        depth: Optional[int] = None,
    ):
        self.path = path
        self.model = model
        # Only the key column is resident; fingerprints stay on disk.
        mapped = FingerprintStore.load(path, mmap=True)
        self._mapped = mapped
        layout = HilbertLayout.build(np.asarray(mapped.fingerprints), order, key_levels)
        if not np.array_equal(layout.permutation, np.arange(len(mapped))):
            raise ConfigurationError(
                "store file is not sorted in curve order; save it through "
                "S3Index.save() first"
            )
        self.layout = layout
        if depth is None:
            depth = int(np.ceil(np.log2(max(len(mapped), 2))))
            depth = min(max(depth, 1), layout.max_depth)
        self.depth = depth
        self.memory_rows = memory_rows
        self.r = layout.section_split_for_memory(memory_rows)
        self.sections = layout.curve_sections(self.r)
        self._row_bytes = mapped.ndims + 4 + 8

    def __len__(self) -> int:
        return len(self._mapped)

    # ------------------------------------------------------------------
    def search_batch(
        self, queries: np.ndarray, alpha: float
    ) -> tuple[list[SearchResult], BatchStats]:
        """Answer a batch of statistical queries with one cyclic DB pass.

        Returns one :class:`SearchResult` per query (rows/ids/timecodes/
        fingerprints of every fingerprint in each query's ``V_α``) plus the
        batch-level cost accounting of eq. (5).
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self._mapped.ndims:
            raise ConfigurationError(
                f"queries must be (N, {self._mapped.ndims}), got {queries.shape}"
            )
        stats = BatchStats(num_queries=queries.shape[0], num_sections=len(self.sections))

        # Stage 1: filtering for the whole batch (database-independent).
        t0 = time.perf_counter()
        selections = statistical_blocks_multi(
            queries, self.model, self.layout.curve, self.depth, alpha
        )
        all_ranges = [
            self.layout.block_row_ranges(selection.prefixes, selection.depth)
            for selection in selections
        ]
        stats.filter_seconds = time.perf_counter() - t0

        # Stage 2: cyclic section loads + per-query refinement.
        per_query_rows: list[list[np.ndarray]] = [[] for _ in range(queries.shape[0])]
        per_query_cols: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
            [] for _ in range(queries.shape[0])
        ]
        for sec_start, sec_stop in self.sections:
            if sec_start >= sec_stop:
                continue
            needed = False
            for ranges in all_ranges:
                if _overlaps_any(ranges, sec_start, sec_stop):
                    needed = True
                    break
            if not needed:
                continue
            t_load = time.perf_counter()
            # Materialise the section from the memory map (this is the I/O).
            fp = np.asarray(self._mapped.fingerprints[sec_start:sec_stop])
            ids = np.asarray(self._mapped.ids[sec_start:sec_stop])
            tcs = np.asarray(self._mapped.timecodes[sec_start:sec_stop])
            stats.load_seconds += time.perf_counter() - t_load
            stats.sections_loaded += 1
            stats.bytes_loaded += (sec_stop - sec_start) * self._row_bytes

            t_ref = time.perf_counter()
            for qi, ranges in enumerate(all_ranges):
                for s, e in ranges:
                    lo = max(s, sec_start)
                    hi = min(e, sec_stop)
                    if lo >= hi:
                        continue
                    rel = np.arange(lo - sec_start, hi - sec_start)
                    per_query_rows[qi].append(np.arange(lo, hi, dtype=np.int64))
                    per_query_cols[qi].append((fp[rel], ids[rel], tcs[rel]))
                    stats.rows_scanned += hi - lo
            stats.refine_seconds += time.perf_counter() - t_ref

        results = []
        for qi in range(queries.shape[0]):
            if per_query_rows[qi]:
                rows = np.concatenate(per_query_rows[qi])
                fps = np.concatenate([c[0] for c in per_query_cols[qi]])
                ids = np.concatenate([c[1] for c in per_query_cols[qi]])
                tcs = np.concatenate([c[2] for c in per_query_cols[qi]])
            else:
                rows = np.empty(0, dtype=np.int64)
                fps = np.empty((0, self._mapped.ndims), dtype=np.uint8)
                ids = np.empty(0, dtype=np.uint32)
                tcs = np.empty(0, dtype=np.float64)
            qstats = QueryStats(
                rows_scanned=int(rows.size),
                results=int(rows.size),
                sections_scanned=len(all_ranges[qi]),
            )
            results.append(
                SearchResult(
                    rows=rows, ids=ids, timecodes=tcs, fingerprints=fps,
                    stats=qstats,
                )
            )
        return results, stats


def _overlaps_any(ranges: list[tuple[int, int]], lo: int, hi: int) -> bool:
    """Return whether any of *ranges* intersects ``[lo, hi)``."""
    for s, e in ranges:
        if s < hi and e > lo:
            return True
    return False


def auto_batch_size(
    db_rows: int, target_load_fraction: float = 0.25, query_rows_cost: int = 2_000
) -> int:
    """Heuristic ``N_sig`` making the load time sub-linear in the DB size.

    The paper sets ``N_sig`` automatically "to obtain an average loading
    time that is sublinear with the database size": batching √N-many queries
    makes the per-query amortised load ``O(√N)``.  The fraction and
    per-query scan cost simply scale the constant.
    """
    if db_rows < 1:
        raise ConfigurationError(f"db_rows must be >= 1, got {db_rows}")
    if not 0 < target_load_fraction <= 1:
        raise ConfigurationError(
            f"target_load_fraction must be in (0, 1], got {target_load_fraction}"
        )
    n_sig = int(np.sqrt(db_rows / max(query_rows_cost, 1)) / target_load_fraction)
    return max(n_sig, 1)

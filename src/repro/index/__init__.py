"""The S³ index structure and its baselines (paper §IV).

* :class:`~repro.index.s3.S3Index` — the paper's contribution: a static,
  Hilbert-curve-ordered fingerprint database answering statistical queries
  (probabilistic block filtering + sequential refinement) and classical
  ε-range queries on the same structure;
* :class:`~repro.index.seqscan.SequentialScanIndex` — the brute-force
  baseline of §V-B;
* :class:`~repro.index.pseudodisk.PseudoDiskSearcher` — the batched,
  section-loading strategy for stores larger than memory (§IV-B);
* :mod:`~repro.index.tuning` — the start-of-retrieval learning of the
  optimal partition depth ``p_min`` (§IV-A);
* :mod:`~repro.index.segmented` — the live LSM-style extension:
  WAL-backed online ingestion, sealed Hilbert segments and background
  compaction (the §V-D operational setting).

Every index front-end accepts the unified
:class:`~repro.index.options.QueryOptions` (``options=``) and satisfies
:class:`IndexProtocol`, the minimal structural contract the detection
and serving layers program against.  ``SeqScanIndex`` and
``VAFileIndex`` are the protocol-era names of the two baselines
(aliases of :class:`SequentialScanIndex` / :class:`VAFile`).
"""

from typing import Protocol, runtime_checkable

import numpy as np

from .batch import (
    BatchQueryExecutor,
    BatchQueryStats,
    coalesce_ranges,
    query_batch,
)
from .diagnostics import (
    ClusteringSummary,
    OccupancySummary,
    block_occupancy,
    clustering_summary,
    occupancy_summary,
)
from .filtering import (
    BlockSelection,
    best_first_blocks,
    grid_probability,
    grid_probability_multi,
    range_blocks,
    select_blocks_threshold,
    select_blocks_threshold_multi,
    statistical_blocks,
    statistical_blocks_batch_cached,
    statistical_blocks_cached,
    statistical_blocks_multi,
    threshold_cache_key,
    window_blocks,
)
from .knn import knn_query
from .options import (
    DURABILITY_MODES,
    PREFILTER_MODES,
    QueryOptions,
    resolve_options,
    validate_durability,
)
from .pseudodisk import BatchStats, PseudoDiskSearcher, auto_batch_size
from .s3 import QueryStats, S3Index, SearchResult
from .segmented import (
    CompactionPolicy,
    CompactionResult,
    SegmentedQueryStats,
    SegmentedS3Index,
    SegmentSketch,
    SketchConfig,
)
from .seqscan import SequentialScanIndex
from .store import FingerprintStore, StoreBuilder
from .table import HilbertLayout
from .tuning import DepthProfile, profile_depths, tune_depth
from .vafile import VAFile

#: Protocol-era aliases of the baseline index classes.
SeqScanIndex = SequentialScanIndex
VAFileIndex = VAFile


@runtime_checkable
class IndexProtocol(Protocol):
    """The structural contract every index front-end satisfies.

    The detection and serving layers only need this much: a sized,
    dimensioned collection answering exact ε-range queries with the
    unified ``options=`` keyword.  ``S3Index``,
    ``SegmentedS3Index``, ``SeqScanIndex`` and ``VAFileIndex`` all
    conform (checked in ``tests/index/test_options.py``); statistical
    queries remain specific to the S³ structures, which is why they are
    not part of the minimal protocol.
    """

    def __len__(self) -> int: ...

    @property
    def ndims(self) -> int: ...

    def range_query(
        self,
        query: np.ndarray,
        epsilon: float,
        *args,
        options: "QueryOptions | None" = None,
        **kwargs,
    ) -> SearchResult: ...


__all__ = [
    "BatchQueryExecutor",
    "BatchQueryStats",
    "BatchStats",
    "BlockSelection",
    "ClusteringSummary",
    "CompactionPolicy",
    "CompactionResult",
    "DURABILITY_MODES",
    "DepthProfile",
    "FingerprintStore",
    "HilbertLayout",
    "IndexProtocol",
    "OccupancySummary",
    "PREFILTER_MODES",
    "PseudoDiskSearcher",
    "QueryOptions",
    "QueryStats",
    "S3Index",
    "SearchResult",
    "SegmentSketch",
    "SegmentedQueryStats",
    "SegmentedS3Index",
    "SeqScanIndex",
    "SequentialScanIndex",
    "SketchConfig",
    "StoreBuilder",
    "VAFile",
    "VAFileIndex",
    "auto_batch_size",
    "best_first_blocks",
    "block_occupancy",
    "clustering_summary",
    "coalesce_ranges",
    "grid_probability",
    "grid_probability_multi",
    "knn_query",
    "occupancy_summary",
    "profile_depths",
    "query_batch",
    "range_blocks",
    "resolve_options",
    "select_blocks_threshold",
    "select_blocks_threshold_multi",
    "statistical_blocks",
    "statistical_blocks_batch_cached",
    "statistical_blocks_cached",
    "statistical_blocks_multi",
    "threshold_cache_key",
    "validate_durability",
    "window_blocks",
    "tune_depth",
]

"""The S³ index: statistical similarity search over local fingerprints.

This is the paper's contribution (§IV) assembled: a static index that

1. physically orders the fingerprint database along a Hilbert curve
   (:class:`~repro.index.table.HilbertLayout`),
2. answers **statistical queries** of expectation α — probabilistic
   filtering of the p-block partition under a distortion model, then a
   sequential refinement scan of the selected curve sections — and
3. answers classical **ε-range queries** on the same structure (geometric
   block filtering + exact distance refinement), the baseline of §V-A.

The index is *static*, like the paper's: build once from a
:class:`~repro.index.store.FingerprintStore`, no dynamic inserts.

The query methods are :class:`S3Queries`, which the segmented index
(:mod:`repro.index.segmented`) shares: each is a selection, then the one
scan of :func:`repro.index.batch.scan` over the index's read view — for
an :class:`S3Index`, one resident part.
"""

from __future__ import annotations

import json
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ..distortion.model import IndependentDistortionModel, NormalDistortionModel
from ..errors import ConfigurationError, IndexError_
from .filtering import (
    BlockSelection,
    SelectionBatch,
    best_first_blocks,
    range_blocks,
    statistical_blocks,
    window_blocks,
)
from .kernels import range_refine, window_refine
from .options import QueryOptions, resolve_options
from .store import FingerprintStore, PathLike
from .table import HilbertLayout


@dataclass
class QueryStats:
    """Cost breakdown of one query (the paper's T = T_f + T_r)."""

    blocks_selected: int = 0
    sections_scanned: int = 0
    rows_scanned: int = 0
    results: int = 0
    nodes_visited: int = 0
    descents: int = 0
    filter_seconds: float = 0.0
    refine_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total response time ``T(p) = T_f(p) + T_r(p)``."""
        return self.filter_seconds + self.refine_seconds


@dataclass
class SearchResult:
    """Result of a similarity query against an :class:`S3Index`.

    ``rows`` indexes into the index's (curve-sorted) store; ``ids`` /
    ``timecodes`` / ``fingerprints`` are the matching columns, which is all
    the CBCD voting strategy consumes.
    """

    rows: np.ndarray
    ids: np.ndarray
    timecodes: np.ndarray
    fingerprints: np.ndarray
    distances: Optional[np.ndarray] = None
    stats: QueryStats = field(default_factory=QueryStats)

    def __len__(self) -> int:
        return int(self.rows.size)


class S3Queries:
    """The query methods of both S³ index kinds, defined once.

    Every query is the paper's two steps (§IV): a selection picks
    p-blocks, then :func:`repro.index.batch.scan` reads their curve
    sections from the index's read view (``_read_view()``).  The kinds
    differ only in data: the view's parts, memtables and sketches, the
    tier manager (``storage``) and the class of the per-query stats.  An
    :class:`S3Index` is one resident part with no sketch, no memtables
    and no storage.
    """

    #: Class of each result's ``stats``.
    _query_stats = QueryStats
    #: The tier manager; ``None``: every row is resident.
    storage = None

    # Perf-compat (listed with BatchQueryExecutor's in index/batch.py):
    # the frozen perf/workloads/ call this before their reference
    # answers.  A selection keeps no state, so there is nothing to reset.
    def reset_threshold_cache(self) -> None:
        pass

    def _resolve_model(
        self, model: Optional[IndependentDistortionModel]
    ) -> IndependentDistortionModel:
        resolved = model if model is not None else self.model
        if resolved is None:
            raise ConfigurationError(
                "no distortion model: pass `model=` or set a default on the index"
            )
        if resolved.ndims != self.ndims:
            raise ConfigurationError(
                f"model dimension {resolved.ndims} != index dimension {self.ndims}"
            )
        return resolved

    @staticmethod
    def _scan_options(
        depth: Optional[int], options: Optional[QueryOptions]
    ) -> dict:
        """One call's depth (explicit argument, else the options', else
        ``None`` for the index default) and prefilter."""
        opts = resolve_options(options, depth=depth)
        return {"depth": opts.depth, "prefilter": opts.prefilter_enabled}

    def statistical_query(
        self,
        query: np.ndarray,
        alpha: float,
        model: Optional[IndependentDistortionModel] = None,
        depth: Optional[int] = None,
        exact_blocks: bool = False,
        options: Optional[QueryOptions] = None,
    ) -> SearchResult:
        """Answer a statistical query of expectation *alpha* (paper §II).

        Returns **every fingerprint stored in the selected blocks**: the
        region ``V_α`` is exactly the union of the chosen p-blocks, so the
        refinement step is a pure scan with no distance test — that is the
        point of the paradigm (no intrinsic shape constraint).  This is
        :meth:`statistical_query_batch` for a batch of one.

        With ``exact_blocks=True`` the minimal set ``B^min_α`` is computed
        by best-first search instead of the threshold iteration (slower
        filtering, minimal refinement — the ablation of §IV-A).

        ``options`` (the unified :class:`~repro.index.options.QueryOptions`)
        supplies the depth default when ``depth`` is not given, and the
        prefilter mode of a segmented index.
        """
        if not exact_blocks:
            [result] = self.statistical_query_batch(
                query, alpha, model, depth, options
            )
            return result
        from .batch import scan

        resolved = self._resolve_model(model)
        scan_options = self._scan_options(depth, options)
        depth = self._resolve_depth(scan_options.pop("depth"))
        t0 = time.perf_counter()
        selection = best_first_blocks(query, resolved, self.curve, depth, alpha)
        [result], _ = scan(
            self, SelectionBatch.of([selection]), time.perf_counter() - t0,
            **scan_options,
        )
        return result

    def statistical_query_batch(
        self,
        queries: np.ndarray,
        alpha: float,
        model: Optional[IndependentDistortionModel] = None,
        depth: Optional[int] = None,
        options: Optional[QueryOptions] = None,
    ) -> list[SearchResult]:
        """Answer a batch of statistical queries in one engine pass.

        One shared block-selection descent for the whole ``(B, D)`` query
        matrix, then one scan of the selected curve sections — see
        :mod:`repro.index.batch`.  Each result is what a batch of one
        returns, whatever ran before it.
        """
        from .batch import query_batch

        results, _ = query_batch(
            self, queries, alpha, model=model,
            **self._scan_options(depth, options),
        )
        return results

    def range_query(
        self,
        query: np.ndarray,
        epsilon: float,
        depth: Optional[int] = None,
        options: Optional[QueryOptions] = None,
    ) -> SearchResult:
        """Answer a classical spherical ε-range query (baseline of §V-A).

        Geometric filtering (blocks the sphere intersects), then the scan,
        then an exact distance test on the scanned rows
        (:func:`~repro.index.kernels.range_refine`).  The filter is
        admissible — a row within ε lies in a block the sphere meets — so
        a memtable row is tested like a segment row, after block
        membership.
        """
        from .batch import scan

        scan_options = self._scan_options(depth, options)
        depth = self._resolve_depth(scan_options.pop("depth"))
        t0 = time.perf_counter()
        selection = range_blocks(query, epsilon, self.curve, depth)
        [result], _ = scan(
            self, SelectionBatch.of([selection]), time.perf_counter() - t0,
            **scan_options,
        )
        t1 = time.perf_counter()
        keep, distances = range_refine(result.fingerprints, query, epsilon)
        return _kept(result, keep, distances, time.perf_counter() - t1)

    def window_query(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        depth: Optional[int] = None,
    ) -> SearchResult:
        """Answer a hyper-rectangular window query ``[lo, hi)``.

        The classical query type of Lawder's Hilbert indexing (paper §IV):
        geometric block filtering, then the scan, then an exact membership
        test on the scanned rows (:func:`~repro.index.kernels.window_refine`).
        """
        from .batch import scan

        depth = self._resolve_depth(depth)
        t0 = time.perf_counter()
        selection = window_blocks(lo, hi, self.curve, depth)
        [result], _ = scan(
            self, SelectionBatch.of([selection]), time.perf_counter() - t0,
        )
        t1 = time.perf_counter()
        keep = window_refine(result.fingerprints, lo, hi)
        return _kept(result, keep, None, time.perf_counter() - t1)


def _kept(
    result: SearchResult,
    keep: np.ndarray,
    distances: Optional[np.ndarray],
    refine_seconds: float,
) -> SearchResult:
    """*result* cut down to the rows its exact test *keep* passed, with
    the kept rows' *distances* (``None`` for a window), and the test's
    time added to the scan's."""
    stats = result.stats
    stats.results = int(np.count_nonzero(keep))
    stats.refine_seconds += refine_seconds
    return SearchResult(
        result.rows[keep], result.ids[keep], result.timecodes[keep],
        result.fingerprints[keep], distances, stats,
    )


class S3Index(S3Queries):
    """Static Hilbert-curve index with statistical and ε-range queries.

    Parameters
    ----------
    store:
        The fingerprint database.  It is re-ordered along the curve at
        build time; the index keeps its own sorted copy.
    order:
        Bits per fingerprint component (8 for byte fingerprints).
    key_levels:
        Curve levels resolved by the sort keys; partition depths up to
        ``key_levels * D`` are supported (2 levels = 40 bits for D = 20).
    depth:
        Default partition depth ``p``.  ``None`` picks the heuristic
        ``log2(N)`` (about one fingerprint per block), which
        :func:`repro.index.tuning.tune_depth` can refine — the paper learns
        ``p_min`` "at the start of the retrieval stage".
    model:
        Default distortion model for statistical queries (a
        :class:`~repro.distortion.model.NormalDistortionModel` with the
        calibrated severity σ).  Can be overridden per query.
    """

    def __init__(
        self,
        store: FingerprintStore,
        order: int = 8,
        key_levels: int = 2,
        depth: Optional[int] = None,
        model: Optional[IndependentDistortionModel] = None,
    ):
        if len(store) == 0:
            raise IndexError_("cannot index an empty store")
        layout = HilbertLayout.build(store.fingerprints, order, key_levels)
        self.layout = layout
        if np.array_equal(
            layout.permutation, np.arange(len(store), dtype=np.int64)
        ):
            # Already curve-ordered (stores written by save() / sealed
            # segments): keep the caller's store object, so an mmap-ed
            # store stays on disk instead of being copied into RAM.
            self.store = store
        else:
            self.store = store.take(layout.permutation)
        self.order = order
        self.key_levels = key_levels
        if depth is None:
            depth = int(np.ceil(np.log2(max(len(store), 2))))
            depth = min(max(depth, 1), layout.max_depth)
        self._check_depth(depth)
        self.depth = depth
        self.model = model
        self._view = None

    @property
    def curve(self):
        """The underlying :class:`~repro.hilbert.butz.HilbertCurve`."""
        return self.layout.curve

    @property
    def ndims(self) -> int:
        return self.store.ndims

    def __len__(self) -> int:
        return len(self.store)

    def _resolve_depth(self, depth: Optional[int]) -> int:
        """*depth*, or the index default when ``None``, checked."""
        depth = self.depth if depth is None else depth
        self._check_depth(depth)
        return depth

    def _check_depth(self, depth: int) -> None:
        if not 1 <= depth <= self.layout.max_depth:
            raise ConfigurationError(
                f"depth must be in [1, {self.layout.max_depth}], got {depth}"
            )

    def _read_view(self):
        """What a query scans: one resident part — this store and layout,
        no sketch — and no memtables.  Built once, as the index is
        static; the part refers back to the index weakly, so the view
        makes no reference cycle that would outlive the index."""
        if self._view is None:
            from .parts import ViewPlan
            from .segmented.lsm import ReadView, Segment, SegmentMeta

            meta = SegmentMeta("store", len(self.store))
            part = (Segment(meta, weakref.proxy(self)),)
            self._view = ReadView(part, plan=ViewPlan.build(part))
        return self._view

    # ------------------------------------------------------------------
    def block_selection(
        self,
        query: np.ndarray,
        alpha: float,
        model: Optional[IndependentDistortionModel] = None,
        depth: Optional[int] = None,
    ) -> BlockSelection:
        """Run only the statistical filtering step (used by diagnostics)."""
        resolved = self._resolve_model(model)
        depth = self._resolve_depth(depth)
        return statistical_blocks(query, resolved, self.curve, depth, alpha)

    def extended(self, additions: FingerprintStore) -> "S3Index":
        """Return a new index over this store plus *additions*.

        The S³ structure is static (paper §IV) — "no dynamic insertion or
        deletion are possible" — so growth happens by rebuild: concatenate
        and re-sort.  Geometry, depth and model carry over.
        """
        merged = FingerprintStore.concatenate([self.store, additions])
        return S3Index(
            merged,
            order=self.order,
            key_levels=self.key_levels,
            depth=self.depth,
            model=self.model,
        )

    # ------------------------------------------------------------------
    def save(self, prefix: PathLike) -> None:
        """Persist the index: ``<prefix>.store`` + ``<prefix>.meta.json``.

        The store is saved in curve order; keys are recomputed on load
        (deterministic), so no key file is needed.
        """
        prefix = Path(prefix)
        self.store.save(prefix.with_suffix(".store"))
        meta = {
            "order": self.order,
            "key_levels": self.key_levels,
            "depth": self.depth,
            "sigma": getattr(self.model, "sigma", None),
        }
        prefix.with_suffix(".meta.json").write_text(json.dumps(meta))

    @classmethod
    def load(cls, prefix: PathLike, mmap: bool = False) -> "S3Index":
        """Load an index saved by :meth:`save`.

        With ``mmap=True`` the store columns are memory-mapped read-only;
        since :meth:`save` writes in curve order, the index keeps the
        mapped store as-is (zero-copy).
        """
        prefix = Path(prefix)
        meta = json.loads(prefix.with_suffix(".meta.json").read_text())
        store = FingerprintStore.load(prefix.with_suffix(".store"), mmap=mmap)
        model = None
        if meta.get("sigma") is not None:
            model = NormalDistortionModel(store.ndims, meta["sigma"])
        return cls(
            store,
            order=meta["order"],
            key_levels=meta["key_levels"],
            depth=meta["depth"],
            model=model,
        )

"""The per-query path the query engine replaced: the oracle of
``test_query_oracle.py``.

These are the earlier solo ``statistical_query`` / ``range_query`` /
``window_query`` of :class:`~repro.index.s3.S3Index` and of
:class:`~repro.index.segmented.lsm.SegmentedS3Index`, and the helpers
they scanned through — ``S3Index._options_depth``, ``row_ranges`` and
``_scan_blocks``, ``SegmentedS3Index._prefilter_on`` and ``_fan_out``,
``lsm._empty_part``, ``SegmentSketch.prune_ranges`` /
``prune_prefixes`` and ``HilbertLayout.gather_rows`` — moved here
verbatim as functions of the index.  The only edits: the methods take
``self`` as their first argument, the query methods carry an ``s3_`` /
``segmented_`` prefix, their call sites name the copies below, and
``_fan_out`` no longer counts ``segments_cold`` / ``cold_rows`` or
keeps ``per_segment``, whose fields are gone (it sums its sections and
rows from a local list).  Nothing under ``src/`` imports them.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.distortion.model import IndependentDistortionModel
from repro.index.filtering import (
    BlockSelection,
    best_first_blocks,
    range_blocks,
    statistical_blocks_cached,
    window_blocks,
)
from repro.index.kernels import range_refine, window_refine
from repro.index.options import QueryOptions
from repro.index.s3 import QueryStats, SearchResult
from repro.index.segmented.lsm import SegmentedQueryStats
from repro.index.segmented.sketch import SegmentSketch
from repro.index.table import HilbertLayout, expand_ranges


# ----------------------------------------------------------------------
# S3Index
# ----------------------------------------------------------------------
def _options_depth(
    self, depth: Optional[int], options: Optional["QueryOptions"]
) -> int:
    """Resolve a call's depth: explicit arg > options > index default."""
    if depth is not None:
        return depth
    if options is not None and options.depth is not None:
        return options.depth
    return self.depth


def s3_statistical_query(
    self,
    query: np.ndarray,
    alpha: float,
    model: Optional[IndependentDistortionModel] = None,
    depth: Optional[int] = None,
    exact_blocks: bool = False,
    options: Optional["QueryOptions"] = None,
) -> SearchResult:
    """Answer a statistical query of expectation *alpha* (paper §II).

    Returns **every fingerprint stored in the selected blocks**: the
    region ``V_α`` is exactly the union of the chosen p-blocks, so the
    refinement step is a pure scan with no distance test — that is the
    point of the paradigm (no intrinsic shape constraint).

    With ``exact_blocks=True`` the minimal set ``B^min_α`` is computed
    by best-first search instead of the threshold iteration (slower
    filtering, minimal refinement — the ablation of §IV-A).

    ``options`` (the unified :class:`~repro.index.options.QueryOptions`)
    supplies the depth default when ``depth`` is not given; its
    prefilter mode is a no-op here — a monolithic index has no
    segment tier to skip.
    """
    resolved = self._resolve_model(model)
    depth = _options_depth(self, depth, options)
    self._check_depth(depth)

    t0 = time.perf_counter()
    if exact_blocks:
        selection = best_first_blocks(query, resolved, self.curve, depth, alpha)
    else:
        selection = statistical_blocks_cached(
            query, resolved, self.curve, depth, alpha,
            cache=self._threshold_cache,
        )
    t1 = time.perf_counter()
    result = _scan_blocks(self, selection)
    result.stats.filter_seconds = t1 - t0
    result.stats.nodes_visited = selection.nodes_visited
    result.stats.descents = selection.descents
    return result


def s3_range_query(
    self,
    query: np.ndarray,
    epsilon: float,
    depth: Optional[int] = None,
    options: Optional["QueryOptions"] = None,
) -> SearchResult:
    """Answer a classical spherical ε-range query (baseline of §V-A).

    Geometric filtering (blocks the sphere intersects) followed by an
    exact distance test during refinement.
    """
    depth = _options_depth(self, depth, options)
    self._check_depth(depth)

    t0 = time.perf_counter()
    selection = range_blocks(query, epsilon, self.curve, depth)
    t1 = time.perf_counter()
    result = _scan_blocks(self, selection)
    # Exact refinement in the integer domain (repro.index.kernels):
    # no float64 copy of the gathered rows, identical distances.
    t2 = time.perf_counter()
    if len(result):
        keep, distances = range_refine(
            result.fingerprints, query, epsilon
        )
        result = SearchResult(
            rows=result.rows[keep],
            ids=result.ids[keep],
            timecodes=result.timecodes[keep],
            fingerprints=result.fingerprints[keep],
            distances=distances,
            stats=result.stats,
        )
    t3 = time.perf_counter()
    result.stats.filter_seconds = t1 - t0
    result.stats.refine_seconds += t3 - t2
    result.stats.results = len(result)
    result.stats.nodes_visited = selection.nodes_visited
    result.stats.descents = selection.descents
    return result


def s3_window_query(
    self,
    lo: np.ndarray,
    hi: np.ndarray,
    depth: Optional[int] = None,
) -> SearchResult:
    """Answer a hyper-rectangular window query ``[lo, hi)``.

    The classical query type of Lawder's Hilbert indexing (paper §IV):
    geometric block filtering followed by exact membership refinement.
    """
    depth = self.depth if depth is None else depth
    self._check_depth(depth)

    t0 = time.perf_counter()
    selection = window_blocks(lo, hi, self.curve, depth)
    t1 = time.perf_counter()
    result = _scan_blocks(self, selection)
    t2 = time.perf_counter()
    if len(result):
        keep = window_refine(result.fingerprints, lo, hi)
        result = SearchResult(
            rows=result.rows[keep],
            ids=result.ids[keep],
            timecodes=result.timecodes[keep],
            fingerprints=result.fingerprints[keep],
            stats=result.stats,
        )
    t3 = time.perf_counter()
    result.stats.filter_seconds = t1 - t0
    result.stats.refine_seconds += t3 - t2
    result.stats.results = len(result)
    result.stats.nodes_visited = selection.nodes_visited
    result.stats.descents = selection.descents
    return result


def row_ranges(self, selection: BlockSelection) -> list[tuple[int, int]]:
    """Merged row ranges ("curve sections") covering *selection*."""
    return self.layout.block_row_ranges(selection.prefixes, selection.depth)


def gather_rows(self: HilbertLayout, ranges: list[tuple[int, int]]) -> np.ndarray:
    """Return the row indices covered by *ranges*, in curve order."""
    bounds = np.array(ranges, dtype=np.int64).reshape(-1, 2)
    return expand_ranges(bounds[:, 0], bounds[:, 1])


def _scan_blocks(self, selection: BlockSelection) -> SearchResult:
    t0 = time.perf_counter()
    ranges = row_ranges(self, selection)
    rows = gather_rows(self.layout, ranges)
    result = SearchResult(
        rows=rows,
        ids=self.store.ids[rows],
        timecodes=self.store.timecodes[rows],
        fingerprints=self.store.fingerprints[rows],
    )
    t1 = time.perf_counter()
    result.stats.blocks_selected = len(selection)
    result.stats.sections_scanned = len(ranges)
    result.stats.rows_scanned = int(rows.size)
    result.stats.results = len(result)
    result.stats.refine_seconds = t1 - t0
    return result


# ----------------------------------------------------------------------
# SegmentedS3Index
# ----------------------------------------------------------------------
def segmented_statistical_query(
    self,
    query: np.ndarray,
    alpha: float,
    model: Optional[IndependentDistortionModel] = None,
    depth: Optional[int] = None,
    options: Optional[QueryOptions] = None,
) -> SearchResult:
    """Statistical query of expectation α across segments + memtable.

    The block selection is computed once — it depends only on the
    query, the model and the shared curve geometry — and applied to
    every segment and to the memtable, so the merged result equals a
    monolithic :class:`S3Index` over the same records.  Segment
    sketches prune provably-empty segments first (admissible — same
    result bit for bit); ``options.prefilter="off"`` disables that.
    """
    resolved = self._resolve_model(model)
    depth = self._resolve_depth(depth)
    t0 = time.perf_counter()
    selection = statistical_blocks_cached(
        query, resolved, self.curve, depth, alpha,
        cache=self._threshold_cache,
    )
    t1 = time.perf_counter()
    result = _fan_out(
        self,
        selection, refine=None, prefilter=_prefilter_on(options)
    )
    result.stats.filter_seconds = t1 - t0
    return result


def segmented_range_query(
    self,
    query: np.ndarray,
    epsilon: float,
    depth: Optional[int] = None,
    options: Optional[QueryOptions] = None,
) -> SearchResult:
    """ε-range query across segments + memtable (exact refinement).

    Range queries use both sketch prunes: occupancy (skip segments
    with no rows in the selected blocks) and the per-block min/max
    lower bound (skip row ranges whose every block has ``lb² > ε²``
    — rows the refinement would reject anyway).
    """
    depth = self._resolve_depth(depth)
    t0 = time.perf_counter()
    selection = range_blocks(query, epsilon, self.curve, depth)
    t1 = time.perf_counter()
    result = _fan_out(
        self,
        selection,
        refine=(np.asarray(query, dtype=np.float64), epsilon),
        prefilter=_prefilter_on(options),
    )
    result.stats.filter_seconds = t1 - t0
    return result


def _prefilter_on(options: Optional[QueryOptions]) -> bool:
    return options.prefilter_enabled if options is not None else True


def _fan_out(
    self,
    selection: BlockSelection,
    refine: Optional[tuple[np.ndarray, float]],
    prefilter: bool = True,
) -> SearchResult:
    """Scan the selection in every segment + the memtables and merge.

    The segment set, frozen memtables and active-memtable length
    are pinned once (:meth:`_read_view`), so the scan covers one
    consistent snapshot even while a background seal or compaction
    switches the live view over mid-query.

    With *refine* set (``(query, epsilon)``), an exact distance test
    is applied to each part — the ε-range refinement — and distances
    are reported.  With *prefilter* (the default), each segment's
    sketch first drops the selected blocks the segment provably holds
    no rows of; a segment whose whole selection is dropped is skipped
    without touching its store or mmap.  Both prunes are admissible,
    so the merged result is bit-identical either way.
    """
    view = self._read_view()
    stats = SegmentedQueryStats()
    per_segment: list[QueryStats] = []
    parts: list[SearchResult] = []
    base = 0
    for seg in view.segments:
        t0 = time.perf_counter()
        prefixes = selection.prefixes
        sketch = seg.sketch if prefilter else None
        if sketch is not None and len(prefixes):
            pruned = prune_prefixes(sketch, prefixes, selection.depth)
            stats.blocks_skipped += len(prefixes) - len(pruned)
            if len(pruned) == 0:
                stats.segments_skipped += 1
                seg_stats = QueryStats(blocks_selected=len(selection))
                seg_stats.refine_seconds = time.perf_counter() - t0
                parts.append(_empty_part(self.ndims, refine, seg_stats))
                per_segment.append(seg_stats)
                base += seg.meta.count
                continue
            prefixes = pruned
        ranges = seg.layout.block_row_ranges(
            prefixes, selection.depth
        )
        if sketch is not None and refine is not None and ranges:
            kept = prune_ranges(sketch, ranges, refine[0], refine[1])
            if not kept:
                stats.segments_skipped += 1
            ranges = kept
        rows = gather_rows(seg.layout, ranges)
        if seg.index is not None:
            store = seg.index.store
            ids_col = store.ids
            tcs_col = store.timecodes
            fps = store.fingerprints[rows]
            gathered = False
        elif rows.size:
            # Cold: block selection needed no store bytes; now fetch
            # exactly the selected ranges' columns from the backend.
            ids_col, tcs_col, fps = self.storage.fetch_ranges(
                seg, ranges
            )
            gathered = True
        else:
            ids_col = np.empty(0, dtype=np.uint32)
            tcs_col = np.empty(0, dtype=np.float64)
            fps = np.empty((0, self.ndims), dtype=np.uint8)
            gathered = True
        if self.storage is not None:
            self.storage.touch(seg)
        distances = None
        seg_stats = QueryStats(
            blocks_selected=len(selection),
            sections_scanned=len(ranges),
            rows_scanned=int(rows.size),
        )
        if refine is not None and rows.size:
            q, epsilon = refine
            keep, distances = range_refine(fps, q, epsilon)
            rows = rows[keep]
            fps = fps[keep]
            if gathered:
                ids_col = ids_col[keep]
                tcs_col = tcs_col[keep]
        elif refine is not None:
            distances = np.empty(0, dtype=np.float64)
        part = SearchResult(
            rows=rows + base,
            ids=ids_col if gathered else ids_col[rows],
            timecodes=tcs_col if gathered else tcs_col[rows],
            fingerprints=fps,
            distances=distances,
            stats=seg_stats,
        )
        seg_stats.results = len(part)
        seg_stats.refine_seconds = time.perf_counter() - t0
        parts.append(part)
        per_segment.append(seg_stats)
        base += seg.meta.count

    # The memtable parts — frozen memtables (oldest first) then the
    # active one, bounded to the pinned snapshot length: block
    # membership for statistical queries, exact distances for range
    # queries (strictly tighter than block membership, hence still
    # consistent with the monolithic answer).
    memtable_rows = 0
    mem_refine_seconds = 0.0
    mem_parts = [(f.memtable, f.rows) for f in view.frozen]
    mem_parts.append((view.memtable, view.memtable_rows))
    for memtable, limit in mem_parts:
        t0 = time.perf_counter()
        if refine is None:
            mem_rows = memtable.scan_selection(selection, limit=limit)
            mem_distances = None
        else:
            q, epsilon = refine
            mem_rows, mem_distances = memtable.range_rows(
                q, epsilon, limit=limit
            )
        mem_part_store = memtable.take(mem_rows)
        mem_stats = QueryStats(
            blocks_selected=len(selection),
            rows_scanned=limit,
            results=int(mem_rows.size),
            refine_seconds=time.perf_counter() - t0,
        )
        parts.append(SearchResult(
            rows=mem_rows + base,
            ids=mem_part_store.ids,
            timecodes=mem_part_store.timecodes,
            fingerprints=mem_part_store.fingerprints,
            distances=mem_distances,
            stats=mem_stats,
        ))
        memtable_rows += limit
        mem_refine_seconds += mem_stats.refine_seconds
        base += limit

    merged = SearchResult(
        rows=np.concatenate([p.rows for p in parts]),
        ids=np.concatenate([p.ids for p in parts]),
        timecodes=np.concatenate([p.timecodes for p in parts]),
        fingerprints=np.concatenate([p.fingerprints for p in parts]),
        distances=(
            np.concatenate([p.distances for p in parts])
            if refine is not None else None
        ),
        stats=stats,
    )
    stats.blocks_selected = len(selection)
    stats.nodes_visited = selection.nodes_visited
    stats.descents = selection.descents
    stats.segments_scanned = len(view.segments)
    stats.memtable_rows_scanned = memtable_rows
    stats.sections_scanned = sum(
        s.sections_scanned for s in per_segment
    )
    stats.rows_scanned = (
        sum(s.rows_scanned for s in per_segment)
        + memtable_rows
    )
    stats.refine_seconds = (
        sum(s.refine_seconds for s in per_segment)
        + mem_refine_seconds
    )
    stats.results = len(merged)
    # Tier transitions (promotion hysteresis, budget demotions) run
    # here — off-lane when maintenance is running, otherwise on the
    # calling thread after the scan is fully merged.
    self._settle()
    return merged


def _empty_part(
    ndims: int,
    refine: Optional[tuple[np.ndarray, float]],
    stats: QueryStats,
) -> SearchResult:
    """The zero-row part of a sketch-skipped segment (store untouched)."""
    return SearchResult(
        rows=np.empty(0, dtype=np.int64),
        ids=np.empty(0, dtype=np.uint32),
        timecodes=np.empty(0, dtype=np.float64),
        fingerprints=np.empty((0, ndims), dtype=np.uint8),
        distances=(
            np.empty(0, dtype=np.float64) if refine is not None else None
        ),
        stats=stats,
    )


# ----------------------------------------------------------------------
# SegmentSketch
# ----------------------------------------------------------------------
def prune_prefixes(
    self: SegmentSketch, prefixes: np.ndarray, depth: int
) -> np.ndarray:
    """Drop selected blocks this segment provably holds no rows of.

    *prefixes* are sorted ``depth``-bit curve prefixes from a
    :class:`~repro.index.filtering.BlockSelection`.  Keeps a prefix
    iff the segment's occupancy intersects its key interval — so the
    surviving prefixes yield row ranges identical to the full
    selection's.
    """
    prefixes = np.asarray(prefixes, dtype=np.uint64)
    return prefixes[self.occupancy_mask(prefixes, depth)]


def prune_ranges(
    self: SegmentSketch,
    ranges: Sequence[tuple[int, int]],
    query: np.ndarray,
    epsilon: float,
) -> list[tuple[int, int]]:
    """Drop row ranges an ε-ball query provably cannot match in.

    A range survives iff at least one of its overlapping bounds
    blocks has ``lb² <= ε²``.  Only admissible for range queries —
    their refinement rejects exactly the rows the bound excludes.
    """
    if not ranges:
        return []
    bounds = self.ball_lower_bounds_sq(query)
    eps_sq = float(epsilon) ** 2
    near = bounds <= eps_sq
    kept: list[tuple[int, int]] = []
    for s, e in ranges:
        b0 = s // self.block_rows
        b1 = (e - 1) // self.block_rows + 1
        if bool(near[b0:b1].any()):
            kept.append((s, e))
    return kept

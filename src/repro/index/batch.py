"""Batched multi-query engine: shared filtering, coalesced scans, demux.

The paper's deployed system answers one statistical query per key-frame
fingerprint; the detection paths originally reproduced that literally — a
Python loop re-descending the Hilbert tree and re-scanning overlapping
curve sections for every query.  This module amortises that per-query
work across a frame batch:

1. **Shared block selection** — the threshold search of eq. (4) runs over
   the whole ``(B, D)`` query matrix at once
   (:func:`~repro.index.filtering.statistical_blocks_batch_cached`): all
   still-active searches share one vectorised pass per tree level, and
   the warm-start ``t_max`` cache is read/written once per batch.
2. **Scan coalescing** — temporally adjacent key-frames select heavily
   overlapping p-blocks, so the selected curve sections of a batch are
   merged into their disjoint union, each physical section is gathered
   exactly once, and rows are demultiplexed back to per-query
   :class:`~repro.index.s3.SearchResult`s.  O(B·overlap) I/O becomes
   O(union).

The coalesced gather is the only scan path (``docs/batch-query.md``,
"Why there is one scan path").

Per-query results are **bit-identical** to the sequential
``statistical_query`` path started from the same warm-start cache state
(property-tested in ``tests/index/test_batch.py``); see
``docs/batch-query.md`` for the exact cache semantics of a batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from ..distortion.model import IndependentDistortionModel
from ..errors import ConfigurationError
from .filtering import statistical_blocks_batch_cached
from .options import QueryOptions, resolve_options
from .s3 import QueryStats, S3Index, SearchResult
from .store import FingerprintStore
from .table import HilbertLayout

RowRange = tuple[int, int]

#: Gather-cache key of a monolithic index's single store (a segment's
#: key is its manifest name).
MONOLITHIC_STORE = "store"


@dataclass
class BatchQueryStats:
    """Aggregate cost of one or more batched queries.

    ``logical_rows`` is what a sequential per-query loop would have
    scanned (the sum of every query's selected rows); ``unique_rows`` is
    what the coalesced scan actually gathered.  Their ratio is the I/O
    saved by coalescing.
    """

    queries: int = 0
    batches: int = 0
    blocks_selected: int = 0
    sections_scanned: int = 0
    logical_rows: int = 0
    unique_rows: int = 0
    results: int = 0
    segments_skipped: int = 0
    blocks_skipped: int = 0
    filter_seconds: float = 0.0
    scan_seconds: float = 0.0
    #: Cold-tier traffic of the batch: segments scanned through the blob
    #: backend, union rows fetched, payload bytes and wall-clock spent
    #: fetching them (wall-clock overlaps resident scans when the
    #: prefetcher is on, so ``cold_fetch_seconds`` can exceed the time
    #: the batch actually waited).
    cold_segments: int = 0
    cold_rows: int = 0
    cold_bytes: int = 0
    cold_fetch_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.filter_seconds + self.scan_seconds

    @property
    def coalescing_factor(self) -> float:
        """Logical rows per physically gathered row (>= 1 with overlap)."""
        if self.unique_rows == 0:
            return 1.0
        return self.logical_rows / self.unique_rows

    def merge(self, other: "BatchQueryStats") -> None:
        """Accumulate *other* into this (used when chunking a workload)."""
        self.queries += other.queries
        self.batches += other.batches
        self.blocks_selected += other.blocks_selected
        self.sections_scanned += other.sections_scanned
        self.logical_rows += other.logical_rows
        self.unique_rows += other.unique_rows
        self.results += other.results
        self.segments_skipped += other.segments_skipped
        self.blocks_skipped += other.blocks_skipped
        self.filter_seconds += other.filter_seconds
        self.scan_seconds += other.scan_seconds
        self.cold_segments += other.cold_segments
        self.cold_rows += other.cold_rows
        self.cold_bytes += other.cold_bytes
        self.cold_fetch_seconds += other.cold_fetch_seconds


# ----------------------------------------------------------------------
# Scan coalescing
# ----------------------------------------------------------------------
def coalesce_ranges(
    range_lists: Sequence[list[RowRange]],
) -> list[RowRange]:
    """Merge every query's row ranges into their disjoint sorted union.

    Each input list is the merged "curve sections" of one query (sorted,
    disjoint — as produced by
    :meth:`~repro.index.table.HilbertLayout.block_row_ranges`).  Touching
    ranges merge, so every input range lies **entirely inside exactly
    one** union range — the invariant the demux step relies on.
    """
    total = sum(len(ranges) for ranges in range_lists)
    if total == 0:
        return []
    starts = np.empty(total, dtype=np.int64)
    ends = np.empty(total, dtype=np.int64)
    at = 0
    for ranges in range_lists:
        for s, e in ranges:
            starts[at] = s
            ends[at] = e
            at += 1
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    ends = ends[order]
    running = np.maximum.accumulate(ends)
    new_group = np.empty(total, dtype=bool)
    new_group[0] = True
    new_group[1:] = starts[1:] > running[:-1]
    first = np.nonzero(new_group)[0]
    last = np.append(first[1:] - 1, total - 1)
    return [
        (int(s), int(e)) for s, e in zip(starts[first], running[last])
    ]


def _demux_union(
    layout: HilbertLayout,
    per_query_ranges: Sequence[list[RowRange]],
    union: list[RowRange],
    u_ids: np.ndarray,
    u_tcs: np.ndarray,
    u_fps: np.ndarray,
) -> list[tuple]:
    """Split union columns back into per-query ``(rows, ids, tcs, fps)``.

    Fancy indexing copies, so the returned arrays never alias the union
    buffers (which the gather cache may hand to later batches).
    """
    if union:
        u_starts = np.array([s for s, _ in union], dtype=np.int64)
        lengths = np.array([e - s for s, e in union], dtype=np.int64)
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths)]
        )
    per_query = []
    for ranges in per_query_ranges:
        rows_q = layout.gather_rows(ranges)
        if rows_q.size:
            # Each per-query range sits inside exactly one union range, so
            # its rows map to positions by offsetting within that range.
            k = np.searchsorted(u_starts, rows_q, side="right") - 1
            pos = offsets[k] + (rows_q - u_starts[k])
        else:
            pos = np.empty(0, dtype=np.int64)
        per_query.append((rows_q, u_ids[pos], u_tcs[pos], u_fps[pos]))
    return per_query


def _scan_coalesced(
    layout: HilbertLayout,
    store: FingerprintStore,
    per_query_ranges: Sequence[list[RowRange]],
    store_name: str = MONOLITHIC_STORE,
    gather_cache=None,
) -> tuple[list[tuple], int, int]:
    """Scan the union of all queries' sections once and demultiplex.

    Returns ``(per_query, union_sections, unique_rows)`` where each
    ``per_query`` entry is ``(rows, ids, timecodes, fingerprints)`` —
    exactly the columns the sequential ``_scan_blocks`` would have
    gathered for that query alone, in the same (curve) order.

    With *gather_cache* (a :class:`~repro.serve.cache.GatherCache`),
    recurring ``(store, union)`` gathers are answered from cached
    column copies.  Fancy indexing copies, so cached columns are
    byte-identical to a fresh gather of the same immutable store rows;
    the serving layer invalidates the cache whenever the index mutates.
    """
    union = coalesce_ranges(per_query_ranges)
    total = sum(e - s for s, e in union)
    cached = (
        gather_cache.get(store_name, union)
        if gather_cache is not None else None
    )
    if cached is not None:
        u_ids, u_tcs, u_fps = cached
    else:
        u_rows = layout.gather_rows(union)
        u_ids = store.ids[u_rows]
        u_tcs = store.timecodes[u_rows]
        u_fps = store.fingerprints[u_rows]
        if gather_cache is not None:
            gather_cache.put(
                store_name, union, (u_ids, u_tcs, u_fps), total
            )
    per_query = _demux_union(
        layout, per_query_ranges, union, u_ids, u_tcs, u_fps
    )
    return per_query, len(union), total


# ----------------------------------------------------------------------
# Batched statistical queries
# ----------------------------------------------------------------------
def _check_batch(queries: np.ndarray, ndims: int) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.ndim != 2 or queries.shape[1] != ndims:
        raise ConfigurationError(
            f"queries must be (B, {ndims}), got shape {queries.shape}"
        )
    return queries


def query_batch_monolithic(
    index: S3Index,
    queries: np.ndarray,
    alpha: float,
    model: Optional[IndependentDistortionModel] = None,
    depth: Optional[int] = None,
    gather_cache=None,
) -> tuple[list[SearchResult], BatchQueryStats]:
    """Answer a batch of statistical queries against a monolithic index.

    Per-query results are bit-identical to ``index.statistical_query``
    called per query from the same warm-start cache state.  Per-query
    timing fields carry an equal share of the batch's filter/scan time.
    """
    queries = _check_batch(queries, index.ndims)
    resolved = index._resolve_model(model)
    depth = index.depth if depth is None else depth
    index._check_depth(depth)
    num = queries.shape[0]
    batch = BatchQueryStats(queries=num, batches=1)
    if num == 0:
        return [], batch

    t0 = time.perf_counter()
    selections = statistical_blocks_batch_cached(
        queries, resolved, index.curve, depth, alpha,
        cache=index._threshold_cache,
    )
    t1 = time.perf_counter()
    per_ranges = [index.row_ranges(sel) for sel in selections]
    scans, union_sections, unique_rows = _scan_coalesced(
        index.layout, index.store, per_ranges, gather_cache=gather_cache,
    )
    t2 = time.perf_counter()

    results = []
    for sel, ranges, (rows_q, ids, tcs, fps) in zip(
        selections, per_ranges, scans
    ):
        stats = QueryStats(
            blocks_selected=len(sel),
            sections_scanned=len(ranges),
            rows_scanned=int(rows_q.size),
            results=int(rows_q.size),
            nodes_visited=sel.nodes_visited,
            descents=sel.descents,
            filter_seconds=(t1 - t0) / num,
            refine_seconds=(t2 - t1) / num,
        )
        results.append(SearchResult(
            rows=rows_q, ids=ids, timecodes=tcs, fingerprints=fps,
            stats=stats,
        ))

    batch.blocks_selected = sum(len(s) for s in selections)
    batch.sections_scanned = union_sections
    batch.logical_rows = sum(len(r) for r in results)
    batch.unique_rows = unique_rows
    batch.results = batch.logical_rows
    batch.filter_seconds = t1 - t0
    batch.scan_seconds = t2 - t1
    return results, batch


def query_batch_segmented(
    index,
    queries: np.ndarray,
    alpha: float,
    model: Optional[IndependentDistortionModel] = None,
    depth: Optional[int] = None,
    prefilter: bool = True,
    gather_cache=None,
    prefetch: bool = True,
) -> tuple[list[SearchResult], BatchQueryStats]:
    """Answer a batch of statistical queries against a segmented index.

    The block selections are computed once per batch and fanned out:
    each sealed segment is scanned with one coalesced pass, the memtable
    by block membership per query.  Merge order matches the sequential
    ``_fan_out`` — segments in manifest order, then the memtable — so
    per-query results are bit-identical to ``index.statistical_query``
    from the same warm-start cache state.

    With *prefilter* (the default), each segment's sketch drops the
    selected blocks the segment provably holds no rows of **per query**,
    before the per-query ranges enter :func:`coalesce_ranges` — so the
    unions shrink, and a (query, segment) pair whose whole selection is
    pruned never reaches the gather at all.  The prune is admissible:
    dropped blocks hold no rows, so the surviving ranges — and the
    results — are identical.

    For **cold segments** (tiered storage) block selection runs on their
    resident ``.keys`` sidecar, and exactly the coalesced union's byte
    ranges are fetched from the blob backend.  With *prefetch* (the
    default, when the index has a tier manager), those fetches are
    submitted **before** the resident scans start and collected after —
    backend latency overlaps local gathering.  Either way the fetched
    columns are the same bytes a resident gather would have produced,
    so results stay bit-identical.
    """
    from .segmented.lsm import SegmentedQueryStats

    queries = _check_batch(queries, index.ndims)
    resolved = index._resolve_model(model)
    depth = index._resolve_depth(depth)
    num = queries.shape[0]
    batch = BatchQueryStats(queries=num, batches=1)
    if num == 0:
        return [], batch

    t0 = time.perf_counter()
    selections = statistical_blocks_batch_cached(
        queries, resolved, index.curve, depth, alpha,
        cache=index._threshold_cache,
    )
    t1 = time.perf_counter()

    def seg_query_ranges(seg):
        """Per-query ranges of *seg*, sketch-pruned, plus skip counters."""
        sketch = seg.sketch if prefilter else None
        per_ranges = []
        skipped_q = []
        blocks_q = []
        for sel in selections:
            prefixes = sel.prefixes
            dropped = 0
            skipped = False
            if sketch is not None and len(prefixes):
                pruned = sketch.prune_prefixes(prefixes, sel.depth)
                dropped = len(prefixes) - len(pruned)
                skipped = len(pruned) == 0
                prefixes = pruned
            blocks_q.append(dropped)
            skipped_q.append(skipped)
            per_ranges.append(
                seg.layout.block_row_ranges(prefixes, sel.depth)
                if len(prefixes) else []
            )
        return per_ranges, skipped_q, blocks_q

    # Pin one snapshot view for the whole batch: the segment set, the
    # frozen memtables and the active-memtable length all come from the
    # same instant, so a background seal or compaction switching the
    # live view mid-batch can neither drop nor double-count rows.
    view = index._read_view()
    segments = list(view.segments)
    storage = getattr(index, "storage", None)
    # Block selection needs no store bytes (resident keys sidecars for
    # cold segments), so every segment's pruned per-query ranges — and
    # their coalesced unions — are known before a single row is read.
    seg_pruned = [seg_query_ranges(seg) for seg in segments]
    seg_unions = [coalesce_ranges(p[0]) for p in seg_pruned]

    # Cold fetches start *now*, before the resident scans, so backend
    # latency overlaps the local gathers below.
    cold_bytes0 = storage.stats.fetch_bytes if storage is not None else 0
    cold_secs0 = storage.stats.fetch_seconds if storage is not None else 0.0
    cold_handles: dict[int, object] = {}
    if storage is not None and prefetch:
        for i, seg in enumerate(segments):
            if seg.index is None and seg_unions[i]:
                cold_handles[i] = storage.prefetch(seg, seg_unions[i])

    seg_scans: list = [None] * len(segments)
    for i, seg in enumerate(segments):
        if seg.index is not None:
            seg_scans[i] = _scan_coalesced(
                seg.index.layout, seg.index.store, seg_pruned[i][0],
                store_name=seg.meta.name, gather_cache=gather_cache,
            )

    # Collect the cold fetches (or fetch synchronously when the
    # prefetcher is off) and demux them exactly like a resident union.
    cold_segments_scanned = 0
    for i, seg in enumerate(segments):
        if seg.index is not None:
            continue
        union = seg_unions[i]
        total = sum(e - s for s, e in union)
        if total == 0:
            u_ids = np.empty(0, dtype=np.uint32)
            u_tcs = np.empty(0, dtype=np.float64)
            u_fps = np.empty((0, index.ndims), dtype=np.uint8)
        elif i in cold_handles:
            u_ids, u_tcs, u_fps = storage.collect(cold_handles[i])
            cold_segments_scanned += 1
        else:
            u_ids, u_tcs, u_fps = storage.fetch_ranges(seg, union)
            cold_segments_scanned += 1
        scans = _demux_union(
            seg.layout, seg_pruned[i][0], union, u_ids, u_tcs, u_fps
        )
        seg_scans[i] = (scans, len(union), total)

    if storage is not None:
        for i, seg in enumerate(segments):
            if seg_unions[i]:
                storage.touch(seg)

    # Memtable scans — frozen memtables (oldest first) then the active
    # one, each bounded to the rows the pinned view captured.
    mem_tables = [(f.memtable, f.rows) for f in view.frozen]
    mem_tables.append((view.memtable, view.memtable_rows))
    mem_scans = []
    for memtable, limit in mem_tables:
        rows_q = [
            memtable.scan_selection(sel, limit=limit) for sel in selections
        ]
        parts_q = [memtable.take(rows) for rows in rows_q]
        mem_scans.append((rows_q, parts_q, limit))
    memtable_rows = sum(limit for _, _, limit in mem_scans)
    t2 = time.perf_counter()

    filter_share = (t1 - t0) / num
    scan_share = (t2 - t1) / num
    results = []
    for qi in range(num):
        sel = selections[qi]
        stats = SegmentedQueryStats(
            blocks_selected=len(sel),
            nodes_visited=sel.nodes_visited,
            descents=sel.descents,
            filter_seconds=filter_share,
        )
        rows_parts, ids_parts, tcs_parts, fps_parts = [], [], [], []
        base = 0
        for seg, (per_ranges, skipped_q, blocks_q), (scans, _, _) in zip(
            segments, seg_pruned, seg_scans
        ):
            rows_q, ids, tcs, fps = scans[qi]
            seg_stats = QueryStats(
                blocks_selected=len(sel),
                sections_scanned=len(per_ranges[qi]),
                rows_scanned=int(rows_q.size),
                results=int(rows_q.size),
            )
            stats.segments_skipped += int(skipped_q[qi])
            stats.blocks_skipped += blocks_q[qi]
            rows_parts.append(rows_q + base)
            ids_parts.append(ids)
            tcs_parts.append(tcs)
            fps_parts.append(fps)
            stats.per_segment.append(seg_stats)
            base += seg.meta.count
        for rows_q, parts_q, limit in mem_scans:
            mem = parts_q[qi]
            rows_parts.append(rows_q[qi] + base)
            ids_parts.append(mem.ids)
            tcs_parts.append(mem.timecodes)
            fps_parts.append(mem.fingerprints)
            base += limit

        merged = SearchResult(
            rows=np.concatenate(rows_parts),
            ids=np.concatenate(ids_parts),
            timecodes=np.concatenate(tcs_parts),
            fingerprints=np.concatenate(fps_parts),
            stats=stats,
        )
        stats.segments_scanned = len(segments)
        stats.memtable_rows_scanned = memtable_rows
        stats.sections_scanned = sum(
            s.sections_scanned for s in stats.per_segment
        )
        stats.rows_scanned = (
            sum(s.rows_scanned for s in stats.per_segment)
            + memtable_rows
        )
        stats.results = len(merged)
        stats.refine_seconds = scan_share
        results.append(merged)

    batch.blocks_selected = sum(len(s) for s in selections)
    batch.sections_scanned = sum(s[1] for s in seg_scans)
    batch.logical_rows = sum(len(r) for r in results)
    batch.unique_rows = (
        sum(s[2] for s in seg_scans)
        + sum(
            int(r.size) for rows_q, _, _ in mem_scans for r in rows_q
        )
    )
    batch.segments_skipped = sum(
        sum(int(f) for f in p[1]) for p in seg_pruned
    )
    batch.blocks_skipped = sum(sum(p[2]) for p in seg_pruned)
    batch.results = batch.logical_rows
    batch.filter_seconds = t1 - t0
    batch.scan_seconds = t2 - t1
    if storage is not None:
        batch.cold_segments = cold_segments_scanned
        batch.cold_rows = sum(
            s[2] for i, s in enumerate(seg_scans)
            if segments[i].index is None
        )
        batch.cold_bytes = storage.stats.fetch_bytes - cold_bytes0
        batch.cold_fetch_seconds = storage.stats.fetch_seconds - cold_secs0
        # Tier transitions run here, after the batch is fully merged —
        # never while the scan loop above is iterating the segment list.
        index._settle()
    return results, batch


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class BatchQueryExecutor:
    """Chunk a query workload into batches and run the batched engine.

    One executor serves one ``(index, alpha, model, depth)`` workload —
    the combination the warm-start threshold cache is keyed on.  Both
    :class:`~repro.index.s3.S3Index` and
    :class:`~repro.index.segmented.lsm.SegmentedS3Index` are supported;
    the right engine is picked by duck-typing on the fan-out internals.

    *options* carries the tuning (:class:`~repro.index.options.QueryOptions`):
    ``batch_size`` is the queries per engine call — larger batches
    amortise descent overhead and coalesce more aggressively but delay
    the warm-start cache update (it happens once per batch).  *alpha*
    and *depth*, when given, override the options' values.
    """

    def __init__(
        self,
        index,
        alpha: Optional[float] = None,
        model: Optional[IndependentDistortionModel] = None,
        depth: Optional[int] = None,
        options: Optional[QueryOptions] = None,
    ):
        if options is None and alpha is None:
            raise ConfigurationError(
                "BatchQueryExecutor: pass alpha= or options="
            )
        opts = resolve_options(options, alpha=alpha, depth=depth)
        self.index = index
        self.options = opts
        self.alpha = opts.alpha
        self.model = model
        self.depth = opts.depth
        self.batch_size = opts.batch_size
        self.stats = BatchQueryStats()
        #: Optional :class:`~repro.serve.cache.GatherCache` the serving
        #: layer plugs in; ``None`` keeps every gather cold.
        self.gather_cache = None
        self._segmented = hasattr(index, "_fan_out")

    # Perf-compat: the frozen perf/workloads/{stat_scan,tiered_scan}.py
    # call these five names and pass QueryOptions(executor="auto") — the
    # one value options.py accepts; nothing else does.  All six are
    # deleted at the next benchmark revision.
    def warm(self) -> None:
        pass
    def plan_batch(self) -> str:
        return "serial"
    def pool_stats(self) -> None:
        return None
    def close(self) -> None:
        pass
    def __enter__(self) -> "BatchQueryExecutor":
        return self
    def __exit__(self, *exc) -> None:
        pass
    @property
    def planner_stats(self) -> SimpleNamespace:
        return SimpleNamespace(decisions={"serial": self.stats.batches})

    # ------------------------------------------------------------------
    def query_batch(self, queries: np.ndarray) -> list[SearchResult]:
        """Run one engine call over *queries* (no chunking)."""
        if self._segmented:
            results, batch = query_batch_segmented(
                self.index, queries, self.alpha,
                model=self.model, depth=self.depth,
                prefilter=self.options.prefilter_enabled,
                prefetch=self.options.prefetch_enabled,
                gather_cache=self.gather_cache,
            )
        else:
            results, batch = query_batch_monolithic(
                self.index, queries, self.alpha,
                model=self.model, depth=self.depth,
                gather_cache=self.gather_cache,
            )
        self.stats.merge(batch)
        return results

    def query_all(self, queries: np.ndarray) -> list[SearchResult]:
        """Run *queries* through the engine in ``batch_size`` chunks."""
        queries = _check_batch(queries, self.index.ndims)
        results: list[SearchResult] = []
        for start in range(0, queries.shape[0], self.batch_size):
            results.extend(
                self.query_batch(queries[start:start + self.batch_size])
            )
        return results

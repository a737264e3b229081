"""Batched multi-query engine: shared filtering, one-copy scans.

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
2. **Array-wide ranges, one copy per row** — the curve sections of the
   whole batch come from one ``searchsorted`` pair and one vectorised
   merge (:meth:`~repro.index.table.HilbertLayout.batch_row_ranges`).
   The store is in curve order, so a query's answer is a concatenation
   of contiguous store slices, gathered straight into arrays its
   :class:`~repro.index.s3.SearchResult` owns: each returned row is
   copied exactly once, and a resident scan moves the batch's logical
   rows, however much the queries overlap.  The batch's disjoint union
   is materialised only where something reuses it — the gather cache
   keeps it, and a cold segment fetches exactly it from the blob
   backend, so backend I/O is O(union) rather than O(sum over queries).

Every scan runs in the calling thread (``docs/batch-query.md``, "Why
there is one scan path").

Per-query results are **bit-identical** to the sequential
``statistical_query`` path started from the same warm-start cache state
(property-tested in ``tests/index/test_batch.py``); see
``docs/batch-query.md`` for the exact cache semantics of a batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Optional

import numpy as np

from ..distortion.model import IndependentDistortionModel
from ..errors import ConfigurationError
from .filtering import statistical_blocks_batch_cached
from .options import QueryOptions, resolve_options
from .s3 import QueryStats, S3Index, SearchResult
from .store import FingerprintStore
from .table import RangeBatch, expand_ranges, merge_ranges

RowRange = tuple[int, int]

#: Gather-cache key of a monolithic index's single store (a segment's
#: key is its manifest name).
MONOLITHIC_STORE = "store"


@dataclass
class BatchQueryStats:
    """Aggregate cost of one or more batched queries.

    ``logical_rows`` is the sum of every query's selected rows, which a
    resident scan copies once each; ``unique_rows`` is the rows of the
    per-store unions, which a gather-cache miss or a cold fetch reads.
    Their ratio is what reading the union saves.
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
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


# ----------------------------------------------------------------------
# The scan
# ----------------------------------------------------------------------
def coalesce_ranges(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge a batch's row ranges into their disjoint sorted union.

    The inputs are every query's curve sections, flattened (a
    :class:`~repro.index.table.RangeBatch`'s ``starts``/``ends``).
    Touching ranges merge, so every input range lies **entirely inside
    exactly one** union range — what :func:`_gather` maps ranges by.
    """
    order = np.argsort(starts, kind="stable")
    return merge_ranges(starts[order], ends[order])


def _pairs(union: tuple[np.ndarray, np.ndarray]) -> list[RowRange]:
    """*union* as ``(start, end)`` pairs: gather-cache key, fetch ranges."""
    return list(zip(union[0].tolist(), union[1].tolist()))


def _rows(union: tuple[np.ndarray, np.ndarray]) -> int:
    """Rows covered by *union*."""
    return int((union[1] - union[0]).sum())


def _gather(
    sections: RangeBatch, columns: tuple, union=None
) -> list[tuple]:
    """Per-query ``(rows, ids, timecodes, fingerprints)`` of *sections*.

    *columns* are a store's ``(ids, timecodes, fingerprints)``, or — with
    *union* — the columns of that union, gathered once.  A query range
    then sits inside exactly one union range ``k``, at buffer offset
    ``offsets[k] + (start - u_starts[k])``: one ``searchsorted`` per
    range, none per row.  Either way each row is copied once, by one
    ``take`` per column per query, into arrays the result owns.
    """
    starts, ends, bounds = sections
    lengths = ends - starts
    rows = pos = expand_ranges(starts, ends)
    if union is not None:
        u_starts, u_ends = union
        u_lengths = u_ends - u_starts
        k = np.searchsorted(u_starts, starts, side="right") - 1
        src = (np.cumsum(u_lengths) - u_lengths)[k] + (starts - u_starts[k])
        pos = expand_ranges(src, src + lengths)
    # ``take`` on the base class: 3x a 2-D fancy index, and a memory-
    # mapped column yields a plain array, as indexing it does.
    columns = [np.asarray(column) for column in columns]
    cuts = np.append(0, np.cumsum(lengths))[bounds].tolist()
    return [
        (rows[a:b].copy(), *(c.take(pos[a:b], axis=0) for c in columns))
        for a, b in zip(cuts[:-1], cuts[1:])
    ]


def _scan(
    store: FingerprintStore,
    sections: RangeBatch,
    union: tuple[np.ndarray, np.ndarray],
    store_name: str = MONOLITHIC_STORE,
    gather_cache=None,
) -> list[tuple]:
    """Gather every query of *sections* from a resident store.

    Without *gather_cache* each query gathers straight from the store
    columns and *union* is never materialised.  With one (a
    :class:`~repro.serve.cache.GatherCache`), the union's columns are
    what the cache keeps: gathered once, or replayed on a hit, and each
    query is carved out of them.  ``take`` copies, so cached columns are
    byte-identical to a fresh gather of the same immutable store rows
    and never alias a result; the serving layer invalidates the cache
    whenever the index mutates.
    """
    columns = (store.ids, store.timecodes, store.fingerprints)
    if gather_cache is None:
        return _gather(sections, columns)
    key = _pairs(union)
    cached = gather_cache.get(store_name, key)
    if cached is None:
        u_rows = expand_ranges(*union)
        cached = tuple(
            np.asarray(column).take(u_rows, axis=0) for column in columns
        )
        gather_cache.put(store_name, key, cached, int(u_rows.size))
    return _gather(sections, cached, union)


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
    sections = index.layout.batch_row_ranges(
        [sel.prefixes for sel in selections], depth
    )
    union = coalesce_ranges(sections.starts, sections.ends)
    scans = _scan(index.store, sections, union, gather_cache=gather_cache)
    t2 = time.perf_counter()

    results = []
    for sel, count, (rows_q, ids, tcs, fps) in zip(
        selections, np.diff(sections.bounds).tolist(), scans
    ):
        stats = QueryStats(
            blocks_selected=len(sel),
            sections_scanned=count,
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
    batch.sections_scanned = int(union[0].size)
    batch.logical_rows = sum(len(r) for r in results)
    batch.unique_rows = _rows(union)
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
    each sealed segment's ranges and union are computed once for the
    batch, the memtable is scanned by block membership per query.  Merge
    order matches the sequential ``_fan_out`` — segments in manifest
    order, then the memtable — so per-query results are bit-identical to
    ``index.statistical_query`` from the same warm-start cache state.

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
        kept = [sel.prefixes for sel in selections]
        if prefilter and seg.sketch is not None:
            kept = [seg.sketch.prune_prefixes(p, depth) for p in kept]
        sizes = [(len(sel), len(p)) for sel, p in zip(selections, kept)]
        return (
            seg.layout.batch_row_ranges(kept, depth),
            [n > 0 and m == 0 for n, m in sizes],  # every block pruned
            [n - m for n, m in sizes],  # blocks pruned
        )

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
    seg_unions = [
        coalesce_ranges(sections.starts, sections.ends)
        for sections, _, _ in seg_pruned
    ]
    seg_rows = [_rows(union) for union in seg_unions]
    seg_counts = [np.diff(p[0].bounds).tolist() for p in seg_pruned]

    # Cold fetches start *now*, before the resident scans, so backend
    # latency overlaps the local gathers below.
    cold_bytes0 = storage.stats.fetch_bytes if storage is not None else 0
    cold_secs0 = storage.stats.fetch_seconds if storage is not None else 0.0
    cold_handles: dict[int, object] = {}
    if storage is not None and prefetch:
        for i, seg in enumerate(segments):
            if seg.index is None and seg_rows[i]:
                cold_handles[i] = storage.prefetch(seg, _pairs(seg_unions[i]))

    seg_scans: list = [None] * len(segments)
    for i, seg in enumerate(segments):
        if seg.index is not None:
            seg_scans[i] = _scan(
                seg.index.store, seg_pruned[i][0], seg_unions[i],
                store_name=seg.meta.name, gather_cache=gather_cache,
            )

    # Collect the cold fetches (or fetch synchronously when the
    # prefetcher is off): the fetched union is carved up exactly like a
    # cached one.
    cold_segments_scanned = 0
    for i, seg in enumerate(segments):
        if seg.index is not None:
            continue
        if seg_rows[i] == 0:
            columns = (np.empty(0, np.uint32), np.empty(0, np.float64),
                       np.empty((0, index.ndims), np.uint8))
        else:
            columns = (
                storage.collect(cold_handles[i]) if i in cold_handles
                else storage.fetch_ranges(seg, _pairs(seg_unions[i]))
            )
            cold_segments_scanned += 1
        seg_scans[i] = _gather(seg_pruned[i][0], columns, seg_unions[i])

    if storage is not None:
        for i, seg in enumerate(segments):
            if seg_rows[i]:
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
        for seg, (_, skipped_q, blocks_q), counts, scans in zip(
            segments, seg_pruned, seg_counts, seg_scans
        ):
            rows_q, ids, tcs, fps = scans[qi]
            seg_stats = QueryStats(
                blocks_selected=len(sel),
                sections_scanned=counts[qi],
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
    batch.sections_scanned = sum(int(u[0].size) for u in seg_unions)
    batch.logical_rows = sum(len(r) for r in results)
    batch.unique_rows = (
        sum(seg_rows)
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
            rows for seg, rows in zip(segments, seg_rows)
            if seg.index is None
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

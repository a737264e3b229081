"""The two-copy scan the one-copy gather replaced.

These are the earlier bodies of ``repro.index.table`` (the per-query
merge loop and the ``arange``-per-range expansion) and of
``repro.index.batch`` (the Python-filled union, the union gather, the
per-row ``searchsorted`` demux and the two engines that drove them),
moved here verbatim.  The only edits: the call sites that named the
layout methods and ``SegmentSketch.prune_prefixes`` call the copies
below and in ``reference_query``, ``MONOLITHIC_STORE`` is defined here,
``query_batch_segmented`` sums its sections and rows from a local
list, since ``SegmentedQueryStats.per_segment`` is gone, and both
engines select with ``statistical_blocks_multi``, since the warm-start
threshold cache they read is gone.  They are the oracle
``test_scan_oracle.py`` holds the engine to, and nothing under ``src/``
imports them.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.distortion.model import IndependentDistortionModel
from repro.errors import ConfigurationError
from repro.index.batch import BatchQueryStats, _check_batch
from repro.index.filtering import statistical_blocks_multi
from repro.index.s3 import QueryStats, S3Index, SearchResult
from repro.index.store import FingerprintStore
from repro.index.table import HilbertLayout

from .reference_query import prune_prefixes

RowRange = tuple[int, int]

#: Gather-cache key of a monolithic index's single store (a segment's
#: key is its manifest name).
MONOLITHIC_STORE = "store"


# ----------------------------------------------------------------------
# HilbertLayout.block_row_ranges / gather_rows
# ----------------------------------------------------------------------
def block_row_ranges(
    self: HilbertLayout, prefixes: np.ndarray, depth: int
) -> list[tuple[int, int]]:
    """Return merged contiguous row ranges covering the given blocks.

    *prefixes* must be sorted in curve order (as produced by the
    filtering step).  Blocks adjacent on the curve merge into a single
    section — the Hilbert clustering property at work.
    """
    if depth > self.key_bits:
        raise ConfigurationError(
            f"depth {depth} exceeds key resolution {self.key_bits}"
        )
    if len(prefixes) == 0:
        return []
    prefixes = np.asarray(prefixes, dtype=np.uint64)
    shift = np.uint64(self.key_bits - depth)
    lo_keys = prefixes << shift
    hi_keys = (prefixes + np.uint64(1)) << shift
    # (prefix + 1) << shift overflows to 0 only for the very last block
    # of the partition when key_bits == 64; keys never reach 2^64 - 1
    # in that configuration because depth <= 64 is enforced upstream,
    # so map the wrapped 0 to the maximum sentinel.
    starts = np.searchsorted(self.keys, lo_keys, side="left")
    ends = np.empty_like(starts)
    wrapped = hi_keys == 0
    ends[~wrapped] = np.searchsorted(self.keys, hi_keys[~wrapped], side="left")
    ends[wrapped] = self.keys.size

    ranges: list[tuple[int, int]] = []
    for s, e in zip(starts.tolist(), ends.tolist()):
        if s >= e:
            continue
        if ranges and s <= ranges[-1][1]:
            ranges[-1] = (ranges[-1][0], max(e, ranges[-1][1]))
        else:
            ranges.append((s, e))
    return ranges


def gather_rows(self: HilbertLayout, ranges: list[tuple[int, int]]) -> np.ndarray:
    """Return the row indices covered by *ranges*, in curve order."""
    if not ranges:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        [np.arange(s, e, dtype=np.int64) for s, e in ranges]
    )


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
        rows_q = gather_rows(layout, ranges)
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
        u_rows = gather_rows(layout, union)
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
    selections = statistical_blocks_multi(
        queries, resolved, index.curve, depth, alpha
    )
    t1 = time.perf_counter()
    per_ranges = [
        block_row_ranges(index.layout, sel.prefixes, sel.depth)
        for sel in selections
    ]
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
    from repro.index.segmented.lsm import SegmentedQueryStats

    queries = _check_batch(queries, index.ndims)
    resolved = index._resolve_model(model)
    depth = index._resolve_depth(depth)
    num = queries.shape[0]
    batch = BatchQueryStats(queries=num, batches=1)
    if num == 0:
        return [], batch

    t0 = time.perf_counter()
    selections = statistical_blocks_multi(
        queries, resolved, index.curve, depth, alpha
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
                pruned = prune_prefixes(sketch, prefixes, sel.depth)
                dropped = len(prefixes) - len(pruned)
                skipped = len(pruned) == 0
                prefixes = pruned
            blocks_q.append(dropped)
            skipped_q.append(skipped)
            per_ranges.append(
                block_row_ranges(seg.layout, prefixes, sel.depth)
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
        per_segment: list[QueryStats] = []
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
            per_segment.append(seg_stats)
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
            s.sections_scanned for s in per_segment
        )
        stats.rows_scanned = (
            sum(s.rows_scanned for s in per_segment)
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
    return results, batch

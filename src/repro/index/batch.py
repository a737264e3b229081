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
   backend in one call, so backend I/O is O(union) rather than O(sum
   over queries).
3. **Segment-major gather, query-major results** — on a segmented index
   a query's answer spans every segment and memtable.  Each segment's
   sketch prune, ranges and union are computed once for the whole batch;
   each part (segment or memtable) is gathered with one ``take`` per
   column into one batch buffer; then each query takes its rows out of
   that buffer with one ``take`` per column.  The Python work is per
   segment and per query, never per (query, segment) pair.

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


def _union(sections: RangeBatch) -> tuple[np.ndarray, np.ndarray]:
    """The disjoint union of a batch's *sections*.

    One query's sections already are their own union — sorted, disjoint
    and non-touching — so only a batch of several is coalesced.
    """
    if sections.bounds.size == 2:
        return sections.starts, sections.ends
    return coalesce_ranges(sections.starts, sections.ends)


def _pairs(union: tuple[np.ndarray, np.ndarray]) -> list[RowRange]:
    """*union* as ``(start, end)`` pairs: gather-cache key, fetch ranges."""
    return list(zip(union[0].tolist(), union[1].tolist()))


def _rows(union: tuple[np.ndarray, np.ndarray]) -> int:
    """Rows covered by *union*."""
    return int((union[1] - union[0]).sum())


def _query_cuts(sections: RangeBatch) -> np.ndarray:
    """Where each query's rows start among the rows of *sections*, and
    their total."""
    lengths = sections.ends - sections.starts
    return np.append(0, np.cumsum(lengths))[sections.bounds]


def _positions(
    sections: RangeBatch, union=None
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of *sections*, query after query, and where they sit in
    the source columns.

    The source is a store's own columns (positions are the rows), or —
    with *union* — the columns of that union, gathered once.  A query
    range then sits inside exactly one union range ``k``, at offset
    ``offsets[k] + (start - u_starts[k])``: one ``searchsorted`` per
    range, none per row.
    """
    starts, ends, _ = sections
    rows = expand_ranges(starts, ends)
    if union is None:
        return rows, rows
    u_starts, u_ends = union
    u_lengths = u_ends - u_starts
    k = np.searchsorted(u_starts, starts, side="right") - 1
    src = (np.cumsum(u_lengths) - u_lengths)[k] + (starts - u_starts[k])
    return rows, expand_ranges(src, src + (ends - starts))


def _columns(store: FingerprintStore) -> tuple:
    """A store's ``(ids, timecodes, fingerprints)``, as base-class arrays.

    ``take`` on the base class is 3x a 2-D fancy index, and a memory-
    mapped column yields a plain array, as indexing it does.
    """
    return tuple(
        np.asarray(c) for c in (store.ids, store.timecodes, store.fingerprints)
    )


def _union_columns(
    columns: tuple, union: tuple[np.ndarray, np.ndarray], store_name: str,
    gather_cache,
) -> tuple:
    """The columns of *union*, from the gather cache or gathered into it.

    ``take`` copies, so cached columns are byte-identical to a fresh
    gather of the same immutable store rows; queries only ever ``take``
    from them, so a cached entry never aliases a result.  The serving
    layer invalidates the cache whenever the index mutates.
    """
    key = _pairs(union)
    cached = gather_cache.get(store_name, key)
    if cached is None:
        u_rows = expand_ranges(*union)
        cached = tuple(column.take(u_rows, axis=0) for column in columns)
        gather_cache.put(store_name, key, cached, int(u_rows.size))
    return cached


def _gather(
    sections: RangeBatch, columns: tuple, union=None
) -> list[tuple]:
    """Per-query ``(rows, ids, timecodes, fingerprints)`` of *sections*.

    *columns* are the source of :func:`_positions`.  Each row is copied
    once, by one ``take`` per column per query, into arrays the result
    owns.
    """
    rows, pos = _positions(sections, union)
    cuts = _query_cuts(sections).tolist()
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
    what the cache keeps (:func:`_union_columns`), and each query is
    carved out of them.
    """
    columns = _columns(store)
    if gather_cache is None:
        return _gather(sections, columns)
    return _gather(
        sections, _union_columns(columns, union, store_name, gather_cache),
        union,
    )


def _take_into(out: tuple, at: int, columns: tuple, pos: np.ndarray) -> None:
    """Copy *columns* at *pos* into the buffers *out* from row *at*.

    One ``take`` per column.  ``mode="clip"`` never clips — positions
    are in range by construction — but spares ``take`` the scratch copy
    its default mode makes when writing to ``out``.
    """
    for column, buf in zip(columns, out):
        np.take(column, pos, axis=0, out=buf[at:at + pos.size], mode="clip")


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
    union = _union(sections)
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


def _segment_sections(
    seg, prefixes: np.ndarray, owner: np.ndarray, counts: np.ndarray,
    depth: int, prefilter: bool,
) -> tuple[RangeBatch, np.ndarray]:
    """One segment's ranges for the whole batch, plus the blocks each
    query kept in it.

    *prefixes* are the batch's selections concatenated, query
    ``owner[j]`` owning prefix ``j`` and ``counts[q]`` prefixes in all.
    With *prefilter*, the segment's sketch tests all of them in one
    call, and a ``bincount`` counts what each query kept.
    """
    sketch = seg.sketch if prefilter else None
    if sketch is not None:
        keep = sketch.occupancy_mask(prefixes, depth)
        prefixes = prefixes[keep]
        counts = np.bincount(owner[keep], minlength=counts.size)
    return seg.layout.row_ranges(prefixes, counts, depth), counts


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

    The block selections are computed once per batch and fanned out
    segment by segment: each sealed segment's ranges and union are
    computed once for the whole batch, and the memtables are scanned by
    block membership.  Merge order matches the sequential ``_fan_out``
    — segments in manifest order, then the frozen and active memtables
    — so per-query results are bit-identical to
    ``index.statistical_query`` from the same warm-start cache state.

    The Python work is per segment and per query, never per (query,
    segment) pair: every part (a segment or a memtable) is gathered
    with one ``take`` per column into one batch buffer per column, its
    rows query after query; then each query takes its rows from that
    buffer, part after part, with one ``take`` per column.  A batch of
    one query *is* its buffer.

    With *prefilter* (the default), each segment's sketch drops the
    selected blocks the segment provably holds no rows of **per query**,
    before the ranges enter :func:`coalesce_ranges` — so the unions
    shrink, and a (query, segment) pair whose whole selection is pruned
    gathers nothing.  The prune is admissible: dropped blocks hold no
    rows, so the surviving ranges — and the results — are identical.

    For **cold segments** (tiered storage) block selection runs on their
    resident ``.keys`` sidecar, and exactly the coalesced union's byte
    ranges are fetched from the blob backend, in one backend call per
    segment.  With *prefetch* (the default, when the index has a tier
    manager), those fetches are submitted **before** the resident
    gathers start and collected after — backend latency overlaps local
    gathering.  Either way the fetched columns are the same bytes a
    resident gather would have produced, so results stay bit-identical.
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
    counts = np.array([len(sel) for sel in selections], dtype=np.int64)
    prefixes = np.concatenate(
        [np.asarray(sel.prefixes, dtype=np.uint64) for sel in selections]
    )
    owner = np.repeat(np.arange(num), counts)

    # Pin one snapshot view for the whole batch: the segment set, the
    # frozen memtables and the active-memtable length all come from the
    # same instant, so a background seal or compaction switching the
    # live view mid-batch can neither drop nor double-count rows.
    view = index._read_view()
    segments = view.segments
    storage = getattr(index, "storage", None)
    # Block selection needs no store bytes (resident keys sidecars for
    # cold segments), so every segment's pruned ranges — and their
    # coalesced unions — are known before a single row is read.
    seg_sections, seg_kept = [], []
    for seg in segments:
        sections, kept = _segment_sections(
            seg, prefixes, owner, counts, depth, prefilter
        )
        seg_sections.append(sections)
        seg_kept.append(kept)
    seg_unions = [_union(s) for s in seg_sections]
    union_rows = [_rows(union) for union in seg_unions]
    cold = [
        i for i, seg in enumerate(segments)
        if seg.index is None and union_rows[i]
    ]

    # Cold fetches start *now*, before the resident gathers, so backend
    # latency overlaps them.
    cold_bytes0 = storage.stats.fetch_bytes if storage is not None else 0
    cold_secs0 = storage.stats.fetch_seconds if storage is not None else 0.0
    handles = {}
    if prefetch:
        handles = {
            i: storage.prefetch(segments[i], np.column_stack(seg_unions[i]))
            for i in cold
        }

    # Memtable rows — frozen memtables (oldest first) then the active
    # one, each bounded to the rows the pinned view captured.
    mem_tables = [(f.memtable, f.rows) for f in view.frozen]
    mem_tables.append((view.memtable, view.memtable_rows))
    mem_rows = [
        [memtable.scan_selection(sel, limit=limit) for sel in selections]
        for memtable, limit in mem_tables
    ]
    memtable_rows = sum(limit for _, limit in mem_tables)

    # The batch buffer: part after part, each part's rows query after
    # query.  block_rows[p, q] is what query q takes from part p.
    block_rows = np.array(
        [np.diff(_query_cuts(s)) for s in seg_sections]
        + [[r.size for r in rows_q] for rows_q in mem_rows],
        dtype=np.int64,
    ).reshape(len(segments) + len(mem_tables), num)
    part_rows = block_rows.sum(axis=1).tolist()
    part_at = np.cumsum([0] + part_rows).tolist()
    total = part_at[-1]
    out = (
        np.empty(total, dtype=np.int64),
        np.empty(total, dtype=np.uint32),
        np.empty(total, dtype=np.float64),
        np.empty((total, index.ndims), dtype=np.uint8),
    )
    bases = np.cumsum(
        [0] + [seg.meta.count for seg in segments]
        + [limit for _, limit in mem_tables]
    ).tolist()

    def put(part, columns, rows, pos):
        """Part *part*: its global rows, and its *columns* at *pos*."""
        at = part_at[part]
        np.add(rows, bases[part], out=out[0][at:at + rows.size])
        _take_into(out[1:], at, columns, pos)

    for i, seg in enumerate(segments):
        if seg.index is None:
            continue
        columns, union = _columns(seg.index.store), None
        if gather_cache is not None:
            union = seg_unions[i]
            columns = _union_columns(
                columns, union, seg.meta.name, gather_cache
            )
        if part_rows[i]:
            put(i, columns, *_positions(seg_sections[i], union))
    for j, (memtable, _) in enumerate(mem_tables):
        if part_rows[len(segments) + j]:
            rows = np.concatenate(mem_rows[j])
            put(len(segments) + j, memtable.columns(), rows, rows)
    # Collect the cold fetches (or fetch now when the prefetcher is
    # off): the fetched union is carved up exactly like a cached one.
    for i in cold:
        columns = (
            storage.collect(handles[i]) if i in handles
            else storage.fetch_ranges(
                segments[i], np.column_stack(seg_unions[i])
            )
        )
        put(i, columns, *_positions(seg_sections[i], seg_unions[i]))
    if storage is not None:
        for i, seg in enumerate(segments):
            if union_rows[i]:
                storage.touch(seg)

    # Each query's rows, part after part: one take per column.  With
    # one query the buffer already is in that order, and owned.
    if num == 1:
        parts = [out]
    else:
        block_at = np.cumsum(block_rows).reshape(block_rows.shape) - block_rows
        order = expand_ranges(
            block_at.T.ravel(), (block_at + block_rows).T.ravel()
        )
        cuts = np.append(0, np.cumsum(block_rows.sum(axis=0))).tolist()
        parts = [
            tuple(buf.take(order[a:b], axis=0) for buf in out)
            for a, b in zip(cuts[:-1], cuts[1:])
        ]
    t2 = time.perf_counter()

    seg_block_rows = block_rows[:len(segments)]
    seg_sections_q = np.array(
        [np.diff(s.bounds) for s in seg_sections], dtype=np.int64
    ).reshape(len(segments), num)
    kept = np.array(seg_kept, dtype=np.int64).reshape(len(segments), num)
    skipped = (counts > 0) & (kept == 0)
    pruned = counts - kept
    per_query = zip(
        seg_sections_q.T.tolist(), seg_block_rows.T.tolist(),
        seg_sections_q.sum(axis=0).tolist(), seg_block_rows.sum(axis=0).tolist(),
        skipped.sum(axis=0).tolist(), pruned.sum(axis=0).tolist(),
    )
    filter_share = (t1 - t0) / num
    scan_share = (t2 - t1) / num
    results = []
    for sel, (rows, ids, tcs, fps), (
        sections_s, rows_s, sections, scanned, seg_skipped, blocks_skipped,
    ) in zip(selections, parts, per_query):
        blocks = len(sel)
        stats = SegmentedQueryStats(
            blocks_selected=blocks,
            sections_scanned=sections,
            rows_scanned=scanned + memtable_rows,
            results=int(rows.size),
            nodes_visited=sel.nodes_visited,
            descents=sel.descents,
            filter_seconds=filter_share,
            refine_seconds=scan_share,
            segments_scanned=len(segments),
            segments_skipped=seg_skipped,
            blocks_skipped=blocks_skipped,
            memtable_rows_scanned=memtable_rows,
            # Positional: (blocks_selected, sections_scanned,
            # rows_scanned, results), twice as fast as keywords here.
            per_segment=[
                QueryStats(blocks, s, r, r) for s, r in zip(sections_s, rows_s)
            ],
        )
        results.append(SearchResult(
            rows=rows, ids=ids, timecodes=tcs, fingerprints=fps, stats=stats,
        ))

    batch.blocks_selected = int(counts.sum())
    batch.sections_scanned = sum(int(u[0].size) for u in seg_unions)
    batch.logical_rows = total
    batch.unique_rows = sum(union_rows) + sum(part_rows[len(segments):])
    batch.segments_skipped = int(skipped.sum())
    batch.blocks_skipped = int(pruned.sum())
    batch.results = total
    batch.filter_seconds = t1 - t0
    batch.scan_seconds = t2 - t1
    if storage is not None:
        batch.cold_segments = len(cold)
        batch.cold_rows = sum(
            rows for seg, rows in zip(segments, union_rows)
            if seg.index is None
        )
        batch.cold_bytes = storage.stats.fetch_bytes - cold_bytes0
        batch.cold_fetch_seconds = storage.stats.fetch_seconds - cold_secs0
        # Tier transitions run here, after the batch is fully merged —
        # never while the gathers above are iterating the segment list.
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

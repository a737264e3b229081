"""The query engine: shared filtering, one-copy scans.

Every S³ query has the paper's two steps (§IV): a filter picks p-blocks,
then one sequential scan reads the selected curve sections.  Statistical,
ε-range and window queries differ only in the filter, so there is **one
scan** here, :func:`scan`, which returns every row of the selected
blocks.  Every query method of both index kinds
(:class:`~repro.index.s3.S3Queries`) runs its selection and then that
scan: a solo query is a batch of one, and a range or window query then
applies its exact test to the scanned rows itself.  The scan reads
an index's read view: a static :class:`~repro.index.s3.S3Index` is one
resident part with no sketch and no memtables, a segmented index its
segments and memtables, and the two kinds differ only in that data.

The paper's deployed system answers one statistical query per key-frame
fingerprint; the detection paths originally reproduced that literally — a
Python loop re-descending the Hilbert tree and re-scanning overlapping
curve sections for every query.  This module amortises that per-query
work across a frame batch:

1. **Shared block selection** — the threshold search of eq. (4) runs over
   the whole ``(B, D)`` query matrix at once
   (:func:`~repro.index.filtering.statistical_blocks_multi`): one tree
   descent for the batch and one vectorised pass per tree level.  It
   returns one flat :class:`~repro.index.filtering.SelectionBatch`
   (every query's prefixes concatenated, per-query counts), and
   :func:`scan` reads those columns as they are.
2. **Array-wide ranges, one copy per row** — the curve sections of the
   whole batch come from one ``searchsorted`` pair and one vectorised
   merge (:meth:`~repro.index.table.HilbertLayout.row_ranges`).
   The store is in curve order, so a query's answer is a concatenation
   of contiguous store slices, gathered straight into arrays its
   :class:`~repro.index.s3.SearchResult` owns: each returned row is
   copied exactly once, and a resident scan moves the batch's logical
   rows, however much the queries overlap.  The batch's disjoint union
   is materialised only for a cold segment, which fetches exactly it
   from the blob backend in one call, so backend I/O is O(union) rather
   than O(sum over queries); elsewhere it only feeds the
   ``sections_scanned`` and ``unique_rows`` counters.
3. **One plan per batch, part-major gather, query-major results** — on
   a segmented index a query's answer spans every segment and memtable.
   The segments are planned together, with the plan their view was
   published with (:class:`~repro.index.parts.ViewPlan`): one sketch
   test over the part-tagged occupancy, one key search per segment, one
   merge for every (segment, query) pair, and one coalescing of every
   segment's union.  Each memtable is scanned once
   for the batch.  When one part holds every row of the batch (always,
   for an ``S3Index``), each query takes its rows straight from it;
   otherwise each part (segment or memtable) is gathered with one
   ``take`` per column into one batch buffer, and each query takes its
   rows out of that buffer with one ``take`` per column.  The numpy
   calls are per batch, per part that holds rows and per query, never
   per (query, part) pair.

Every scan runs in the calling thread (``docs/batch-query.md``, "Why
there is one scan path").

A query's selection reads nothing but the query, the model, the depth
and α, so a batch's per-query results equal solo queries whatever ran
before them or beside them.  The per-query path this replaced is kept
in ``tests/index/reference_query.py`` as the oracle.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from ..distortion.model import IndependentDistortionModel
from ..errors import ConfigurationError
from .filtering import SelectionBatch, statistical_blocks_multi
from .options import QueryOptions, resolve_options
from .parts import ViewPlan
from .s3 import QueryStats, SearchResult
from .store import FingerprintStore
from .table import RangeBatch, expand_ranges, merge_ranges


@dataclass
class BatchQueryStats:
    """Aggregate cost of one or more batched queries.

    ``logical_rows`` is the sum of every query's selected rows, which a
    resident scan copies once each; ``unique_rows`` is the rows of the
    per-store unions, which a cold fetch reads.
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
    #: fetching them.
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
    exactly one** union range — what :func:`_union_positions` maps ranges by.
    """
    order = np.argsort(starts, kind="stable")
    return merge_ranges(starts[order], ends[order])


def _running(counts: np.ndarray) -> np.ndarray:
    """``0`` and the running sums of *counts*: where each item starts."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _unions(
    sections: RangeBatch, num: int, offsets: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Every part's disjoint union of *sections* — its (part, query)
    pairs' ranges, rows of the view — and where each part's starts.

    One query's sections already are their own union.  Otherwise part
    ``p``'s ranges are lifted by ``p`` rows, so one
    :func:`coalesce_ranges` call builds every part's union and none
    joins two parts.
    """
    starts, ends, bounds = sections
    if num == 1:
        return (starts, ends), bounds
    parts = offsets.size - 1
    if parts == 1:
        union = coalesce_ranges(starts, ends)
        return union, np.array([0, union[0].size])
    lift = np.repeat(np.arange(parts), np.diff(bounds[::num]))
    u_starts, u_ends = coalesce_ranges(starts + lift, ends + lift)
    union_bounds = np.searchsorted(u_starts, offsets + np.arange(parts + 1))
    lift = np.repeat(np.arange(parts), np.diff(union_bounds))
    return (u_starts - lift, u_ends - lift), union_bounds


def _rows(union: tuple[np.ndarray, np.ndarray]) -> int:
    """Rows covered by *union*."""
    return int((union[1] - union[0]).sum())


def _union_positions(
    starts: np.ndarray, ends: np.ndarray, union: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Where the rows of ranges ``[starts, ends)`` sit in the columns of
    *union*, fetched once, range after range.

    Each range lies inside exactly one union range ``k``, at offset
    ``heads[k] + (start - u_starts[k])``: one ``searchsorted`` per
    range, none per row.
    """
    u_starts, u_ends = union
    u_lengths = u_ends - u_starts
    k = np.searchsorted(u_starts, starts, side="right") - 1
    src = (np.cumsum(u_lengths) - u_lengths)[k] + (starts - u_starts[k])
    return expand_ranges(src, src + (ends - starts))


def _columns(store: FingerprintStore) -> tuple:
    """A store's ``(ids, timecodes, fingerprints)``, as base-class arrays.

    ``take`` on the base class is 3x a 2-D fancy index, and a memory-
    mapped column yields a plain array, as indexing it does.
    """
    return tuple(
        np.asarray(c) for c in (store.ids, store.timecodes, store.fingerprints)
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
# The engine: a selection stage, then the one scan
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


def _locate(
    plan: ViewPlan,
    selections: SelectionBatch,
    prefilter: bool,
) -> tuple[RangeBatch, np.ndarray, np.ndarray]:
    """Every (segment, query) pair's row ranges, in one pass over the
    view's parts, and per query the blocks and segments the sketches
    pruned.

    The ranges are rows of the view, one list per pair in part-major
    order.  With *prefilter*, one occupancy test over every (part,
    prefix) pair drops the blocks a sketched part holds no rows of, and
    one ``bincount`` counts what each pair kept; the kept prefixes are
    then located in one call.
    """
    num, depth = len(selections), selections.depth
    prefixes, counts = selections.prefixes, selections.counts
    parts = plan.offsets.size - 1
    if not (prefilter and plan.sketched.any()):
        if parts > 1:
            prefixes, counts = np.tile(prefixes, parts), np.tile(counts, parts)
        zero = np.zeros(num, dtype=np.int64)
        return plan.layout.row_ranges(prefixes, counts, depth), zero, zero
    keep = plan.occupancy(prefixes, depth)
    if num == 1:
        kept = keep.sum(axis=1, keepdims=True)
    else:
        pair = np.arange(parts)[:, None] * num + np.repeat(np.arange(num), counts)
        kept = np.bincount(pair[keep], minlength=parts * num).reshape(parts, num)
    pruned = ((counts - kept) * plan.sketched).sum(axis=0)
    lost = plan.sketched & (counts > 0) & (kept == 0)
    sections = plan.layout.row_ranges(
        np.broadcast_to(prefixes, keep.shape)[keep], kept.ravel(), depth
    )
    return sections, pruned, lost.sum(axis=0)


def query_batch(
    index,
    queries: np.ndarray,
    alpha: float,
    model: Optional[IndependentDistortionModel] = None,
    depth: Optional[int] = None,
    prefilter: bool = True,
    blocks: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> tuple[list[SearchResult], BatchQueryStats]:
    """Answer a batch of statistical queries against either index kind.

    One shared threshold search selects every query's blocks, then
    :func:`scan` reads them.  ``index.statistical_query`` is this for a
    batch of one.  Per-query timing fields carry an equal share of the
    batch's filter/scan time.

    *blocks*, when given, holds per query either ``None`` or the sorted
    ``depth``-bit prefixes already selected for it (a cluster router
    ships them); only the queries without blocks are searched.
    """
    queries = _check_batch(queries, index.ndims)
    resolved = index._resolve_model(model)
    depth = index._resolve_depth(depth)
    if queries.shape[0] == 0:
        return [], BatchQueryStats(batches=1)
    t0 = time.perf_counter()
    selections = select_blocks(
        index, queries, alpha, resolved, depth, blocks
    )
    return scan(
        index, selections, time.perf_counter() - t0, prefilter=prefilter
    )


def select_blocks(
    index,
    queries: np.ndarray,
    alpha: float,
    model: IndependentDistortionModel,
    depth: int,
    blocks: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> SelectionBatch:
    """Every query's blocks, in query order: searched, or, where
    *blocks* has them, as given.

    Each query's search is independent of which others share it, so
    searching only the queries without blocks changes none of their
    selections.
    """
    def search(rows: np.ndarray) -> SelectionBatch:
        return statistical_blocks_multi(rows, model, index.curve, depth, alpha)

    if blocks is None or all(b is None for b in blocks):
        return search(queries)
    shipped = [b for b in blocks if b is not None]
    given = SelectionBatch.given(
        np.concatenate(shipped),
        np.array([b.size for b in shipped], dtype=np.int64),
        depth,
    )
    if len(shipped) == len(blocks):
        return given
    mask = np.array([b is None for b in blocks])
    own = np.flatnonzero(mask)
    order = np.argsort(np.concatenate([own, np.flatnonzero(~mask)]))
    return SelectionBatch.concat([search(queries[own]), given]).take(order)


def scan(
    index,
    selections: SelectionBatch,
    filter_seconds: float = 0.0,
    prefilter: bool = True,
) -> tuple[list[SearchResult], BatchQueryStats]:
    """Read the rows of *selections* (one query or more): the scan
    stage of every query of both index kinds.

    Every part of one pinned read view is read — each segment, then the
    frozen and active memtables — and each query's result lists its
    rows part after part.  A static :class:`~repro.index.s3.S3Index` is
    a view of one resident part with no sketch and no memtables.
    *selections* is read as flat columns — every query's prefixes
    concatenated, with per-query counts — and never split per query;
    :meth:`SelectionBatch.of` wraps a solo geometric or best-first
    selection.  *filter_seconds* is what selecting the blocks took.
    Every scanned row is returned: a range or window query's exact test
    runs on the result, in :class:`~repro.index.s3.S3Queries`.

    The segments are planned in one pass over the view's
    :class:`~repro.index.parts.ViewPlan`, published with the segment
    set (:func:`_locate`): one occupancy test, one ``searchsorted``
    pair and one merge for every (segment, query) pair, then one
    coalescing of every segment's union.  Each memtable is scanned once
    for the batch (``MemTable.scan_batch``).  What is left per part is
    per part by nature: one ``take`` per column from each part that
    holds rows, and one backend read per cold segment.  The batch then
    picks how rows are copied:

    * **one part holds every row** (always so for an ``S3Index``): each
      query takes its rows straight from that part, one ``take`` per
      column, into arrays its result owns;
    * **one query**: every part is gathered into one buffer per column,
      and the buffer is the result;
    * **otherwise**: the same buffer, part after part and within a part
      query after query, then one ``take`` per column and query out of it.

    With *prefilter* (the default), each segment's sketch drops the
    selected blocks the segment provably holds no rows of **per query**,
    before the ranges are located — so the unions shrink, and a (query,
    segment) pair whose whole selection is pruned gathers nothing.  The
    prune is admissible: dropped blocks hold no rows, so the surviving
    ranges — and the results — are identical.

    For **cold segments** (tiered storage) block selection runs on their
    resident ``.keys`` sidecar, and exactly the coalesced union's byte
    ranges are fetched from the blob backend, in one backend call per
    segment, on the calling thread when the scan reaches the segment.
    The fetched columns are the same bytes a resident gather would have
    produced, so results stay bit-identical.  A scan never changes a
    segment's tier.
    """
    num = len(selections)
    t1 = time.perf_counter()

    # Pin one snapshot view for the whole batch: the segment set, its
    # plan, the frozen memtables and the active-memtable length all come
    # from the same instant, so a background seal or compaction
    # switching the live view mid-batch can neither drop nor
    # double-count rows.
    view = index._read_view()
    segments = view.segments
    parts = len(segments)
    storage = index.storage
    if storage is not None:
        cold_bytes0 = storage.stats.fetch_bytes
        cold_secs0 = storage.stats.fetch_seconds

    # Block selection needs no store bytes (resident keys sidecars for
    # cold segments), so every segment's ranges — and their coalesced
    # unions — are known before a single row is read.  Ranges and unions
    # are rows of the view: segment p's start at offsets[p].
    zero = np.zeros(num, dtype=np.int64)
    pruned = skipped = sections_q = scanned_q = zero
    union = (zero[:0], zero[:0])
    union_rows, held, cuts = zero[:0], [], []
    if parts and num:
        # A view published by an index carries its plan; only a view of
        # one part may leave it out, as its plan copies nothing.
        plan = view.plan
        if plan is None:
            assert parts == 1, "a view of several parts carries its plan"
            plan = ViewPlan.build(segments)
        offsets = plan.offsets
        sections, pruned, skipped = _locate(plan, selections, prefilter)
        starts, ends, bounds = sections
        # at[g]: where pair g = (part, query)'s rows start among the rows
        # of every pair.
        at = _running(ends - starts)[bounds]
        pair_rows = at[1:] - at[:-1]
        union, union_bounds = _unions(sections, num, offsets)
        if num == 1:
            union_rows = pair_rows
        else:
            union_rows = _running(union[1] - union[0])[union_bounds]
            union_rows = union_rows[1:] - union_rows[:-1]
        sections_q, scanned_q = bounds[1:] - bounds[:-1], pair_rows
        if parts > 1:
            sections_q = sections_q.reshape(parts, num).sum(axis=0)
            scanned_q = scanned_q.reshape(parts, num).sum(axis=0)
        rows = expand_ranges(starts, ends)
        held = np.flatnonzero(union_rows).tolist()
        # Where query q's rows start among part p's, for each part held.
        cuts = [at[p * num:(p + 1) * num + 1] - at[p * num] for p in held]
    held_segments = len(held)

    # Memtable rows by block membership, each memtable bounded to the
    # rows the pinned view captured.
    mem_tables = view.memtables
    mem_rows = []
    for memtable, limit in mem_tables:
        found, sizes = memtable.scan_batch(selections, limit=limit)
        mem_rows.append(found)
        if found.size:
            held.append(parts + len(mem_rows) - 1)
            cuts.append(np.append(0, np.cumsum(sizes)))
    memtable_rows = sum(limit for _, limit in mem_tables)
    mem_bases = list(itertools.accumulate(
        [n for _, n in mem_tables],
        initial=sum(seg.meta.count for seg in segments),
    ))

    def source(p):
        """Part *p*'s columns, its rows as rows of the view (query after
        query), and where they sit in those columns."""
        if p >= parts:
            j = p - parts
            found = mem_rows[j]
            return mem_tables[j][0].columns(), found + mem_bases[j], found
        a, b = at[p * num], at[(p + 1) * num]
        part_rows, seg = rows[a:b], segments[p]
        if seg.index is not None:
            base = offsets[p]
            pos = part_rows - base if base else part_rows
            return _columns(seg.index.store), part_rows, pos
        # Cold: fetch exactly the part's union, then carve it up.
        a, b = union_bounds[p], union_bounds[p + 1]
        part_union = (union[0][a:b], union[1][a:b])
        columns = storage.fetch_ranges(
            seg, np.column_stack(part_union) - offsets[p]
        )
        a, b = bounds[p * num], bounds[(p + 1) * num]
        return columns, part_rows, _union_positions(
            starts[a:b], ends[a:b], part_union
        )

    if len(held) == 1:
        # One part holds every row: each query takes straight from it.
        columns, found, pos = source(held[0])
        at_q = cuts[0].tolist()
        results_q = [
            (found[a:b].copy(), *(c.take(pos[a:b], axis=0) for c in columns))
            for a, b in zip(at_q[:-1], at_q[1:])
        ]
    else:
        results_q = _buffered(map(source, held), cuts, num, index.ndims)
    t2 = time.perf_counter()

    filter_share = filter_seconds / num
    scan_share = (t2 - t1) / num
    if index._query_stats is QueryStats:
        extra = itertools.repeat(())
    else:
        extra = zip(
            itertools.repeat(parts),
            skipped.tolist(),
            pruned.tolist(),
            itertools.repeat(memtable_rows),
        )
    blocks_q = selections.counts.tolist()
    sections_q = sections_q.tolist()
    nodes_q, probes_q = selections.nodes.tolist(), selections.probes.tolist()
    scanned = scanned_q.tolist()
    results = []
    for q, ((found, ids, tcs, fps), more) in enumerate(zip(results_q, extra)):
        # Positional: (blocks_selected, sections_scanned, rows_scanned,
        # results, nodes_visited, descents, filter_seconds,
        # refine_seconds[, segments_scanned, segments_skipped,
        # blocks_skipped, memtable_rows_scanned]).
        stats = index._query_stats(
            blocks_q[q], sections_q[q], scanned[q] + memtable_rows,
            found.size, nodes_q[q], probes_q[q], filter_share, scan_share,
            *more,
        )
        results.append(SearchResult(found, ids, tcs, fps, stats=stats))

    batch = BatchQueryStats(queries=num, batches=1)
    batch.blocks_selected = int(selections.prefixes.size)
    batch.sections_scanned = int(union[0].size)
    batch.logical_rows = sum(int(c[-1]) for c in cuts)
    batch.unique_rows = int(union_rows.sum()) + sum(
        int(c[-1]) for c in cuts[held_segments:]
    )
    batch.segments_skipped = int(skipped.sum())
    batch.blocks_skipped = int(pruned.sum())
    batch.results = sum(len(r) for r in results)
    batch.filter_seconds = filter_seconds
    batch.scan_seconds = t2 - t1
    if storage is not None:
        cold = [
            int(union_rows[p]) for p in range(parts)
            if segments[p].index is None and union_rows[p]
        ]
        batch.cold_segments = len(cold)
        batch.cold_rows = sum(cold)
        batch.cold_bytes = storage.stats.fetch_bytes - cold_bytes0
        batch.cold_fetch_seconds = storage.stats.fetch_seconds - cold_secs0
    return results, batch


def _buffered(sources, cuts: list, num: int, ndims: int) -> list[tuple]:
    """Each query's ``(rows, ids, timecodes, fingerprints)`` through one
    batch buffer per column.

    *sources* are ``(columns, rows, positions)``, part after part; query
    ``q`` owns rows ``cuts[k][q]:cuts[k][q + 1]`` of part ``k``.  Each
    part is gathered into the buffer with one ``take`` per column; then
    each query takes its rows from the buffer, part after part, with one
    ``take`` per column.  With one query the buffer already is in that
    order, and is the result.
    """
    starts = np.array(cuts, dtype=np.int64).reshape(len(cuts), num + 1)
    part_at = np.append(0, np.cumsum(starts[:, -1]))
    total = int(part_at[-1])
    out = (
        np.empty(total, dtype=np.int64),
        np.empty(total, dtype=np.uint32),
        np.empty(total, dtype=np.float64),
        np.empty((total, ndims), dtype=np.uint8),
    )
    for at, (columns, rows, pos) in zip(part_at.tolist(), sources):
        out[0][at:at + rows.size] = rows
        _take_into(out[1:], at, columns, pos)
    if num == 1:
        return [out]
    # Block (k, q) starts at part_at[k] + cuts[k][q]: expand them in
    # query-major order.
    starts += part_at[:-1, None]
    order = expand_ranges(starts[:, :-1].T.ravel(), starts[:, 1:].T.ravel())
    query_at = np.append(0, np.cumsum((starts[:, 1:] - starts[:, :-1]).sum(axis=0)))
    query_at = query_at.tolist()
    return [
        tuple(buf.take(order[a:b], axis=0) for buf in out)
        for a, b in zip(query_at[:-1], query_at[1:])
    ]


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class BatchQueryExecutor:
    """Chunk a query workload into batches and run the batched engine.

    One executor serves one ``(index, alpha, model, depth)`` workload.  Both
    :class:`~repro.index.s3.S3Index` and
    :class:`~repro.index.segmented.lsm.SegmentedS3Index` run the one
    :func:`query_batch`.

    *options* carries the tuning (:class:`~repro.index.options.QueryOptions`):
    ``batch_size`` is the queries per engine call — larger batches
    amortise descent overhead and coalesce more aggressively; results
    do not depend on it.  *alpha* and *depth*, when given, override the
    options' values.
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

    # Perf-compat: the frozen perf/workloads/{stat_scan,tiered_scan}.py
    # call these five names and pass QueryOptions(executor="auto") — the
    # one value options.py accepts; nothing else does.  The frozen
    # workloads also call the no-op S3Queries.reset_threshold_cache
    # (index/s3.py), set QueryOptions.prefetch and
    # StorageConfig.promote_after (both validated, read by nothing),
    # wrap the no-op TierManager.settle, read the always-0 promotions,
    # prefetch_hits and prefetch_misses of
    # storage_info()["manager"]["counters"] (storage/manager.py) and
    # stats.cache.gather, always {"hits": 0, "misses": 0}
    # (serve/cache.py), read the router's stats.cluster.cache, likewise
    # always {"hits": 0, "misses": 0} (cluster/router.py), and pass
    # SegmentedS3Index.create(sync=False), the spelling of
    # durability="async" (index/segmented/lsm.py).  All fifteen are
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

    @property
    def selection_depth(self) -> int:
        """The partition depth this executor selects blocks at."""
        return self.index._resolve_depth(self.depth)

    # ------------------------------------------------------------------
    def query_batch(
        self,
        queries: np.ndarray,
        blocks: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> list[SearchResult]:
        """Run one engine call over *queries* (no chunking); *blocks* as
        in :func:`query_batch`."""
        results, batch = query_batch(
            self.index, queries, self.alpha,
            model=self.model, depth=self.depth,
            prefilter=self.options.prefilter_enabled,
            blocks=blocks,
        )
        self.stats.merge(batch)
        return results

    def query_all(self, queries: np.ndarray) -> list[SearchResult]:
        """Run *queries* through the engine: one selection for them all
        (selections are pure, so it is each chunk's own), then one scan
        per ``batch_size`` chunk, which carries its share of the
        selection time."""
        queries = _check_batch(queries, self.index.ndims)
        num = queries.shape[0]
        if num == 0:
            return []
        t0 = time.perf_counter()
        selections = select_blocks(
            self.index, queries, self.alpha,
            self.index._resolve_model(self.model),
            self.index._resolve_depth(self.depth),
        )
        share = (time.perf_counter() - t0) / num
        results: list[SearchResult] = []
        for start in range(0, num, self.batch_size):
            rows = np.arange(start, min(start + self.batch_size, num))
            found, batch = scan(
                self.index, selections.take(rows), share * rows.size,
                prefilter=self.options.prefilter_enabled,
            )
            self.stats.merge(batch)
            results.extend(found)
        return results

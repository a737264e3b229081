"""The query engine: shared filtering, one-copy scans.

Every S³ query has the paper's two steps (§IV): a filter picks p-blocks,
then one sequential scan reads the selected curve sections.  Statistical,
ε-range and window queries differ only in the filter and in an optional
exact test on the scanned rows, so each index has **one scan** here —
:func:`scan_monolithic` for an :class:`~repro.index.s3.S3Index`,
:func:`scan_segmented` for a segmented one — and every query method of
both runs its selection and then that scan: a solo query is a batch of
one, and a range or window query passes its :class:`Ball` or
:class:`Window` test along.

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

A batch's per-query results equal solo queries started from the same
warm-start cache state by construction; ``docs/batch-query.md`` gives
the exact cache semantics of a batch.  The per-query path this replaced
is kept in ``tests/index/reference_query.py`` as the oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ..distortion.model import IndependentDistortionModel
from ..errors import ConfigurationError
from .filtering import BlockSelection, statistical_blocks_batch_cached
from .kernels import range_refine, window_refine
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
# Exact tests on the scanned rows
# ----------------------------------------------------------------------
class Ball(NamedTuple):
    """An ε-range query's exact test: rows within *epsilon* of *centre*."""

    centre: np.ndarray
    epsilon: float

    def test(self, fingerprints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keep-mask of *fingerprints* and the kept rows' distances."""
        return range_refine(fingerprints, self.centre, self.epsilon)


class Window(NamedTuple):
    """A window query's exact test: rows inside ``[lo, hi)``."""

    lo: np.ndarray
    hi: np.ndarray

    def test(self, fingerprints: np.ndarray) -> tuple[np.ndarray, None]:
        """Keep-mask of *fingerprints*; a window measures no distances."""
        return window_refine(fingerprints, self.lo, self.hi), None


ExactTest = Union[Ball, Window]


def _tested(result: SearchResult, test: ExactTest) -> SearchResult:
    """*result* cut down to the scanned rows that pass *test*.

    An empty scan is returned as it is, distances unset.
    """
    t0 = time.perf_counter()
    if len(result):
        keep, distances = test.test(result.fingerprints)
        result = SearchResult(
            rows=result.rows[keep],
            ids=result.ids[keep],
            timecodes=result.timecodes[keep],
            fingerprints=result.fingerprints[keep],
            distances=distances,
            stats=result.stats,
        )
    result.stats.results = len(result)
    result.stats.refine_seconds += time.perf_counter() - t0
    return result


def _ball_tested(
    part: tuple, ball: Ball, seg_rows: list[int], mem_distances: list
) -> tuple[tuple, np.ndarray, list[int]]:
    """A range query's merged columns *part*, cut down to its ball.

    The segment rows, the first ``sum(seg_rows)`` of *part*, pass the
    exact test here.  The memtable rows after them passed it in
    :meth:`~repro.index.segmented.memtable.MemTable.range_rows`, and
    keep the distances measured there (*mem_distances*, one array per
    memtable).  Returns the kept columns, their distances and the rows
    each segment kept.
    """
    at = np.cumsum([0] + seg_rows)
    keep, distances = ball.test(part[3][:at[-1]])
    kept = np.diff(np.append(0, np.cumsum(keep))[at]).tolist()
    keep = np.append(keep, np.ones(part[0].size - at[-1], dtype=bool))
    return (
        tuple(column[keep] for column in part),
        np.concatenate([distances, *mem_distances]),
        kept,
    )


# ----------------------------------------------------------------------
# The engines: a selection stage, then one scan per index kind
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

    One shared threshold search selects every query's blocks, then
    :func:`scan_monolithic` reads them.  ``index.statistical_query`` is
    this for a batch of one.  Per-query timing fields carry an equal
    share of the batch's filter/scan time.
    """
    queries = _check_batch(queries, index.ndims)
    resolved = index._resolve_model(model)
    depth = index._resolve_depth(depth)
    if queries.shape[0] == 0:
        return [], BatchQueryStats(batches=1)
    t0 = time.perf_counter()
    selections = statistical_blocks_batch_cached(
        queries, resolved, index.curve, depth, alpha,
        cache=index._threshold_cache,
    )
    return scan_monolithic(
        index, selections, time.perf_counter() - t0, gather_cache=gather_cache
    )


def scan_monolithic(
    index: S3Index,
    selections: Sequence[BlockSelection],
    filter_seconds: float = 0.0,
    gather_cache=None,
    tests: Optional[Sequence[ExactTest]] = None,
) -> tuple[list[SearchResult], BatchQueryStats]:
    """Read the rows of *selections* (one or more, of one depth) from a
    monolithic index: the scan stage of every :class:`S3Index` query.

    *filter_seconds* is what selecting them took.  With *tests*, one
    :class:`Ball` or :class:`Window` per selection, each query keeps
    only the scanned rows that pass its test.
    """
    num = len(selections)
    t1 = time.perf_counter()
    sections = index.layout.batch_row_ranges(
        [sel.prefixes for sel in selections], selections[0].depth
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
            filter_seconds=filter_seconds / num,
            refine_seconds=(t2 - t1) / num,
        )
        results.append(SearchResult(
            rows=rows_q, ids=ids, timecodes=tcs, fingerprints=fps,
            stats=stats,
        ))
    logical_rows = sum(len(r) for r in results)
    if tests is not None:
        results = [_tested(r, test) for r, test in zip(results, tests)]

    batch = BatchQueryStats(queries=num, batches=1)
    batch.blocks_selected = sum(len(s) for s in selections)
    batch.sections_scanned = int(union[0].size)
    batch.logical_rows = logical_rows
    batch.unique_rows = _rows(union)
    batch.results = sum(len(r) for r in results)
    batch.filter_seconds = filter_seconds
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
    call, and a ``bincount`` counts what each query kept.  A segment
    the batch keeps no block of skips the row-range lookup.
    """
    sketch = seg.sketch if prefilter else None
    if sketch is not None:
        keep = sketch.occupancy_mask(prefixes, depth)
        prefixes = prefixes[keep]
        counts = np.bincount(owner[keep], minlength=counts.size)
    if prefixes.size == 0:
        none = np.zeros(0, dtype=np.int64)
        return RangeBatch(none, none, np.zeros(counts.size + 1, np.int64)), counts
    return seg.layout.row_ranges(prefixes, counts, depth), counts


def _pair_counts(
    seg_sections: list[RangeBatch], num: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sections and rows of every (segment, query) pair, as
    ``(segments, queries)`` arrays: one running row count over all the
    segments' ranges, read at every query's bounds."""
    bounds = np.array(
        [s.bounds for s in seg_sections], dtype=np.int64
    ).reshape(len(seg_sections), num + 1)
    heads = np.cumsum([0] + [s.starts.size for s in seg_sections])[:-1]
    rows_before = np.cumsum(np.concatenate(
        [np.zeros(1, np.int64)] + [s.ends - s.starts for s in seg_sections]
    ))
    return (
        np.diff(bounds, axis=1),
        np.diff(rows_before[bounds + heads[:, None]], axis=1),
    )


def _ball_sections(
    sketch, sections: RangeBatch, balls: Sequence[Ball]
) -> tuple[RangeBatch, np.ndarray]:
    """*sections* without the ranges the sketch's bounds rule out of
    each query's ball, and which queries that left with no range."""
    keep = sketch.ball_mask(sections, balls)
    bounds = np.append(0, np.cumsum(keep))[sections.bounds]
    emptied = (np.diff(sections.bounds) > 0) & (np.diff(bounds) == 0)
    return RangeBatch(sections.starts[keep], sections.ends[keep], bounds), emptied


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

    One shared threshold search selects every query's blocks, then
    :func:`scan_segmented` reads them.  ``index.statistical_query`` is
    this for a batch of one.
    """
    queries = _check_batch(queries, index.ndims)
    resolved = index._resolve_model(model)
    depth = index._resolve_depth(depth)
    if queries.shape[0] == 0:
        return [], BatchQueryStats(batches=1)
    t0 = time.perf_counter()
    selections = statistical_blocks_batch_cached(
        queries, resolved, index.curve, depth, alpha,
        cache=index._threshold_cache,
    )
    return scan_segmented(
        index, selections, time.perf_counter() - t0, prefilter=prefilter,
        gather_cache=gather_cache, prefetch=prefetch,
    )


def scan_segmented(
    index,
    selections: Sequence[BlockSelection],
    filter_seconds: float = 0.0,
    prefilter: bool = True,
    gather_cache=None,
    prefetch: bool = True,
    balls: Optional[Sequence[Ball]] = None,
) -> tuple[list[SearchResult], BatchQueryStats]:
    """Read the rows of *selections* (one or more, of one depth) from a
    segmented index: the scan stage of every ``SegmentedS3Index`` query.

    Every segment and memtable of one pinned view is read, and each
    query's result lists the segments in manifest order, then the frozen
    and active memtables.  *filter_seconds* is what selecting the blocks
    took.

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

    *balls*, one :class:`Ball` per selection, make the batch ε-range
    queries.  Each segment's sketch then also drops the ranges whose
    every bounds block lies farther than ε from the query
    (:meth:`~repro.index.segmented.sketch.SegmentSketch.ball_mask`), the
    segment rows read pass the exact test, and a memtable is tested
    row by row (``MemTable.range_rows``) instead of by block membership.

    For **cold segments** (tiered storage) block selection runs on their
    resident ``.keys`` sidecar, and exactly the coalesced union's byte
    ranges are fetched from the blob backend, in one backend call per
    segment.  With *prefetch* (the default, when the index has a tier
    manager), those fetches are submitted **before** the resident
    gathers start and collected after — backend latency overlaps local
    gathering.  Either way the fetched columns are the same bytes a
    resident gather would have produced, so results stay bit-identical.
    A segment is touched in the tier manager iff the batch read rows
    from it.
    """
    from .segmented.lsm import SegmentedQueryStats

    num = len(selections)
    depth = selections[0].depth
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
    emptied = np.zeros((len(segments), num), dtype=bool)
    for i, seg in enumerate(segments):
        sections, kept = _segment_sections(
            seg, prefixes, owner, counts, depth, prefilter
        )
        if balls is not None and prefilter and seg.sketch is not None \
                and sections.starts.size:
            sections, emptied[i] = _ball_sections(seg.sketch, sections, balls)
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
    # one, each bounded to the rows the pinned view captured: block
    # membership, or a ball's exact test on every row.
    mem_tables = [(f.memtable, f.rows) for f in view.frozen]
    mem_tables.append((view.memtable, view.memtable_rows))
    if balls is None:
        mem_rows = [
            [memtable.scan_selection(sel, limit=limit) for sel in selections]
            for memtable, limit in mem_tables
        ]
    else:
        mem_found = [
            [memtable.range_rows(*ball, limit=limit) for ball in balls]
            for memtable, limit in mem_tables
        ]
        mem_rows = [[rows for rows, _ in found] for found in mem_found]
    memtable_rows = sum(limit for _, limit in mem_tables)

    # The batch buffer: part after part, each part's rows query after
    # query.  block_rows[p, q] is what query q takes from part p.
    seg_sections_q, seg_block_rows = _pair_counts(seg_sections, num)
    block_rows = np.vstack([
        seg_block_rows,
        np.array([[r.size for r in rows_q] for rows_q in mem_rows],
                 dtype=np.int64).reshape(len(mem_tables), num),
    ])
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

    kept = np.array(seg_kept, dtype=np.int64).reshape(len(segments), num)
    skipped = ((counts > 0) & (kept == 0)) | emptied
    pruned = counts - kept
    per_query = zip(
        seg_sections_q.T.tolist(), seg_block_rows.T.tolist(),
        seg_sections_q.sum(axis=0).tolist(), seg_block_rows.sum(axis=0).tolist(),
        skipped.sum(axis=0).tolist(), pruned.sum(axis=0).tolist(),
    )
    filter_share = filter_seconds / num
    scan_share = (t2 - t1) / num
    results = []
    for q, (sel, part, (
        sections_s, rows_s, sections, scanned, seg_skipped, blocks_skipped,
    )) in enumerate(zip(selections, parts, per_query)):
        distances, returned_s = None, rows_s
        if balls is not None:
            part, distances, returned_s = _ball_tested(
                part, balls[q], rows_s, [found[q][1] for found in mem_found]
            )
        rows, ids, tcs, fps = part
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
                QueryStats(blocks, s, r, k)
                for s, r, k in zip(sections_s, rows_s, returned_s)
            ],
        )
        results.append(SearchResult(
            rows=rows, ids=ids, timecodes=tcs, fingerprints=fps,
            distances=distances, stats=stats,
        ))

    batch = BatchQueryStats(queries=num, batches=1)
    batch.blocks_selected = int(counts.sum())
    batch.sections_scanned = sum(int(u[0].size) for u in seg_unions)
    batch.logical_rows = total
    batch.unique_rows = sum(union_rows) + sum(part_rows[len(segments):])
    batch.segments_skipped = int(skipped.sum())
    batch.blocks_skipped = int(pruned.sum())
    batch.results = sum(len(r) for r in results)
    batch.filter_seconds = filter_seconds
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
    any index that is not an :class:`~repro.index.s3.S3Index` takes the
    segmented engine.

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
        self._segmented = not isinstance(index, S3Index)

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

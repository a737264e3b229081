"""The query engine: shared filtering, one-copy scans.

Every S³ query has the paper's two steps (§IV): a filter picks p-blocks,
then one sequential scan reads the selected curve sections.  Statistical,
ε-range and window queries differ only in the filter and in an optional
exact test on the scanned rows, so there is **one scan** here,
:func:`scan`, and every query method of both index kinds
(:class:`~repro.index.s3.S3Queries`) runs its selection and then that
scan: a solo query is a batch of one, and a range or window query
passes its :class:`Ball` or :class:`Window` test along.  The scan reads
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
   (:func:`~repro.index.filtering.statistical_blocks_batch_cached`): all
   still-active searches share one vectorised pass per tree level, and
   the warm-start ``t_max`` cache is read/written once per batch.
2. **Array-wide ranges, one copy per row** — the curve sections of the
   whole batch come from one ``searchsorted`` pair and one vectorised
   merge (:meth:`~repro.index.table.HilbertLayout.row_ranges`).
   The store is in curve order, so a query's answer is a concatenation
   of contiguous store slices, gathered straight into arrays its
   :class:`~repro.index.s3.SearchResult` owns: each returned row is
   copied exactly once, and a resident scan moves the batch's logical
   rows, however much the queries overlap.  The batch's disjoint union
   is materialised only where something reuses it — the gather cache
   keeps it, and a cold segment fetches exactly it from the blob
   backend in one call, so backend I/O is O(union) rather than O(sum
   over queries).
3. **Part-major gather, query-major results** — on a segmented index
   a query's answer spans every segment and memtable.  Each segment's
   sketch prune, ranges and union are computed once for the whole batch.
   When one part holds every row of the batch (always, for an
   ``S3Index``), each query takes its rows straight from it; otherwise
   each part (segment or memtable) is gathered with one ``take`` per
   column into one batch buffer, and each query takes its rows out of
   that buffer with one ``take`` per column.  The numpy calls are per
   part and per query, never per (query, part) pair.

Every scan runs in the calling thread (``docs/batch-query.md``, "Why
there is one scan path").

A batch's per-query results equal solo queries started from the same
warm-start cache state by construction; ``docs/batch-query.md`` gives
the exact cache semantics of a batch.  The per-query path this replaced
is kept in ``tests/index/reference_query.py`` as the oracle.
"""

from __future__ import annotations

import itertools
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
from .s3 import QueryStats, SearchResult
from .store import FingerprintStore
from .table import RangeBatch, expand_ranges, merge_ranges

RowRange = tuple[int, int]


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
    exactly one** union range — what :func:`_positions` maps ranges by.
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


def _tested(
    part: tuple, test: ExactTest, tested: int, mem_distances: list
) -> tuple[tuple, Optional[np.ndarray]]:
    """A query's columns *part* cut down to the rows that pass *test*,
    and the kept rows' distances (``None`` for a window).

    The test runs on the first *tested* rows.  Rows after them are a
    range query's memtable rows: they passed its ball in
    :meth:`~repro.index.segmented.memtable.MemTable.range_rows` and keep
    the distances measured there (*mem_distances*, one array per
    memtable).
    """
    keep, distances = test.test(part[3][:tested])
    if tested < part[0].size:
        keep = np.append(keep, np.ones(part[0].size - tested, dtype=bool))
        distances = np.concatenate([distances, *mem_distances])
    return tuple(column[keep] for column in part), distances


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


def _ball_sections(
    sketch, sections: RangeBatch, balls: Sequence[Ball]
) -> tuple[RangeBatch, np.ndarray]:
    """*sections* without the ranges the sketch's bounds rule out of
    each query's ball, and which queries that left with no range."""
    keep = sketch.ball_mask(sections, balls)
    bounds = np.append(0, np.cumsum(keep))[sections.bounds]
    emptied = (np.diff(sections.bounds) > 0) & (np.diff(bounds) == 0)
    return RangeBatch(sections.starts[keep], sections.ends[keep], bounds), emptied


def _sketch_sections(
    seg, prefixes: np.ndarray, owner: np.ndarray, counts: np.ndarray,
    depth: int, balls: Optional[Sequence[Ball]],
) -> tuple[RangeBatch, np.ndarray, np.ndarray]:
    """One segment's ranges for the whole batch after its sketch's
    prunes, the blocks each query lost to them, and which queries they
    left with no range in the segment.

    *prefixes* are the batch's selections concatenated, query
    ``owner[j]`` owning prefix ``j`` and ``counts[q]`` prefixes in all.
    The occupancy test runs on all of them in one call, and a
    ``bincount`` counts what each query kept; a segment the batch keeps
    no block of skips the row-range lookup.  With *balls*, the bounds
    prune then drops the ranges each query's ball cannot reach.
    """
    keep = seg.sketch.occupancy_mask(prefixes, depth)
    kept = np.bincount(owner[keep], minlength=counts.size)
    skipped = (counts > 0) & (kept == 0)
    if not keep.any():
        none = np.zeros(0, dtype=np.int64)
        sections = RangeBatch(none, none, np.zeros(counts.size + 1, np.int64))
        return sections, counts - kept, skipped
    sections = seg.layout.row_ranges(prefixes[keep], kept, depth)
    if balls is not None and sections.starts.size:
        sections, emptied = _ball_sections(seg.sketch, sections, balls)
        skipped |= emptied
    return sections, counts - kept, skipped


def _row_cuts(sections: RangeBatch) -> np.ndarray:
    """Where each query's rows start among the rows of *sections*, and
    their total: one running row count, read at the query bounds."""
    return np.append(0, np.cumsum(sections.ends - sections.starts))[
        sections.bounds
    ]


def _diffs(values: list) -> list:
    """Each step of *values*: per-query counts from bounds or cuts."""
    return [b - a for a, b in zip(values, values[1:])]


def _add(a: list, b: list) -> list:
    """*a* and *b*, element by element: per-query sums over parts."""
    return [x + y for x, y in zip(a, b)]


def query_batch(
    index,
    queries: np.ndarray,
    alpha: float,
    model: Optional[IndependentDistortionModel] = None,
    depth: Optional[int] = None,
    prefilter: bool = True,
    gather_cache=None,
    prefetch: bool = True,
) -> tuple[list[SearchResult], BatchQueryStats]:
    """Answer a batch of statistical queries against either index kind.

    One shared threshold search selects every query's blocks, then
    :func:`scan` reads them.  ``index.statistical_query`` is this for a
    batch of one.  Per-query timing fields carry an equal share of the
    batch's filter/scan time.
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
    return scan(
        index, selections, time.perf_counter() - t0, prefilter=prefilter,
        gather_cache=gather_cache, prefetch=prefetch,
    )


def scan(
    index,
    selections: Sequence[BlockSelection],
    filter_seconds: float = 0.0,
    prefilter: bool = True,
    gather_cache=None,
    prefetch: bool = True,
    tests: Optional[Sequence[ExactTest]] = None,
) -> tuple[list[SearchResult], BatchQueryStats]:
    """Read the rows of *selections* (one or more, of one depth): the
    scan stage of every query of both index kinds.

    Every part of one pinned read view is read — each segment, then the
    frozen and active memtables — and each query's result lists its
    rows part after part.  A static :class:`~repro.index.s3.S3Index` is
    a view of one resident part with no sketch and no memtables.
    *filter_seconds* is what selecting the blocks took.  With *tests*,
    one :class:`Ball` or :class:`Window` per selection, each query keeps
    only the scanned rows that pass its test.

    The numpy calls are per part and per query, never per (query, part)
    pair, and the batch picks how rows are copied:

    * **one part holds every row** (always so for an ``S3Index``): each
      query takes its rows straight from that part, one ``take`` per
      column, into arrays its result owns;
    * **one query**: every part is gathered into one buffer per column,
      and the buffer is the result;
    * **otherwise**: the same buffer, part after part and within a part
      query after query, then one ``take`` per column and query out of it.

    With *prefilter* (the default), each segment's sketch drops the
    selected blocks the segment provably holds no rows of **per query**,
    before the ranges enter :func:`coalesce_ranges` — so the unions
    shrink, and a (query, segment) pair whose whole selection is pruned
    gathers nothing.  The prune is admissible: dropped blocks hold no
    rows, so the surviving ranges — and the results — are identical.

    With :class:`Ball` tests the batch is ε-range queries.  Each
    segment's sketch then also drops the ranges whose every bounds block
    lies farther than ε from the query
    (:meth:`~repro.index.segmented.sketch.SegmentSketch.ball_mask`), the
    segment rows read pass the exact test, and a memtable is tested row
    by row (``MemTable.range_rows``) instead of by block membership.  A
    :class:`Window` test runs on every row read.

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
    num = len(selections)
    depth = selections[0].depth
    t1 = time.perf_counter()
    counts = [len(sel) for sel in selections]
    prefixes = np.concatenate(
        [np.asarray(sel.prefixes, dtype=np.uint64) for sel in selections]
    )
    balls = tests if tests is not None and isinstance(tests[0], Ball) else None

    # Pin one snapshot view for the whole batch: the segment set, the
    # frozen memtables and the active-memtable length all come from the
    # same instant, so a background seal or compaction switching the
    # live view mid-batch can neither drop nor double-count rows.
    view = index._read_view()
    segments = view.segments
    storage = index.storage
    # Block selection needs no store bytes (resident keys sidecars for
    # cold segments), so every segment's pruned ranges — and their
    # coalesced unions — are known before a single row is read.
    seg_sections = []
    owner = skipped = pruned = None
    for seg in segments:
        if seg.sketch is None or not prefilter:
            seg_sections.append(seg.layout.row_ranges(prefixes, counts, depth))
            continue
        if owner is None:
            selected = np.array(counts, dtype=np.int64)
            owner = np.repeat(np.arange(num), selected)
            skipped = np.zeros(num, dtype=np.int64)
            pruned = np.zeros(num, dtype=np.int64)
        sections, lost, emptied = _sketch_sections(
            seg, prefixes, owner, selected, depth, balls
        )
        seg_sections.append(sections)
        pruned += lost
        skipped += emptied
    seg_unions = [_union(s) for s in seg_sections]
    union_rows = [_rows(union) for union in seg_unions]
    cold, handles = [], {}
    if storage is not None:
        cold = [
            i for i, seg in enumerate(segments)
            if seg.index is None and union_rows[i]
        ]
        cold_bytes0 = storage.stats.fetch_bytes
        cold_secs0 = storage.stats.fetch_seconds
        # Cold fetches start *now*, before the resident gathers, so
        # backend latency overlaps them.
        if prefetch:
            handles = {
                i: storage.prefetch(segments[i], np.column_stack(seg_unions[i]))
                for i in cold
            }

    # Memtable rows, each memtable bounded to the rows the pinned view
    # captured: block membership, or a ball's exact test on every row.
    mem_tables = view.memtables
    mem_rows, mem_found, memtable_rows = [], [], 0
    if mem_tables:
        memtable_rows = sum(limit for _, limit in mem_tables)
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

    # The parts the batch reads rows from, segments then memtables, and
    # cuts[k][q]: where query q's rows start among part held[k]'s rows
    # (cuts[k][-1]: all of them).  Per query, the sections and rows its
    # segments scanned.
    held = [i for i, rows in enumerate(union_rows) if rows]
    if num == 1:
        # One query's sections are their own union.
        cuts = [[0, union_rows[i]] for i in held]
        sections_q = [sum(seg_sections[i].starts.size for i in held)]
        scanned_q = [sum(union_rows)]
    else:
        cuts = [_row_cuts(seg_sections[i]).tolist() for i in held]
        sections_q = scanned_q = [0] * num
        for i, at in zip(held, cuts):
            sections_q = _add(sections_q, _diffs(seg_sections[i].bounds.tolist()))
            scanned_q = _add(scanned_q, _diffs(at))
    held_segments = len(held)
    for j, rows_q in enumerate(mem_rows):
        sizes = [r.size for r in rows_q]
        if any(sizes):
            held.append(len(segments) + j)
            cuts.append(list(itertools.accumulate(sizes, initial=0)))
    sizes = [seg.meta.count for seg in segments] + [n for _, n in mem_tables]
    bases = [sum(sizes[:p]) for p in held]

    # With a gather cache, every resident segment's union goes through
    # it, rows or not, before any cold fetch is collected.
    cached = {}
    if gather_cache is not None:
        for i, seg in enumerate(segments):
            if seg.index is not None:
                cached[i] = _union_columns(
                    _columns(seg.index.store), seg_unions[i], seg.meta.name,
                    gather_cache,
                )

    def source(p):
        """Part *p*'s columns, its rows (query after query) and where
        they sit in those columns."""
        if p >= len(segments):
            rows = np.concatenate(mem_rows[p - len(segments)])
            return mem_tables[p - len(segments)][0].columns(), rows, rows
        seg, union = segments[p], seg_unions[p]
        if seg.index is None:
            # Cold: collect the fetch (or fetch now when the prefetcher
            # is off); the fetched union is carved up like a cached one.
            columns = (
                storage.collect(handles[p]) if p in handles
                else storage.fetch_ranges(seg, np.column_stack(union))
            )
        elif p in cached:
            columns = cached[p]
        else:
            columns, union = _columns(seg.index.store), None
        return (columns, *_positions(seg_sections[p], union))

    if len(held) == 1:
        # One part holds every row: each query takes straight from it.
        columns, rows, pos = source(held[0])
        base, at = bases[0], cuts[0]
        parts = [
            (rows[a:b] + base if base else rows[a:b].copy(),
             *(c.take(pos[a:b], axis=0) for c in columns))
            for a, b in zip(at[:-1], at[1:])
        ]
    else:
        # Lazily, cold parts last: their fetches overlap the resident
        # gathers.
        parts = _buffered(
            ((k, *source(p)) for k, p in sorted(
                enumerate(held), key=lambda kp: kp[1] in handles
            )),
            cuts, bases, num, index.ndims,
        )
    if storage is not None:
        for i, seg in enumerate(segments):
            if union_rows[i]:
                storage.touch(seg)
    distances = [None] * num
    for q, test in enumerate(tests or ()):
        # A range query's memtable rows passed its ball in range_rows.
        tested = len(parts[q][0]) if balls is None else scanned_q[q]
        parts[q], distances[q] = _tested(
            parts[q], test, tested, [found[q][1] for found in mem_found]
        )
    t2 = time.perf_counter()

    filter_share = filter_seconds / num
    scan_share = (t2 - t1) / num
    if index._query_stats is QueryStats:
        extra = itertools.repeat(())
    else:
        zero = [0] * num
        extra = zip(
            itertools.repeat(len(segments)),
            zero if skipped is None else skipped.tolist(),
            zero if pruned is None else pruned.tolist(),
            itertools.repeat(memtable_rows),
        )
    results = []
    for sel, (rows, ids, tcs, fps), dist, sections, scanned, more in zip(
        selections, parts, distances, sections_q, scanned_q, extra
    ):
        # Positional: (blocks_selected, sections_scanned, rows_scanned,
        # results, nodes_visited, descents, filter_seconds,
        # refine_seconds[, segments_scanned, segments_skipped,
        # blocks_skipped, memtable_rows_scanned]).
        stats = index._query_stats(
            len(sel), sections, scanned + memtable_rows, rows.size,
            sel.nodes_visited, sel.descents, filter_share, scan_share, *more,
        )
        results.append(SearchResult(rows, ids, tcs, fps, dist, stats))

    batch = BatchQueryStats(queries=num, batches=1)
    batch.blocks_selected = sum(counts)
    batch.sections_scanned = sum(int(u[0].size) for u in seg_unions)
    batch.logical_rows = sum(at[-1] for at in cuts)
    batch.unique_rows = sum(union_rows) + sum(
        at[-1] for at in cuts[held_segments:]
    )
    if skipped is not None:
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


def _buffered(
    sources, cuts: list, bases: list, num: int, ndims: int
) -> list[tuple]:
    """Each query's ``(rows, ids, timecodes, fingerprints)`` through one
    batch buffer per column.

    *sources* are ``(k, columns, rows, positions)``: part ``k`` of the
    buffer, in any order, whose query ``q`` owns rows
    ``cuts[k][q]:cuts[k][q + 1]``.  Each part is gathered into the buffer
    with one ``take`` per column, its row numbers lifted by
    ``bases[k]``; then each query takes its rows from the buffer, part
    after part, with one ``take`` per column.  With one query the buffer
    already is in that order, and is the result.
    """
    part_at = list(itertools.accumulate([at[-1] for at in cuts], initial=0))
    total = part_at[-1]
    out = (
        np.empty(total, dtype=np.int64),
        np.empty(total, dtype=np.uint32),
        np.empty(total, dtype=np.float64),
        np.empty((total, ndims), dtype=np.uint8),
    )
    for k, columns, rows, pos in sources:
        at = part_at[k]
        np.add(rows, bases[k], out=out[0][at:at + rows.size])
        _take_into(out[1:], at, columns, pos)
    if num == 1:
        return [out]
    # Block (k, q) starts at part_at[k] + cuts[k][q]: expand them in
    # query-major order.
    starts = np.array(cuts, dtype=np.int64).reshape(len(cuts), num + 1)
    starts += np.array(part_at[:-1], dtype=np.int64).reshape(-1, 1)
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

    One executor serves one ``(index, alpha, model, depth)`` workload —
    the combination the warm-start threshold cache is keyed on.  Both
    :class:`~repro.index.s3.S3Index` and
    :class:`~repro.index.segmented.lsm.SegmentedS3Index` run the one
    :func:`query_batch`.

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
        results, batch = query_batch(
            self.index, queries, self.alpha,
            model=self.model, depth=self.depth,
            prefilter=self.options.prefilter_enabled,
            prefetch=self.options.prefetch_enabled,
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

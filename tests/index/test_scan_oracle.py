"""The one-copy scan against the two-copy scan it replaced
(``reference_scan``), and the ownership rules of what it returns.

* The engines: monolithic, segmented (sketch prefilter on and off,
  sealed segments plus frozen and active memtable rows) and tiered
  (mixed cold and resident segments, blobs in memory and in files) —
  identical columns in value, dtype and shape, identical per-query and
  per-batch counters.  Both index kinds run the one
  ``batch.query_batch``.  Batches of one and two queries, queries
  pruned in some segments and scanned in others, and segments no query
  of the batch selects a row in are drawn for sure.
* The scan over one resident part, on generated range lists: empty
  queries, a batch of one, touching, nested and duplicated ranges
  across queries.
* Ownership: no returned array shares memory with a store column or
  another result.
* A resident segment's union is coalesced once per batch.

``PROPERTY_EXAMPLES`` raises the example count (CI's ``property-long`` job).
"""

import dataclasses
import itertools
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel
from repro.hilbert import HilbertCurve
from repro.index import batch
from repro.index.filtering import BlockSelection, SelectionBatch
from repro.index.s3 import QueryStats, S3Index
from repro.index.segmented import ReadView, Segment, SegmentedS3Index, SegmentMeta
from repro.index.store import FingerprintStore
from repro.index.table import HilbertLayout, RangeBatch, expand_ranges
from repro.storage import FakeBlobBackend, FileBlobBackend, StorageConfig

from . import reference_scan

EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "30"))

NDIMS = 8
MODEL = NormalDistortionModel(NDIMS, 12.0)
COLUMNS = ("rows", "ids", "timecodes", "fingerprints")


def records(n, seed):
    """Clustered records, grouped by cluster so segments differ."""
    rng = np.random.default_rng(seed)
    centers = rng.integers(90, 200, size=(6, NDIMS))
    assign = np.sort(rng.integers(0, 6, size=n))
    fps = np.clip(
        centers[assign] + rng.normal(0, 8, (n, NDIMS)), 0, 255
    ).astype(np.uint8)
    return fps, rng.integers(0, 50, n).astype(np.uint32), rng.uniform(0, 500, n)


FPS, IDS, TCS = records(2400, seed=5)


@pytest.fixture(scope="module")
def indexes(tmp_path_factory):
    """A monolithic, a segmented and two tiered indexes (blobs in memory,
    blobs in files) over the same rows.  The segmented ones end in a
    frozen and an active memtable."""
    mono = S3Index(FingerprintStore(FPS, IDS, TCS), model=MODEL)
    root = tmp_path_factory.mktemp("scan")
    kwargs = dict(
        ndims=NDIMS, model=MODEL, flush_rows=10**9, auto_compact=False,
        durability="async",
    )
    seg = SegmentedS3Index.create(root / "seg", **kwargs)
    tiered = {
        name: SegmentedS3Index.create(
            root / name, **kwargs,
            storage=StorageConfig(**storage),
        )
        for name, storage in (
            ("tiered", {"backend": FakeBlobBackend()}),
            ("tiered_file", {"cold_dir": str(root / "blobs")}),
        )
    }
    cuts = [0, 700, 1300, 1900, 2200, 2400]
    for lo, hi in zip(cuts[:3], cuts[1:4]):
        for index in (seg, *tiered.values()):
            index.add(FPS[lo:hi], IDS[lo:hi], TCS[lo:hi])
            index.flush()
    seg.add(FPS[1900:2200], IDS[1900:2200], TCS[1900:2200])
    seg._freeze_active()  # a frozen memtable the next seal would take
    seg.add(FPS[2200:], IDS[2200:], TCS[2200:])
    assert len(seg._view.frozen) == 1
    for index in tiered.values():
        index.add(FPS[1900:2200], IDS[1900:2200], TCS[1900:2200])
        index.flush()
        index.add(FPS[2200:2300], IDS[2200:2300], TCS[2200:2300])
        index._freeze_active()
        index.add(FPS[2300:], IDS[2300:], TCS[2300:])
        index.storage.demote(index._segments[0])
        index.storage.demote(index._segments[2])
        assert [s.index is None for s in index._segments] == [
            True, False, True, False
        ]
        assert len(index._view.frozen) == 1
    assert isinstance(tiered["tiered_file"].storage.backend, FileBlobBackend)
    yield {"mono": mono, "seg": seg, **tiered}
    seg.close()
    for index in tiered.values():
        index.close()


def counts(stats):
    """Every non-timing field of a stats dataclass."""
    return {
        f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
        if not f.name.endswith("_seconds")
    }


def assert_same(got, want):
    (got_results, got_batch), (want_results, want_batch) = got, want
    assert len(got_results) == len(want_results)
    for g, w in zip(got_results, want_results):
        for name in COLUMNS:
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert np.array_equal(a, b), name
        assert counts(g.stats) == counts(w.stats)
    assert counts(got_batch) == counts(want_batch)


@st.composite
def engine_cases(draw):
    kind = draw(st.sampled_from(["mono", "seg", "tiered", "tiered_file"]))
    n = draw(st.sampled_from([1, 2]) | st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    queries = FPS[rng.integers(0, len(FPS), n)] + rng.normal(
        0, draw(st.sampled_from([2.0, 8.0])), (n, NDIMS)
    )
    if n > 1 and draw(st.booleans()):
        queries[-1] = queries[0]  # a duplicated query: duplicated ranges
    if draw(st.booleans()):
        queries[rng.integers(0, n)] = 0.0  # a corner no row is near
    kwargs = {}
    if kind != "mono":
        kwargs["prefilter"] = draw(st.booleans())
    alpha = draw(st.sampled_from([0.5, 0.8, 0.95]))
    depth = draw(st.sampled_from([None, 10, 14]))
    return kind, np.clip(queries, 0, 255), alpha, depth, kwargs


def engines(kind):
    if kind == "mono":
        return batch.query_batch, reference_scan.query_batch_monolithic
    return batch.query_batch, reference_scan.query_batch_segmented


def check_engines(index, kind, queries, alpha, **kwargs):
    """The engine against the reference; returns the engine's results."""
    new, old = engines(kind)
    # The reference fetches a cold union inline, on the calling thread,
    # as the engine does, only with prefetch off.
    old_kwargs = kwargs if kind == "mono" else {**kwargs, "prefetch": False}
    got = new(index, queries, alpha, **kwargs)
    assert_same(got, old(index, queries, alpha, **old_kwargs))
    return got[0]


@given(engine_cases())
@settings(max_examples=EXAMPLES, deadline=None)
def test_engines_match_reference(indexes, case):
    kind, queries, alpha, depth, kwargs = case
    check_engines(indexes[kind], kind, queries, alpha, depth=depth, **kwargs)


@pytest.mark.parametrize("kind", ["seg", "tiered", "tiered_file"])
def test_pruning_mixes_match_reference(indexes, kind):
    """Batches of 1 to 3 queries where a query is pruned in some
    segments and scanned in others, where a segment (resident or cold)
    has no selected row for the whole batch, and where rows come from
    the frozen and the active memtable."""
    index = indexes[kind]
    mixed = empty = memtables = False
    seg_bounds = np.cumsum([0] + [s.meta.count for s in index._segments])
    for rows in ([2300], [10, 30], [1000, 1500], [10, 1000, 2350]):
        results = check_engines(index, kind, FPS[rows].astype(np.float64), 0.8)
        mixed |= any(
            0 < r.stats.segments_skipped < index.num_segments for r in results
        )
        rows = np.concatenate([r.rows for r in results])
        # A segment none of the batch's returned rows lies in.
        in_segment = (rows[:, None] >= seg_bounds[:-1]) & (
            rows[:, None] < seg_bounds[1:]
        )
        empty |= bool((~in_segment.any(axis=0)).any())
        sealed = seg_bounds[-1]
        active = sealed + index._view.frozen[0].rows
        memtables |= bool(
            ((rows >= sealed) & (rows < active)).any() and (rows >= active).any()
        )
    assert mixed and empty and memtables


# ----------------------------------------------------------------------
@st.composite
def range_lists(draw):
    """Per-query curve sections as ``block_row_ranges`` shapes them:
    sorted, disjoint, non-touching, non-empty — with empty queries, and
    ranges that touch, nest in or repeat another query's."""
    lists = []
    for _ in range(draw(st.integers(1, 6))):
        ranges = []
        at = draw(st.integers(0, 40))
        for _ in range(draw(st.integers(0, 5))):
            start = at + draw(st.integers(1, 30))
            at = start + draw(st.integers(1, 30))
            ranges.append((start, at))
        lists.append(ranges)
        if ranges and draw(st.booleans()):
            s, e = ranges[draw(st.integers(0, len(ranges) - 1))]
            derived = draw(st.sampled_from([
                [(s, e)],                              # duplicated
                [(max(s - 5, 0), s), (e + 3, e + 9)],  # touching / gapped
                [(s + (e - s) // 3, e - (e - s) // 3)],  # nested
            ]))
            lists.append([r for r in derived if r[0] < r[1]])
    return lists


SCAN_STORE = FingerprintStore(FPS[:400], IDS[:400], TCS[:400])
SCAN_LAYOUT = HilbertLayout.build(SCAN_STORE.fingerprints)


def as_batch(lists):
    pairs = np.array(
        [r for ranges in lists for r in ranges], dtype=np.int64
    ).reshape(-1, 2)
    bounds = np.cumsum([0] + [len(r) for r in lists])
    return RangeBatch(pairs[:, 0], pairs[:, 1], bounds)


class FixedLayout:
    """A layout whose row ranges are the drawn *sections*, whatever the
    selection: drives the scan over arbitrary range lists."""

    def __init__(self, sections):
        self.sections = sections

    def row_ranges(self, prefixes, counts, depth):
        return self.sections


def scan_view(sections):
    """A one-part index over ``SCAN_STORE`` that reads *sections*."""
    part = Segment(
        meta=SegmentMeta("store", len(SCAN_STORE)),
        index=SimpleNamespace(store=SCAN_STORE, layout=FixedLayout(sections)),
    )
    return SimpleNamespace(
        _read_view=lambda: ReadView((part,)), storage=None,
        _query_stats=QueryStats, ndims=NDIMS,
    )


def no_blocks(num):
    empty = np.zeros(0, dtype=np.uint64)
    return SelectionBatch.of(
        [BlockSelection(empty, empty, 1, 0.0, 0.0, 0) for _ in range(num)]
    )


@given(range_lists())
@settings(max_examples=EXAMPLES, deadline=None)
def test_scan_matches_reference(lists):
    sections = as_batch(lists)
    union = batch.coalesce_ranges(sections.starts, sections.ends)
    want_union = reference_scan.coalesce_ranges(lists)
    assert list(zip(union[0].tolist(), union[1].tolist())) == want_union
    got, stats = batch.scan(scan_view(sections), no_blocks(len(lists)))
    want, sections_scanned, rows = reference_scan._scan_coalesced(
        SCAN_LAYOUT, SCAN_STORE, lists
    )
    assert (stats.sections_scanned, stats.unique_rows) == (
        sections_scanned, rows
    )
    assert (union[0].size, batch._rows(union)) == (sections_scanned, rows)
    for g, w in zip(got, want, strict=True):
        g = tuple(getattr(g, name) for name in COLUMNS)
        for a, b in zip(g, w, strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert np.array_equal(a, b)


# 64-bit keys, with a row at the very end of the curve: the last block's
# end key wraps to 0.
WRAP_LAYOUT = HilbertLayout.build(
    np.vstack([FPS[:300], HilbertCurve(NDIMS, 8).decode(2**64 - 1)]).astype(
        np.uint8
    ),
    key_levels=8,
)


@given(
    st.sampled_from(["base", "wrap"]),
    st.lists(st.lists(st.integers(0, 2**16 - 1), max_size=12), min_size=1,
             max_size=5),
    st.integers(1, 16),
)
@settings(max_examples=EXAMPLES, deadline=None)
def test_row_ranges_match_reference(which, raw, depth):
    layout = SCAN_LAYOUT
    if which == "wrap":
        layout, depth = WRAP_LAYOUT, 64 - depth % 4
    top = np.uint64((1 << depth) - 1) if depth < 64 else np.uint64(2**64 - 1)
    lists = [
        np.unique(np.minimum(np.array(r, dtype=np.uint64), top)) for r in raw
    ]
    if which == "wrap":
        lists[0] = np.unique(np.append(lists[0], top))
        lists.append(np.unique(layout.keys >> np.uint64(64 - depth))[-4:])
    starts, ends, bounds = layout.row_ranges(
        np.concatenate(lists), [p.size for p in lists], depth
    )
    for i, prefixes in enumerate(lists):
        want = reference_scan.block_row_ranges(layout, prefixes, depth)
        a, b = bounds[i], bounds[i + 1]
        assert list(zip(starts[a:b].tolist(), ends[a:b].tolist())) == want
        assert layout.block_row_ranges(prefixes, depth) == want
        rows = expand_ranges(starts[a:b], ends[a:b])
        ref = reference_scan.gather_rows(layout, want)
        assert rows.dtype == ref.dtype and np.array_equal(rows, ref)


# ----------------------------------------------------------------------
def owned_arrays(results):
    return [[getattr(r, name) for name in COLUMNS] for r in results]


def store_columns(index):
    if isinstance(index, S3Index):
        stores = [index.store]
    else:
        stores = [s.index.store for s in index._segments if s.index is not None]
    return [
        column for store in stores
        for column in (store.ids, store.timecodes, store.fingerprints)
    ]


@pytest.mark.parametrize("kind", ["mono", "seg", "tiered", "tiered_file"])
def test_results_share_no_memory(indexes, kind):
    index = indexes[kind]
    new, _ = engines(kind)
    batch_of_five = np.vstack([FPS[[10, 11, 11, 900]], np.zeros((1, NDIMS))])
    for queries in (batch_of_five[:1], batch_of_five[1:3], batch_of_five):
        results, _ = new(index, queries, 0.9)
        arrays = owned_arrays(results)
        assert sum(a.size for a in arrays[0]) > 0
        shared = store_columns(index)
        for result in arrays:
            # Owned, not a view: a cached result must not pin a batch buffer.
            assert all(a.flags.owndata for a in result)
            for a, b in itertools.product(result, shared):
                assert not np.shares_memory(a, b)
        for one, other in itertools.combinations(arrays, 2):
            for a, b in itertools.product(one, other):
                assert not np.shares_memory(a, b)


# ----------------------------------------------------------------------
def test_each_union_is_coalesced_once(indexes, monkeypatch):
    calls = []
    coalesce = batch.coalesce_ranges

    def counted(*args):
        calls.append(args)
        return coalesce(*args)

    monkeypatch.setattr(batch, "coalesce_ranges", counted)
    queries = FPS[[10, 700, 1500]].astype(np.float64)
    batch.query_batch(indexes["mono"], queries, 0.8)
    assert len(calls) == 1
    calls.clear()
    seg = indexes["seg"]
    batch.query_batch(seg, queries, 0.8)
    # Every segment's union, lifted apart, in one call per batch.
    assert len(calls) == 1

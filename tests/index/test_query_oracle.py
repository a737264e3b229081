"""Solo, range and window queries through the query engine against the
per-query path they replaced (``reference_query``).

* The indexes: monolithic, segmented (sealed segments, a frozen and an
  active memtable; sketch prefilter auto and off), tiered (mixed cold
  and resident segments, blobs in memory and in files) and a segmented
  index of one segment and empty memtables.
* The queries: statistical with and without ``exact_blocks``; ε-range
  with integer and non-integer
  centres and ε set exactly to some row's distance; window queries.
* The contract: identical ``rows``, ``ids``, ``timecodes``,
  ``fingerprints`` and ``distances`` in value, dtype and shape,
  identical non-timing stats and identical tier-manager fetch counters.

Both index kinds share one query front, so two cases have no per-query
path to hold to:

* the one-segment index must answer every query kind as an
  ``S3Index`` over the segment's own store does — columns, distances,
  the stats fields the two share;
* on the sealed + frozen + active indexes, a window query must return
  the records a brute-force ``window_refine`` over all of them keeps,
  and ``exact_blocks`` the records the monolithic index over all of
  them returns, each compared as a multiset of (id, timecode,
  fingerprint).

Two intended differences from the old path:

* the touch rule: the engine touches a segment in the tier manager iff
  the query read rows from it, where the old path touched every segment
  it did not skip by occupancy (the tier fixtures never promote, so
  touches cannot move residency here);
* an ε-range query on a monolithic index that scans no row returns
  empty ``float64`` distances, as every other index does, where the old
  path returned ``None``.

The oracle's ``_fan_out`` also lost its per-block bounds prune
(``prune_ranges``), deleted with the sketch's bounds, so a range
query's stats on a segmented index no longer reflect a bounds prune:
they count the rows and sections of every block the occupancy prune
kept, as the engine does.  No column ever depended on that prune.

``PROPERTY_EXAMPLES`` raises the example count (CI's ``property-long`` job).
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel
from repro.index.kernels import squared_distances, window_refine
from repro.index.options import QueryOptions
from repro.index.s3 import QueryStats, S3Index
from repro.index.segmented import SegmentedS3Index
from repro.index.store import FingerprintStore
from repro.storage import FakeBlobBackend, FileBlobBackend, StorageConfig

from . import reference_query

EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "30"))

NDIMS = 8
MODEL = NormalDistortionModel(NDIMS, 12.0)
COLUMNS = ("rows", "ids", "timecodes", "fingerprints", "distances")
MONO_STATS = tuple(
    f.name for f in dataclasses.fields(QueryStats)
    if not f.name.endswith("_seconds")
)
FETCH_COUNTERS = ("fetches", "fetch_rows", "fetch_bytes")


def records(n, seed):
    """Clustered records, grouped by cluster so segments differ."""
    rng = np.random.default_rng(seed)
    centers = rng.integers(90, 200, size=(6, NDIMS))
    assign = np.sort(rng.integers(0, 6, size=n))
    fps = np.clip(
        centers[assign] + rng.normal(0, 8, (n, NDIMS)), 0, 255
    ).astype(np.uint8)
    return fps, rng.integers(0, 50, n).astype(np.uint32), rng.uniform(0, 500, n)


FPS, IDS, TCS = records(1800, seed=11)


@pytest.fixture(scope="module")
def indexes(tmp_path_factory):
    """A monolithic, a segmented and two tiered indexes (blobs in memory,
    blobs in files) over the same rows, and a segmented index of one
    segment.  The segmented and tiered ones end in a frozen and an
    active memtable."""
    mono = S3Index(FingerprintStore(FPS, IDS, TCS), model=MODEL)
    root = tmp_path_factory.mktemp("query")
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
    cuts = [0, 500, 1000, 1400, 1600, 1800]
    for index in (seg, *tiered.values()):
        for lo, hi in zip(cuts[:3], cuts[1:4]):
            index.add(FPS[lo:hi], IDS[lo:hi], TCS[lo:hi])
            index.flush()
        index.add(FPS[1400:1600], IDS[1400:1600], TCS[1400:1600])
        index._freeze_active()
        index.add(FPS[1600:], IDS[1600:], TCS[1600:])
        assert len(index._view.frozen) == 1
    for index in tiered.values():
        index.storage.demote(index._segments[0])
        index.storage.demote(index._segments[2])
        assert [s.index is None for s in index._segments] == [True, False, True]
    assert isinstance(tiered["tiered_file"].storage.backend, FileBlobBackend)
    one = SegmentedS3Index.create(root / "one", **kwargs)
    one.add(FPS, IDS, TCS)
    one.flush()
    assert one.num_segments == 1 and one.pending_rows == 0
    yield {"mono": mono, "seg": seg, **tiered, "one": one}
    for index in (seg, *tiered.values(), one):
        index.close()


def counts(stats):
    """Every non-timing field of a stats dataclass."""
    return {
        f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
        if not f.name.endswith("_seconds")
    }


def run(index, query):
    """``query(index)``: its result and the fetch counters it moved."""
    storage = getattr(index, "storage", None)
    before = [getattr(storage.stats, c) for c in FETCH_COUNTERS] if storage else []
    result = query(index)
    after = [getattr(storage.stats, c) for c in FETCH_COUNTERS] if storage else []
    moved = [b - a for a, b in zip(before, after)]
    return result, moved


def assert_same(got, want, stats=None):
    """Columns and fetch counters identical; the stats identical too,
    or only their fields named in *stats*."""
    (g, g_moved), (w, w_moved) = got, want
    for name in COLUMNS:
        a, b = getattr(g, name), getattr(w, name)
        if b is None and name == "distances" and a is not None:
            # The intended change: a range query that scans no row
            # measures no distance, in an empty float64 array.
            assert g.stats.rows_scanned == 0
            assert (a.dtype, a.shape) == (np.float64, (0,))
            continue
        if b is None:
            assert a is None, name
            continue
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert np.array_equal(a, b), name
    if stats is None:
        assert type(g.stats) is type(w.stats)
        assert counts(g.stats) == counts(w.stats)
    else:
        assert {k: counts(g.stats)[k] for k in stats} == {
            k: counts(w.stats)[k] for k in stats
        }
    assert g_moved == w_moved


def check(index, new, old):
    """*new* and *old* (callables of the index) answer alike."""
    got = run(index, new)
    assert_same(got, run(index, old))
    return got[0]


def record_set(result):
    """*result*'s records as a multiset of (id, timecode, fingerprint)."""
    return sorted(zip(
        result.ids.tolist(), result.timecodes.tolist(),
        map(bytes, result.fingerprints),
    ))


def ball_centre(rng, integer):
    centre = FPS[rng.integers(0, len(FPS))].astype(np.float64)
    if integer:
        return centre + rng.integers(-6, 7, NDIMS)
    return centre + rng.normal(0, 4.0, NDIMS)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(
        ["mono", "seg", "tiered", "tiered_file", "one"]
    ))
    query = draw(st.sampled_from(["statistical", "range", "exact", "window"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.sampled_from([None, 10, 14]))
    modes = {}
    if kind != "mono":
        modes["prefilter"] = draw(st.sampled_from(["auto", "off"]))
    options = QueryOptions(**modes)
    if query in ("statistical", "exact"):
        alpha = draw(st.sampled_from([0.5, 0.8, 0.95]))
        if query == "exact":
            depth, alpha = draw(st.sampled_from([None, 8, 10])), min(alpha, 0.8)
        centre = np.clip(
            FPS[rng.integers(0, len(FPS))] + rng.normal(0, 6.0, NDIMS), 0, 255
        )
        if draw(st.booleans()):
            centre[:] = 0.0  # a corner no row is near
        args = (centre, alpha)
    elif query == "range":
        centre = ball_centre(rng, draw(st.booleans()))
        if draw(st.booleans()):
            # ε exactly some row's distance: that row sits on the sphere.
            near = np.sort(squared_distances(FPS, centre))
            epsilon = float(np.sqrt(near[draw(st.integers(0, 40))]))
        else:
            epsilon = draw(st.sampled_from([0.0, 6.0, 18.0, 40.0]))
        args = (centre, epsilon)
    else:
        centre = ball_centre(rng, draw(st.booleans()))
        half = draw(st.sampled_from([4.0, 12.5, 30.0]))
        args = (centre - half, centre + half)
    return kind, query, args, depth, options


def queries(query, kind, args, depth, options):
    """The engine's and the oracle's version of one call."""
    if query == "window":
        return (
            lambda index: index.window_query(*args, depth=depth),
            lambda index: reference_query.s3_window_query(
                index, *args, depth=depth
            ),
        )
    prefix = "s3" if kind == "mono" else "segmented"
    name = "range_query" if query == "range" else "statistical_query"
    extra = {"exact_blocks": True} if query == "exact" else {}
    old = getattr(reference_query, f"{prefix}_{name}")
    return (
        lambda index: getattr(index, name)(
            *args, depth=depth, options=options, **extra
        ),
        lambda index: old(index, *args, depth=depth, options=options, **extra),
    )


@given(cases())
@settings(max_examples=EXAMPLES, deadline=None)
def test_queries_match_reference(indexes, case):
    kind, query, args, depth, options = case
    index = indexes[kind]
    if kind == "one":
        check_one_segment(index, query, args, depth, options)
    elif kind != "mono" and query in ("exact", "window"):
        check_records(indexes["mono"], index, query, args, depth, options)
    else:
        new, old = queries(query, kind, args, depth, options)
        check(index, new, old)


def check_one_segment(index, query, args, depth, options):
    """A one-segment index with empty memtables against an ``S3Index``
    over the segment's own store: every stats field the two share
    agrees, range queries included."""
    s3 = index._segments[0].index
    call, _ = queries(query, "seg", args, depth, options)
    assert_same(run(index, call), run(s3, call), stats=MONO_STATS)


def check_records(mono, index, query, args, depth, options):
    """Window and ``exact_blocks`` queries on a segmented index hold the
    records of a brute-force window test / of the monolithic index over
    all of them."""
    if query == "window":
        got = index.window_query(*args, depth=depth)
        keep = window_refine(FPS, *args)
        want = sorted(zip(
            IDS[keep].tolist(), TCS[keep].tolist(), map(bytes, FPS[keep])
        ))
    else:
        depth = index._resolve_depth(options.depth if depth is None else depth)
        got = index.statistical_query(
            *args, depth=depth, exact_blocks=True, options=options
        )
        want = record_set(mono.statistical_query(
            *args, depth=depth, exact_blocks=True
        ))
    assert got.distances is None
    assert got.stats.results == len(got)
    assert record_set(got) == want


@pytest.mark.parametrize("kind", ["seg", "tiered", "tiered_file"])
def test_range_prunes_match_reference(indexes, kind):
    """Range queries whose rows come from some segments and both
    memtables, with segments emptied by the occupancy prune, on both
    prefilter modes."""
    index = indexes[kind]
    sealed = sum(s.meta.count for s in index._segments)
    skipped = memtables = 0
    for row in (10, 700, 1200, 1500, 1700):
        for epsilon in (0.0, 20.0, 45.0):
            for prefilter in ("auto", "off"):
                options = QueryOptions(prefilter=prefilter)
                new, old = queries(
                    "range", kind, (FPS[row].astype(np.float64), epsilon),
                    None, options,
                )
                result = check(index, new, old)
                skipped += result.stats.segments_skipped
                memtables += int((result.rows >= sealed).any())
                assert len(result) >= 1  # the row itself
    assert skipped > 0 and memtables > 0


@pytest.mark.parametrize("kind", ["mono", "seg", "tiered", "tiered_file"])
def test_empty_selections_match_reference(indexes, kind):
    """Queries that select no block at all, and a window with an empty
    side: an empty answer of the old shape, but for a monolithic range
    query's distances, now empty as on every other index."""
    index = indexes[kind]
    far = np.full(NDIMS, -500.0)
    calls = [("range", (far, 1.0))]
    if kind == "mono":
        calls.append(("window", (far, far + 1.0)))
        calls.append(("window", (FPS[0] - 5.0, FPS[0] - 5.0)))
    for query, args in calls:
        new, old = queries(query, kind, args, None, QueryOptions())
        assert len(check(index, new, old)) == 0


@pytest.mark.parametrize("kind", ["mono", "seg"])
def test_options_depth_is_depth(indexes, kind):
    """``QueryOptions(depth=d)`` means ``depth=d`` on every call of both
    index kinds: solo, batch and range."""
    index = indexes[kind]
    depth = 6
    points = FPS[[5, 900]].astype(np.float64)
    calls = [
        lambda **kw: index.statistical_query(points[0], 0.8, **kw),
        lambda **kw: index.statistical_query_batch(points, 0.8, **kw)[1],
        lambda **kw: index.range_query(points[1], 12.0, **kw),
    ]
    for call in calls:
        by_options = call(options=QueryOptions(depth=depth))
        by_depth = call(depth=depth)
        default = call()
        assert counts(by_options.stats) == counts(by_depth.stats)
        assert np.array_equal(by_options.rows, by_depth.rows)
        assert by_options.stats.blocks_selected != default.stats.blocks_selected

"""A view's segments planned as one: k parts answer like one.

* **k parts answer like one** (Hypothesis): an index of k = 1…16 sealed
  segments — some demoted cold, with a frozen and an active memtable or
  none — answers batches of B = 1…32 statistical queries, prefilter on
  and off, at selection depths below, at and above the sketch depth,
  bit for bit like the segment-at-a-time oracle
  ``reference_scan.query_batch_segmented`` (columns, dtypes, per-query
  and batch counters), and with the records, sorted, of an ``S3Index``
  over the same rows.  Keys are 24 bits wide, or 64 (D = 32: the last
  block's end key wraps).
* **The plan is built at publish time**: queries on an unchanged view
  build it zero times; a seal, a compaction and a demotion each build
  it once.
* **Its memory is visible**: 8 bytes per occupied prefix, none for one
  part.

``PROPERTY_EXAMPLES`` raises the example count (CI's ``property-long`` job).
"""

import dataclasses
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel
from repro.index import batch
from repro.index.parts import PartsLayout, ViewPlan
from repro.index.s3 import S3Index
from repro.index.segmented import SegmentedS3Index
from repro.index.store import FingerprintStore
from repro.index.table import key_row_ranges
from repro.storage import FakeBlobBackend, StorageConfig

from . import reference_scan

EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "30"))

SIGMA = 10.0
COLUMNS = ("rows", "ids", "timecodes", "fingerprints")


def records(n, ndims, rng):
    """Rows around a few centres: segments differ, sketches prune."""
    centres = rng.integers(50, 206, size=(3, ndims))
    fps = centres[rng.integers(0, 3, n)] + rng.normal(0, 9, (n, ndims))
    return (
        np.clip(fps, 0, 255).astype(np.uint8),
        rng.integers(0, 40, n).astype(np.uint32),
        rng.uniform(0, 300, n),
    )


def counts(stats):
    return {
        f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
        if not f.name.endswith("_seconds")
    }


def record_set(results):
    return sorted(
        (int(i), float(t), bytes(f))
        for r in results
        for i, t, f in zip(r.ids, r.timecodes, r.fingerprints)
    )


@st.composite
def cases(draw):
    return dict(
        segments=draw(st.lists(st.integers(1, 60), min_size=1, max_size=16)),
        cold=draw(st.lists(st.booleans(), min_size=16, max_size=16)),
        memtables=draw(st.booleans()),
        queries=draw(st.integers(1, 32)),
        depth=draw(st.sampled_from([10, 16, 20])),
        alpha=draw(st.sampled_from([0.5, 0.8, 0.95])),
        prefilter=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@pytest.mark.parametrize("ndims", [12, 32], ids=["24-bit", "64-bit"])
@given(case=cases())
@settings(max_examples=EXAMPLES, deadline=None)
def test_k_parts_answer_like_one(ndims, case):
    rng = np.random.default_rng(case["seed"])
    model = NormalDistortionModel(ndims, SIGMA)
    batches = [records(n, ndims, rng) for n in case["segments"]]
    if case["memtables"]:
        batches += [records(n, ndims, rng) for n in rng.integers(1, 30, 2)]
    fps, ids, tcs = (np.concatenate(c) for c in zip(*batches))
    with tempfile.TemporaryDirectory() as directory:
        index = SegmentedS3Index.create(
            directory, ndims=ndims, model=model, flush_rows=10**9,
            auto_compact=False, durability="async",
            storage=StorageConfig(backend=FakeBlobBackend()),
        )
        try:
            for fp, i, t in batches[:len(case["segments"])]:
                index.add(fp, i, t)
                index.flush()
            if case["memtables"]:
                index.add(*batches[-2])
                index._freeze_active()
                index.add(*batches[-1])
            for seg, cold in zip(index._segments, case["cold"]):
                if cold:
                    index.storage.demote(seg)
            assert index.num_segments == len(case["segments"])
            wide = isinstance(index._view.plan.layout, PartsLayout)
            assert wide == (index.num_segments > 1)

            queries = np.clip(
                fps[rng.integers(0, len(fps), case["queries"])]
                + rng.normal(0, SIGMA, (case["queries"], ndims)), 0, 255,
            )
            args = (queries, case["alpha"])
            kwargs = dict(depth=case["depth"], prefilter=case["prefilter"])
            got, got_batch = batch.query_batch(index, *args, **kwargs)
            want, want_batch = reference_scan.query_batch_segmented(
                index, *args, prefetch=False, **kwargs
            )
            assert counts(got_batch) == counts(want_batch)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                for name in COLUMNS:
                    a, b = getattr(g, name), getattr(w, name)
                    assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                    assert np.array_equal(a, b), name
                assert counts(g.stats) == counts(w.stats)
        finally:
            index.close()
    one = S3Index(
        FingerprintStore(fps, ids, tcs), depth=case["depth"], model=model
    )
    for g, w in zip(got, batch.query_batch(one, *args, depth=case["depth"])[0]):
        assert record_set([g]) == record_set([w])


def test_parts_layout_is_each_part_lifted():
    """Each (part, query) list's ranges are the part's own, lifted by the
    part's first row: with keys on block boundaries, an empty part, an
    empty list, and the last block of a 64-bit key space, whose end key
    wraps to 0."""
    rng = np.random.default_rng(5)
    key_bits, depth = 64, 4
    shift = np.uint64(key_bits - depth)
    sizes = [9, 0, 30, 12]
    layouts = []
    for n in sizes:
        blocks = rng.integers(0, 1 << depth, n).astype(np.uint64)
        tails = rng.choice(np.array([0, 1, (1 << 60) - 1], np.uint64), n)
        layouts.append(SimpleNamespace(
            keys=np.sort((blocks << shift) | tails), key_bits=key_bits,
        ))
    lists = [
        np.array([3, 7, 8, 15], np.uint64),
        np.empty(0, np.uint64),
        np.unique(rng.integers(0, 1 << depth, 6)).astype(np.uint64),
    ]
    sizes_q = [q.size for q in lists]
    offsets = np.append(0, np.cumsum(sizes))
    got = PartsLayout(layouts, offsets).row_ranges(
        np.concatenate(lists * len(sizes)), sizes_q * len(sizes), depth
    )
    for p, layout in enumerate(layouts):
        want = key_row_ranges(
            layout.keys, key_bits, np.concatenate(lists), sizes_q, depth
        )
        for q in range(len(lists)):
            a, b = got.bounds[p * len(lists) + q: p * len(lists) + q + 2]
            c, d = want.bounds[q:q + 2]
            assert np.array_equal(got.starts[a:b], want.starts[c:d] + offsets[p])
            assert np.array_equal(got.ends[a:b], want.ends[c:d] + offsets[p])


# ----------------------------------------------------------------------
NDIMS = 8


@pytest.fixture
def builds(monkeypatch):
    """Every ``ViewPlan.build`` call, by segment count."""
    calls = []
    build = ViewPlan.build.__func__

    def counted(cls, segments):
        calls.append(len(segments))
        return build(cls, segments)

    monkeypatch.setattr(ViewPlan, "build", classmethod(counted))
    return calls


def test_plan_is_built_at_publish_time(tmp_path, builds):
    rng = np.random.default_rng(3)
    index = SegmentedS3Index.create(
        tmp_path / "idx", ndims=NDIMS, model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=10**9, auto_compact=False, durability="async",
        storage=StorageConfig(backend=FakeBlobBackend()),
    )
    with index:
        for n in (80, 120, 60):
            index.add(*records(n, NDIMS, rng))
            index.flush()
        index.add(*records(20, NDIMS, rng))
        index._freeze_active()  # memtables change, the segment set not
        index.add(*records(10, NDIMS, rng))
        builds.clear()
        plan = index._view.plan
        queries = records(12, NDIMS, rng)[0].astype(np.float64)
        for q in queries:
            index.statistical_query(q, alpha=0.8)
            index.range_query(q, 30.0)
        batch.query_batch(index, queries, 0.8)
        assert builds == [] and index._read_view().plan is plan

        index.flush()  # seals the frozen memtable, then the active one
        assert builds == [4, 5]
        index.compact(force=True)
        assert builds == [4, 5, 1]
        index.add(*records(50, NDIMS, rng))
        index.flush()
        builds.clear()
        assert index.storage.demote(index._segments[0])
        assert builds == [2]


def test_plan_memory_is_reported(tmp_path):
    rng = np.random.default_rng(4)
    index = SegmentedS3Index.create(
        tmp_path / "idx", ndims=NDIMS, model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=10**9, auto_compact=False, durability="async",
    )
    with index:
        index.add(*records(90, NDIMS, rng))
        index.flush()
        info = index.prefilter_info()
        assert info["plan_occupancy_bytes"] == 0
        index.add(*records(70, NDIMS, rng))
        index.flush()
        info = index.prefilter_info()
        occupied = sum(s.sketch.occupied.size for s in index._segments)
        assert info["plan_occupancy_bytes"] == 8 * occupied

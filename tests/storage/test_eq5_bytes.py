"""Tiered fetch bytes against the paper's eq.-(5) load model.

Eq. (5) prices a query batch by the bytes its selected curve sections
load.  With the RAM budget below 25 % of a segmented archive, most
segments live in a file blob backend, and one batch must

* answer bit-identically to the same archive all in RAM, and
* move through the backend the bytes eq. (5) predicts — per cold
  segment, the union of every query's selected row ranges times the
  ``ndims + 4 + 8`` row stride — within :data:`MODEL_TOLERANCE`.

The prediction shares no code with the fetch path it checks: block
selection runs over the pseudo-disk searcher's own layout, rebuilt from
pre-demotion copies of the cold segments' store files, and the per-query
ranges are merged by this file's sorted sweep.
"""

import shutil

import numpy as np

from repro.distortion.model import NormalDistortionModel
from repro.index.batch import BatchQueryExecutor
from repro.index.filtering import statistical_blocks
from repro.index.options import QueryOptions
from repro.index.pseudodisk import PseudoDiskSearcher
from repro.index.segmented import CompactionPolicy, SegmentedS3Index
from repro.storage import StorageConfig, row_bytes

NDIMS = 20
SIGMA = 18.0
ALPHA = 0.8
DB_ROWS = 8_000
NUM_SEGMENTS = 8
NUM_QUERIES = 16
NUM_CENTERS = 20
BUDGET_FRACTION = 0.20

#: Measured backend bytes must land within this relative distance of
#: the eq.-(5) prediction.
MODEL_TOLERANCE = 0.20


def union_ranges(range_lists):
    """Union of per-query ``(start, end)`` lists as disjoint spans."""
    spans = sorted(
        (s, e) for ranges in range_lists for s, e in ranges if e > s
    )
    merged = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def build_archive(directory, rng):
    """Sealed segments that each sample one clustered mixture."""
    index = SegmentedS3Index.create(
        directory,
        ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=DB_ROWS + 1,
        policy=CompactionPolicy(max_segments=2 * NUM_SEGMENTS + 4),
        auto_compact=False,
        sync=False,
    )
    centers = rng.integers(25, 231, size=(NUM_CENTERS, NDIMS)).astype(
        np.float64
    )
    rows = DB_ROWS // NUM_SEGMENTS
    for seg in range(NUM_SEGMENTS):
        assign = rng.integers(0, NUM_CENTERS, size=rows)
        fingerprints = np.clip(
            centers[assign] + rng.normal(0.0, 12.0, size=(rows, NDIMS)),
            0.0, 255.0,
        ).astype(np.uint8)
        index.add(
            fingerprints,
            np.full(rows, seg, dtype=np.uint32),
            np.arange(rows, dtype=np.float64),
        )
        index.flush()
    return index, centers


def query_batch(index, queries):
    """One batch; results and stats."""
    executor = BatchQueryExecutor(
        index,
        options=QueryOptions(
            alpha=ALPHA, batch_size=NUM_QUERIES, prefilter="off"
        ),
    )
    return executor.query_batch(queries), executor.stats


def predicted_bytes(store_path, count, model, depth, queries):
    """Eq. (5) load volume of *queries* over one curve-sorted store."""
    layout = PseudoDiskSearcher(
        store_path, model, memory_rows=count, depth=depth
    ).layout
    per_query = []
    for q in queries:
        sel = statistical_blocks(q, model, layout.curve, depth, ALPHA)
        per_query.append(layout.block_row_ranges(sel.prefixes, sel.depth))
    rows = sum(e - s for s, e in union_ranges(per_query))
    return rows * row_bytes(NDIMS)


def test_cold_fetch_bytes_match_eq5(tmp_path):
    rng = np.random.default_rng(0)
    archive = tmp_path / "archive"
    index, centers = build_archive(archive, rng)
    model, depth = index.model, index.depth
    home = rng.integers(0, NUM_CENTERS, size=NUM_QUERIES)
    queries = np.clip(
        centers[home] + model.sample(NUM_QUERIES, rng=rng), 0.0, 255.0
    )
    segments = [(seg.meta.name, seg.meta.count) for seg in index._segments]
    ram_results, _ = query_batch(index, queries)
    index.close()

    # Demotion deletes a cold segment's local store file, and the
    # prediction reads it: copy every store first.
    copies = tmp_path / "copies"
    copies.mkdir()
    for name, _ in segments:
        shutil.copy(archive / f"{name}.store", copies / f"{name}.store")
    archive_bytes = sum(
        (archive / f"{name}.store").stat().st_size for name, _ in segments
    )

    index = SegmentedS3Index.open(
        archive,
        storage=StorageConfig(
            budget_bytes=int(BUDGET_FRACTION * archive_bytes),
            cold_dir=str(tmp_path / "cold"),
            promote_after=10 ** 6,  # every scan of the batch stays cold
        ),
    )
    try:
        cold = {
            seg.meta.name
            for seg in index._segments
            if seg.meta.tier == "cold"
        }
        tiered_results, stats = query_batch(index, queries)
    finally:
        index.close()

    assert len(cold) > NUM_SEGMENTS // 2
    assert len(tiered_results) == len(ram_results) == NUM_QUERIES
    for ram, tiered in zip(ram_results, tiered_results):
        assert np.array_equal(ram.rows, tiered.rows)
        assert np.array_equal(ram.ids, tiered.ids)
        assert np.array_equal(ram.timecodes, tiered.timecodes)
        assert np.array_equal(ram.fingerprints, tiered.fingerprints)

    predicted = sum(
        predicted_bytes(copies / f"{name}.store", count, model, depth,
                        queries)
        for name, count in segments
        if name in cold
    )
    assert predicted > 0
    error = abs(stats.cold_bytes - predicted) / predicted
    assert error <= MODEL_TOLERANCE, (stats.cold_bytes, predicted)

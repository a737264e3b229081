"""Tiered fetch bytes against the paper's eq.-(5) load model.

Eq. (5) prices a query batch by the bytes its selected curve sections
load, ``T_tot = T + T_load / N_sig``.  With the RAM budget below 25 % of
a segmented archive, most segments live in a file blob backend, and one
batch must

* answer bit-identically to the same archive all in RAM, and
* move through the backend the bytes eq. (5) predicts — per cold
  segment, the union of every query's selected row ranges times the
  ``ndims + 4 + 8`` row stride — within :data:`MODEL_TOLERANCE`.

The prediction shares no code with the fetch path it checks: each row's
key is the scalar ``HilbertCurve.prefix_key`` of a pre-demotion copy of
the cold segment's store file, each selected block's rows are found in
the sorted keys with ``bisect``, and the per-query ranges are merged by
this file's sorted sweep.

On an all-cold archive the same queries in batches of ``N_sig`` show
eq. (5)'s structure: one backend fetch per cold segment a batch touches,
so fetches and bytes never grow with ``N_sig`` (a larger batch is a
union of smaller ones) while the answers stay the same.
"""

import shutil
from bisect import bisect_left

import numpy as np

from repro.distortion.model import NormalDistortionModel
from repro.hilbert.butz import HilbertCurve
from repro.index.batch import BatchQueryExecutor
from repro.index.filtering import statistical_blocks
from repro.index.options import QueryOptions
from repro.index.segmented import CompactionPolicy, SegmentedS3Index
from repro.index.store import FingerprintStore
from repro.storage import FakeBlobBackend, StorageConfig, row_bytes

NDIMS = 20
SIGMA = 18.0
ALPHA = 0.8
DB_ROWS = 8_000
NUM_SEGMENTS = 8
NUM_QUERIES = 16
NUM_CENTERS = 20
BUDGET_FRACTION = 0.20
BATCH_SIZES = (1, 4, 16)

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
    """Sealed segments that each sample one clustered mixture, and
    queries drawn around the mixture's centers."""
    index = SegmentedS3Index.create(
        directory,
        ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=DB_ROWS + 1,
        policy=CompactionPolicy(max_segments=2 * NUM_SEGMENTS + 4),
        auto_compact=False,
        durability="async",
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
    home = rng.integers(0, NUM_CENTERS, size=NUM_QUERIES)
    queries = np.clip(
        centers[home] + index.model.sample(NUM_QUERIES, rng=rng), 0.0, 255.0
    )
    return index, queries


def run(index, queries, batch_size=NUM_QUERIES):
    """*queries* in batches of *batch_size*; results and summed stats."""
    executor = BatchQueryExecutor(
        index, options=QueryOptions(alpha=ALPHA, batch_size=batch_size),
    )
    return executor.query_all(queries), executor.stats


def assert_same_answers(want, got):
    assert len(want) == len(got) == NUM_QUERIES
    for a, b in zip(want, got):
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.timecodes, b.timecodes)
        assert np.array_equal(a.fingerprints, b.fingerprints)


def predicted_bytes(store_path, index, queries):
    """Eq. (5) load volume of *queries* over one curve-sorted store."""
    curve = HilbertCurve(NDIMS, index.manifest.order)
    levels = index.manifest.key_levels
    keys = sorted(
        curve.prefix_key(fp, levels)
        for fp in FingerprintStore.load(store_path).fingerprints
    )
    shift = levels * NDIMS - index.depth
    per_query = []
    for q in queries:
        sel = statistical_blocks(q, index.model, curve, index.depth, ALPHA)
        per_query.append([
            (bisect_left(keys, p << shift), bisect_left(keys, (p + 1) << shift))
            for p in sel.prefixes.tolist()
        ])
    rows = sum(e - s for s, e in union_ranges(per_query))
    return rows * row_bytes(NDIMS)


def test_cold_fetch_bytes_match_eq5(tmp_path):
    archive = tmp_path / "archive"
    index, queries = build_archive(archive, np.random.default_rng(0))
    segments = [seg.meta.name for seg in index._segments]
    ram_results, _ = run(index, queries)
    index.close()

    # Demotion deletes a cold segment's local store file, and the
    # prediction reads it: copy every store first.
    copies = tmp_path / "copies"
    copies.mkdir()
    for name in segments:
        shutil.copy(archive / f"{name}.store", copies / f"{name}.store")
    archive_bytes = sum(
        (archive / f"{name}.store").stat().st_size for name in segments
    )

    index = SegmentedS3Index.open(
        archive,
        storage=StorageConfig(
            budget_bytes=int(BUDGET_FRACTION * archive_bytes),
            cold_dir=str(tmp_path / "cold"),
        ),
    )
    try:
        cold = {
            seg.meta.name
            for seg in index._segments
            if seg.meta.tier == "cold"
        }
        tiered_results, stats = run(index, queries)
        predicted = sum(
            predicted_bytes(copies / f"{name}.store", index, queries)
            for name in segments
            if name in cold
        )
    finally:
        index.close()

    assert len(cold) > NUM_SEGMENTS // 2
    assert_same_answers(ram_results, tiered_results)
    assert predicted > 0
    error = abs(stats.cold_bytes - predicted) / predicted
    assert error <= MODEL_TOLERANCE, (stats.cold_bytes, predicted)


def test_batching_never_adds_fetches_or_bytes(tmp_path):
    archive = tmp_path / "archive"
    index, queries = build_archive(archive, np.random.default_rng(1))
    ram_results, _ = run(index, queries)
    index.close()

    index = SegmentedS3Index.open(
        archive,
        storage=StorageConfig(budget_bytes=0, backend=FakeBlobBackend()),
    )
    fetches, cold_bytes = [], []
    try:
        assert all(seg.meta.tier == "cold" for seg in index._segments)
        for n_sig in BATCH_SIZES:
            before = index.storage.stats.fetches
            results, stats = run(index, queries, batch_size=n_sig)
            assert stats.batches == NUM_QUERIES // n_sig
            assert_same_answers(ram_results, results)
            fetches.append(index.storage.stats.fetches - before)
            cold_bytes.append(stats.cold_bytes)
            assert fetches[-1] == stats.cold_segments
    finally:
        index.close()

    assert fetches == sorted(fetches, reverse=True), fetches
    assert cold_bytes == sorted(cold_bytes, reverse=True), cold_bytes
    assert fetches[-1] > 0

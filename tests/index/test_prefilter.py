"""Admissibility and persistence tests for the segment-sketch pre-filter.

The acceptance property: for ANY segmentation of a corpus, any query and
any expectation/radius, running with the pre-filter on returns results
**bit-identical** to running with it off — on statistical and ε-range
queries, through the solo and batched paths, and across compaction and
WAL crash-recovery.  The sketches only ever skip work the scan would
have proved empty anyway.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel
from repro.errors import IndexError_
from repro.index.batch import BatchQueryExecutor
from repro.index.options import QueryOptions
from repro.index.segmented import (
    SegmentedS3Index,
    SegmentSketch,
    SketchConfig,
    sketch_filename,
)

from . import reference_query

NDIMS = 8
SIGMA = 10.0
ON = QueryOptions(prefilter="auto")
OFF = QueryOptions(prefilter="off")


def make_records(n, seed=0, spread=10.0):
    """Clustered records: realistic curve locality for the sketches."""
    rng = np.random.default_rng(seed)
    centers = rng.integers(40, 216, size=(max(n // 100, 4), NDIMS))
    assign = rng.integers(0, centers.shape[0], size=n)
    fp = np.clip(
        centers[assign] + rng.normal(0, spread, (n, NDIMS)), 0, 255
    ).astype(np.uint8)
    ids = rng.integers(0, 50, n).astype(np.uint32)
    tcs = rng.uniform(0, 500, n)
    return fp, ids, tcs


def make_index(directory, cuts, records, flush_last=True, **kwargs):
    fp, ids, tcs = records
    index = SegmentedS3Index.create(
        directory, ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=10 * len(ids), auto_compact=False, **kwargs,
    )
    bounds = [0, *sorted(cuts), len(ids)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            index.add(fp[lo:hi], ids[lo:hi], tcs[lo:hi])
            if hi != len(ids) or flush_last:
                index.flush()
    return index


def assert_bit_identical(a, b):
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.timecodes, b.timecodes)
    assert np.array_equal(a.fingerprints, b.fingerprints)
    if a.distances is not None or b.distances is not None:
        assert np.array_equal(a.distances, b.distances)


def assert_on_off_identical(index, query, alpha, epsilon):
    index.reset_threshold_cache()
    off = index.statistical_query(query, alpha, options=OFF)
    index.reset_threshold_cache()
    on = index.statistical_query(query, alpha, options=ON)
    assert_bit_identical(off, on)
    assert on.stats.segments_skipped >= 0
    assert off.stats.segments_skipped == 0
    assert_bit_identical(
        index.range_query(query, epsilon, options=OFF),
        index.range_query(query, epsilon, options=ON),
    )


# ----------------------------------------------------------------------
class TestSketchPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        index = make_index(tmp_path / "seg", [150], make_records(400))
        seg = index._segments[0]
        assert seg.sketch is not None
        path = tmp_path / "roundtrip.sketch"
        seg.sketch.save(path)
        loaded = SegmentSketch.load(path, seg.index.layout.key_bits)
        assert loaded.depth == seg.sketch.depth
        assert loaded.block_rows == seg.sketch.block_rows
        assert loaded.rows == seg.sketch.rows
        assert np.array_equal(loaded.occupied, seg.sketch.occupied)
        assert np.array_equal(loaded.mins, seg.sketch.mins)
        assert np.array_equal(loaded.maxs, seg.sketch.maxs)
        assert not list(tmp_path.glob("*.tmp"))  # atomic write cleaned up
        index.close()

    def test_corrupt_sidecar_raises(self, tmp_path):
        index = make_index(tmp_path / "seg", [], make_records(200))
        seg = index._segments[0]
        path = tmp_path / "seg" / sketch_filename(seg.meta.name)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexError_, match="sketch"):
            SegmentSketch.load(path, seg.index.layout.key_bits)
        index.close()

    def test_missing_sidecar_is_rebuilt_on_open(self, tmp_path):
        directory = tmp_path / "seg"
        index = make_index(directory, [100], make_records(300))
        names = [seg.meta.name for seg in index._segments]
        index.close()
        for name in names:
            (directory / sketch_filename(name)).unlink()
        reopened = SegmentedS3Index.open(directory)
        for seg in reopened._segments:
            assert seg.sketch is not None
            assert (directory / sketch_filename(seg.meta.name)).is_file()
        fp, _, _ = make_records(300)
        assert_on_off_identical(
            reopened, fp[0].astype(np.float64), 0.8, 20.0
        )
        reopened.close()

    def test_corrupt_sidecar_is_rebuilt_on_open(self, tmp_path):
        directory = tmp_path / "seg"
        index = make_index(directory, [], make_records(200))
        name = index._segments[0].meta.name
        index.close()
        (directory / sketch_filename(name)).write_bytes(b"garbage")
        reopened = SegmentedS3Index.open(directory)
        assert reopened._segments[0].sketch is not None
        fp, _, _ = make_records(200)
        assert_on_off_identical(
            reopened, fp[5].astype(np.float64), 0.8, 20.0
        )
        reopened.close()

    def test_manifest_records_sketch_meta(self, tmp_path):
        directory = tmp_path / "seg"
        index = make_index(directory, [], make_records(150))
        meta = index.segments[0]
        assert meta.sketch is not None
        assert set(meta.sketch) == {"depth", "block_rows"}
        index.close()

    def test_orphan_sketches_are_collected(self, tmp_path):
        directory = tmp_path / "seg"
        index = make_index(
            directory, [60, 120], make_records(300),
            policy=None,
        )
        index.close()
        orphan = directory / "seg-999999.sketch"
        orphan.write_bytes(b"stale")
        reopened = SegmentedS3Index.open(directory)
        assert not orphan.exists()
        reopened.close()

    def test_compaction_rebuilds_and_removes_old_sketches(self, tmp_path):
        directory = tmp_path / "seg"
        index = make_index(directory, [100, 200], make_records(300))
        old = [seg.meta.name for seg in index._segments]
        result = index.compact(force=True)
        assert result is not None
        for name in old:
            assert not (directory / sketch_filename(name)).exists()
        merged = index._segments[0]
        assert merged.sketch is not None
        assert (directory / sketch_filename(merged.meta.name)).is_file()
        assert merged.sketch.rows == merged.meta.count
        fp, _, _ = make_records(300)
        assert_on_off_identical(index, fp[9].astype(np.float64), 0.8, 20.0)
        index.close()

    def test_prefilter_info(self, tmp_path):
        index = make_index(tmp_path / "seg", [80], make_records(240))
        info = index.prefilter_info()
        assert info["segments"] == 2
        assert info["sketches"] == 2
        assert info["resident_bytes"] > 0
        index.close()


# ----------------------------------------------------------------------
class TestPrunePrefixes:
    """The occupancy bitmap never drops a prefix that owns rows."""

    @given(
        depth=st.integers(min_value=1, max_value=16),
        sketch_depth=st.integers(min_value=4, max_value=18),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_pruned_ranges_equal_full_ranges(
        self, tmp_path_factory, depth, sketch_depth, seed
    ):
        tmp = tmp_path_factory.mktemp("prune")
        index = make_index(
            tmp / "seg", [], make_records(300, seed=seed),
            sketch_config=SketchConfig(depth=sketch_depth),
        )
        seg = index._segments[0]
        layout = seg.index.layout
        depth = min(depth, layout.key_bits)
        rng = np.random.default_rng(seed)
        universe = 1 << min(depth, 30)
        prefixes = np.unique(
            rng.integers(0, universe, size=40).astype(np.uint64)
        )
        pruned = reference_query.prune_prefixes(seg.sketch, prefixes, depth)
        # Admissible: dropped prefixes own no rows, so the merged row
        # ranges are identical.
        assert layout.block_row_ranges(pruned, depth) == \
            layout.block_row_ranges(prefixes, depth)
        index.close()


# ----------------------------------------------------------------------
class TestAdmissibility:
    CORPUS = make_records(1000, seed=7)

    @given(
        cuts=st.lists(
            st.integers(min_value=1, max_value=999),
            min_size=0, max_size=4,
        ),
        flush_last=st.booleans(),
        query_row=st.integers(min_value=0, max_value=999),
        alpha=st.sampled_from([0.5, 0.8, 0.95]),
        epsilon=st.sampled_from([0.0, 15.0, 40.0]),
    )
    @settings(max_examples=10, deadline=None)
    def test_on_off_bit_identical_across_lifecycle(
        self, tmp_path_factory, cuts, flush_last, query_row, alpha, epsilon
    ):
        tmp = tmp_path_factory.mktemp("admissible")
        directory = tmp / "seg"
        index = make_index(directory, cuts, self.CORPUS, flush_last)
        fp, _, _ = self.CORPUS
        query = fp[query_row].astype(np.float64)

        # Fresh index (segments + possibly a memtable remainder).
        assert_on_off_identical(index, query, alpha, epsilon)

        # After compaction (sketches rebuilt over the merged store).
        if index.num_segments >= 2:
            index.compact(force=True)
            assert_on_off_identical(index, query, alpha, epsilon)

        # After a crash (unflushed tail in the WAL) and recovery.
        extra_fp, extra_ids, extra_tcs = make_records(30, seed=99)
        index.add(extra_fp, extra_ids, extra_tcs)
        del index  # simulated crash: no flush, no close
        recovered = SegmentedS3Index.open(directory)
        assert recovered.pending_rows > 0
        assert_on_off_identical(recovered, query, alpha, epsilon)
        recovered.close()

    def test_monolithic_index_accepts_prefilter_options(self, tmp_path):
        """On a monolithic S3Index the option is an accepted no-op."""
        from repro.index.s3 import S3Index
        from repro.index.store import FingerprintStore

        fp, ids, tcs = self.CORPUS
        index = S3Index(
            FingerprintStore(fp, ids, tcs),
            model=NormalDistortionModel(NDIMS, SIGMA),
        )
        query = fp[3].astype(np.float64)
        index.reset_threshold_cache()
        off = index.statistical_query(query, 0.8, options=OFF)
        index.reset_threshold_cache()
        on = index.statistical_query(query, 0.8, options=ON)
        assert_bit_identical(off, on)
        assert_bit_identical(
            index.range_query(query, 20.0, options=OFF),
            index.range_query(query, 20.0, options=ON),
        )


# ----------------------------------------------------------------------
class TestBatchedPrefilter:
    def test_batched_on_off_bit_identical_and_skips(self, tmp_path):
        # Well-separated clusters, one per segment: most (query, segment)
        # pairs are provably empty, so skips MUST happen.
        rng = np.random.default_rng(0)
        index = SegmentedS3Index.create(
            tmp_path / "seg", ndims=NDIMS,
            model=NormalDistortionModel(NDIMS, SIGMA),
            flush_rows=100_000, auto_compact=False,
        )
        centers = rng.uniform(30, 225, size=(6, NDIMS))
        for seg in range(6):
            fp = np.clip(
                rng.normal(centers[seg], 8.0, (200, NDIMS)), 0, 255
            ).astype(np.uint8)
            index.add(
                fp, np.full(200, seg, dtype=np.uint32),
                np.arange(200, dtype=np.float64),
            )
            index.flush()
        queries = np.clip(
            centers[rng.integers(0, 6, 16)]
            + rng.normal(0, SIGMA, (16, NDIMS)),
            0, 255,
        )

        outputs = {}
        skips = {}
        for mode in ("off", "auto"):
            opts = QueryOptions(alpha=0.8, batch_size=8, prefilter=mode)
            executor = BatchQueryExecutor(index, options=opts)
            index.reset_threshold_cache()
            outputs[mode] = executor.query_batch(queries)
            skips[mode] = executor.stats.segments_skipped
        for off, on in zip(outputs["off"], outputs["auto"]):
            assert_bit_identical(off, on)
        assert skips["off"] == 0
        assert skips["auto"] > 0
        index.close()

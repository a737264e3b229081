"""Admissibility and persistence tests for the segment-sketch pre-filter.

The acceptance property: for ANY segmentation of a corpus, any query and
any expectation/radius, running with the pre-filter on returns results
**bit-identical** to running with it off — on statistical and ε-range
queries, through the solo and batched paths, and across compaction and
WAL crash-recovery.  The sketches only ever skip work the scan would
have proved empty anyway.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel
from repro.errors import IndexError_
from repro.cluster import plan_cluster
from repro.index.batch import BatchQueryExecutor
from repro.index.options import QueryOptions
from repro.index.segmented import (
    SegmentedS3Index,
    SegmentSketch,
    SketchConfig,
    sketch_filename,
)
from repro.index.segmented.sketch import _HEADER, SKETCH_FORMAT, SKETCH_MAGIC
from repro.storage import StorageConfig

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
    off = index.statistical_query(query, alpha, options=OFF)
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
        assert loaded.rows == seg.sketch.rows
        assert np.array_equal(loaded.occupied, seg.sketch.occupied)
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
        assert meta.sketch == {"depth": index._segments[0].sketch.depth}
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
        index = make_index(tmp / "seg", [], make_records(300, seed=seed))
        seg = index._segments[0]
        layout = seg.index.layout
        sketch = SegmentSketch.build(layout, SketchConfig(depth=sketch_depth))
        depth = min(depth, layout.key_bits)
        rng = np.random.default_rng(seed)
        universe = 1 << min(depth, 30)
        prefixes = np.unique(
            rng.integers(0, universe, size=40).astype(np.uint64)
        )
        pruned = reference_query.prune_prefixes(sketch, prefixes, depth)
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
        off = index.statistical_query(query, 0.8, options=OFF)
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
            outputs[mode] = executor.query_batch(queries)
            skips[mode] = executor.stats.segments_skipped
        for off, on in zip(outputs["off"], outputs["auto"]):
            assert_bit_identical(off, on)
        assert skips["off"] == 0
        assert skips["auto"] > 0
        index.close()


# ----------------------------------------------------------------------
def write_bounds_sidecar(path, sketch, fingerprints, block_rows=4096):
    """Rewrite *path* as sketches were written while they also held
    per-block bounds: the same header with ``block_rows``, ``ndims`` and
    ``nblocks`` set, then the bitmap, then every block's component
    minima and maxima over runs of *block_rows* curve-sorted rows."""
    fingerprints = np.asarray(fingerprints, dtype=np.uint8)
    starts = np.arange(0, fingerprints.shape[0], block_rows)
    bitmap = np.zeros(1 << sketch.depth, dtype=np.uint8)
    bitmap[sketch.occupied.astype(np.int64)] = 1
    path.write_bytes(
        _HEADER.pack(
            SKETCH_MAGIC, SKETCH_FORMAT, sketch.depth, block_rows,
            sketch.rows, fingerprints.shape[1], starts.size,
        )
        + np.packbits(bitmap).tobytes()
        + np.minimum.reduceat(fingerprints, starts, axis=0).tobytes()
        + np.maximum.reduceat(fingerprints, starts, axis=0).tobytes()
    )


def stats_counts(stats):
    return {
        k: v for k, v in dataclasses.asdict(stats).items()
        if not k.endswith("_seconds")
    }


class TestBoundsSidecars:
    """Directories whose sidecars and manifest carry the per-block
    bounds of earlier sketches still open — resident, and with a cold
    segment — answer every query kind as a fresh build does, and plan
    into the same shard presence."""

    CORPUS = make_records(900, seed=3)
    CUTS = [300, 600, 800]

    def build_pair(self, tmp_path):
        fresh = make_index(tmp_path / "fresh", self.CUTS, self.CORPUS, False)
        old_dir = tmp_path / "old"
        old = make_index(old_dir, self.CUTS, self.CORPUS, False)
        for seg in old._segments:
            write_bounds_sidecar(
                old_dir / sketch_filename(seg.meta.name), seg.sketch,
                seg.index.store.fingerprints,
            )
        old.close()
        manifest = json.loads((old_dir / "MANIFEST.json").read_text())
        for seg in manifest["segments"]:
            seg["sketch"]["block_rows"] = 4096
        (old_dir / "MANIFEST.json").write_text(json.dumps(manifest))
        return fresh, old_dir

    def assert_same_answers(self, fresh, old):
        fp, _, _ = self.CORPUS
        for row in (0, 350, 650, 880):
            q = fp[row].astype(np.float64)
            pairs = [
                (fresh.statistical_query(q, 0.8),
                 old.statistical_query(q, 0.8)),
                (fresh.window_query(q - 12, q + 12),
                 old.window_query(q - 12, q + 12)),
            ]
            for epsilon in (0.0, 25.0):
                pairs.append((
                    fresh.range_query(q, epsilon), old.range_query(q, epsilon)
                ))
            for want, got in pairs:
                assert_bit_identical(got, want)
                assert stats_counts(got.stats) == stats_counts(want.stats)

    def test_bounds_sidecars_open_and_answer(self, tmp_path):
        fresh, old_dir = self.build_pair(tmp_path)
        old = SegmentedS3Index.open(old_dir)
        # Loaded as they are: opening rewrote neither file.
        assert old.segments[0].sketch == {"depth": 16, "block_rows": 4096}
        self.assert_same_answers(fresh, old)

        for index in (fresh, old):
            index.attach_storage(StorageConfig(cold_dir="cold"))
            index.storage.demote(index._segments[0])
            index.close()
        fresh = SegmentedS3Index.open(tmp_path / "fresh")
        old = SegmentedS3Index.open(old_dir)
        cold = old._segments[0]
        assert cold.meta.tier == "cold"
        sidecar = (old_dir / sketch_filename(cold.meta.name)).read_bytes()
        assert _HEADER.unpack_from(sidecar)[3] == 4096
        self.assert_same_answers(fresh, old)
        fresh.close()
        old.close()

        plans = [
            plan_cluster(tmp_path / d, tmp_path / f"c-{d}", 2, seal=True)
            for d in ("fresh", "old")
        ]
        for want, got in zip(*(p.shards for p in plans)):
            assert got.presence.depth == want.presence.depth
            assert np.array_equal(got.presence.occupied, want.presence.occupied)
        # Replicas copy the sidecars verbatim, and open on them too.
        replica = tmp_path / "c-old" / plans[1].shards[0].replicas[0]
        SegmentedS3Index.open(replica).close()

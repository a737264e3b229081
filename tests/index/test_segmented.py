"""Tests for the segmented live index: WAL, manifest, compaction, LSM.

Includes the two acceptance properties of the subsystem:

* **crash recovery** — records added but never flushed survive a crash
  (simulated by abandoning the index object, appending torn bytes to the
  WAL, or both) and are fully restored by :meth:`SegmentedS3Index.open`;
* **monolithic equivalence** — for any split of a corpus into segments
  (plus a memtable remainder), statistical and ε-range queries return
  exactly the result set of a monolithic :class:`S3Index` over the same
  records.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel
from repro.errors import ConfigurationError, IndexError_, WALError
from repro.index.s3 import S3Index
from repro.index.segmented import (
    CompactionPolicy,
    Manifest,
    SegmentedQueryStats,
    SegmentedS3Index,
    SegmentMeta,
    WriteAheadLog,
    replay,
)
from repro.index.store import FingerprintStore

NDIMS = 8
SIGMA = 10.0


def make_records(n, seed=0, ndims=NDIMS):
    rng = np.random.default_rng(seed)
    centers = rng.integers(40, 216, size=(max(n // 100, 4), ndims))
    assign = rng.integers(0, centers.shape[0], size=n)
    fp = np.clip(
        centers[assign] + rng.normal(0, 10, (n, ndims)), 0, 255
    ).astype(np.uint8)
    ids = rng.integers(0, 50, n).astype(np.uint32)
    tcs = rng.uniform(0, 500, n)
    return fp, ids, tcs


def result_key(result):
    return sorted(zip(
        result.ids.tolist(),
        result.timecodes.tolist(),
        [tuple(fp) for fp in result.fingerprints.tolist()],
    ))


# ----------------------------------------------------------------------
class TestWAL:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path, NDIMS)
        batches = [make_records(n, seed=n) for n in (5, 1, 17)]
        for fp, ids, tcs in batches:
            assert wal.append(fp, ids, tcs) == len(ids)
        wal.close()
        recovered = replay(path)
        assert len(recovered) == 3
        for (fp, ids, tcs), (rfp, rids, rtcs) in zip(batches, recovered):
            assert np.array_equal(fp, rfp)
            assert np.array_equal(ids, rids)
            assert np.array_equal(tcs, rtcs)

    def test_empty_batch_is_noop(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog.create(path, NDIMS) as wal:
            added = wal.append(
                np.empty((0, NDIMS), dtype=np.uint8),
                np.empty(0, dtype=np.uint32),
                np.empty(0, dtype=np.float64),
            )
        assert added == 0
        assert replay(path) == []

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog.create(path, NDIMS) as wal:
            fp, ids, tcs = make_records(7, seed=1)
            wal.append(fp, ids, tcs)
        # A crash mid-append: record header + half a payload.
        with open(path, "ab") as fh:
            fh.write(b"\x03\x00\x00\x00" + b"\xab" * 10)
        recovered = replay(path)
        assert len(recovered) == 1
        assert np.array_equal(recovered[0][0], fp)

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog.create(path, NDIMS) as wal:
            wal.append(*make_records(4, seed=2))
            wal.append(*make_records(4, seed=3))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a byte in the last record's payload
        path.write_bytes(raw)
        assert len(replay(path)) == 1

    def test_open_truncates_tail_and_appends(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog.create(path, NDIMS) as wal:
            wal.append(*make_records(4, seed=2))
        with open(path, "ab") as fh:
            fh.write(b"torn")
        with WriteAheadLog.open(path) as wal:
            wal.append(*make_records(6, seed=3))
        recovered = replay(path)
        assert [len(r[1]) for r in recovered] == [4, 6]

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(WALError):
            replay(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(WALError):
            replay(tmp_path / "missing.log")

    def test_rejects_wrong_dimension(self, tmp_path):
        with WriteAheadLog.create(tmp_path / "wal.log", NDIMS) as wal:
            fp, ids, tcs = make_records(3, seed=1, ndims=NDIMS + 1)
            with pytest.raises(WALError):
                wal.append(fp, ids, tcs)


# ----------------------------------------------------------------------
class TestManifest:
    def test_save_load_roundtrip(self, tmp_path):
        manifest = Manifest(
            ndims=20, order=8, key_levels=2, depth=18, sigma=20.0,
            next_seq=5, wal="wal-000004.log",
            segments=[SegmentMeta("seg-000001", 100),
                      SegmentMeta("seg-000003", 250)],
        )
        manifest.save(tmp_path)
        loaded = Manifest.load(tmp_path)
        assert loaded == manifest
        assert not list(tmp_path.glob("*.tmp"))  # atomic rewrite cleaned up

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(IndexError_):
            Manifest.load(tmp_path)

    def test_load_corrupt_raises(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text("{not json")
        with pytest.raises(IndexError_):
            Manifest.load(tmp_path)

    def test_load_bad_format_raises(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text('{"format": 99}')
        with pytest.raises(IndexError_):
            Manifest.load(tmp_path)


# ----------------------------------------------------------------------
class TestCompactionPolicy:
    def test_under_cap_is_noop(self):
        policy = CompactionPolicy(max_segments=4)
        assert policy.plan([100, 200, 300, 400]) == []

    def test_over_cap_merges_smallest(self):
        policy = CompactionPolicy(max_segments=3)
        # 5 segments -> merge the 3 smallest to land at 3.
        assert policy.plan([500, 10, 400, 20, 30]) == [1, 3, 4]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            CompactionPolicy(max_segments=0)


# ----------------------------------------------------------------------
def make_index(directory, **overrides):
    kwargs = dict(
        ndims=NDIMS,
        depth=14,
        model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=100_000,
        auto_compact=False,
    )
    kwargs.update(overrides)
    return SegmentedS3Index.create(directory, **kwargs)


class TestLifecycle:
    def test_create_rejects_existing_directory(self, tmp_path):
        make_index(tmp_path / "idx").close()
        with pytest.raises(IndexError_):
            make_index(tmp_path / "idx")

    def test_create_validates_parameters(self, tmp_path):
        with pytest.raises(ConfigurationError):
            make_index(tmp_path / "a", depth=0)
        with pytest.raises(ConfigurationError):
            make_index(tmp_path / "b", depth=99)
        with pytest.raises(ConfigurationError):
            make_index(tmp_path / "c", model=NormalDistortionModel(4, 5.0))
        with pytest.raises(ConfigurationError):
            make_index(tmp_path / "d", flush_rows=0)

    def test_open_non_index_raises(self, tmp_path):
        with pytest.raises(IndexError_):
            SegmentedS3Index.open(tmp_path)

    def test_auto_flush_on_threshold(self, tmp_path):
        index = make_index(tmp_path / "idx", flush_rows=100)
        for i in range(5):
            index.add(*make_records(40, seed=i))
        # The memtable seals at 120 rows (3 batches); 80 stay pending.
        assert index.num_segments == 1
        assert index.pending_rows == 80
        assert len(index) == 200
        index.add(*make_records(40, seed=5))
        assert index.num_segments == 2
        assert index.pending_rows == 0
        index.close()

    def test_flush_empty_memtable_is_noop(self, tmp_path):
        index = make_index(tmp_path / "idx")
        assert index.flush() is None
        index.close()

    def test_record_spans_segments_and_memtable(self, tmp_path):
        index = make_index(tmp_path / "idx")
        fp, ids, tcs = make_records(30, seed=7)
        index.add(fp, ids, tcs)
        index.flush()
        fp2, ids2, tcs2 = make_records(10, seed=8)
        index.add(fp2, ids2, tcs2)
        # Sealed rows are curve-sorted; memtable rows keep arrival order.
        got_fp, got_id, got_tc = index.record(32)
        assert got_id == ids2[2]
        assert got_tc == pytest.approx(tcs2[2])
        assert np.array_equal(got_fp, fp2[2])
        with pytest.raises(ConfigurationError):
            index.record(40)
        index.close()

    def test_mmap_opened_segments_are_file_backed(self, tmp_path):
        index = make_index(tmp_path / "idx")
        index.add(*make_records(300, seed=9))
        index.flush()
        index.close()
        reopened = SegmentedS3Index.open(tmp_path / "idx", mmap=True)
        try:
            assert reopened.num_segments >= 1
            for seg in reopened._segments:
                # Curve-ordered on disk, so index construction keeps the
                # mapping instead of copying the columns into RAM.
                assert isinstance(seg.index.store.fingerprints, np.memmap)
        finally:
            reopened.close()


class TestCrashRecovery:
    def test_unflushed_records_survive_reopen(self, tmp_path):
        """Kill after `add` but before flush -> WAL replay restores all."""
        directory = tmp_path / "idx"
        index = make_index(directory)
        sealed = make_records(120, seed=1)
        index.add(*sealed)
        index.flush()
        pending = [make_records(n, seed=10 + n) for n in (25, 3, 60)]
        for batch in pending:
            index.add(*batch)
        # Simulated crash: the object is abandoned without flush/close.
        del index

        reopened = SegmentedS3Index.open(directory)
        assert reopened.num_segments == 1
        assert reopened.pending_rows == 25 + 3 + 60
        assert len(reopened) == 120 + 88
        # Every pending record is queryable at distance zero.
        for fp, ids, tcs in pending:
            result = reopened.range_query(fp[0].astype(np.float64), 0.0)
            assert len(result) >= 1
        reopened.close()

    def test_reopen_with_torn_wal_tail(self, tmp_path):
        directory = tmp_path / "idx"
        index = make_index(directory)
        batch = make_records(40, seed=3)
        index.add(*batch)
        wal_path = directory / index.manifest.wal
        index.close()
        with open(wal_path, "ab") as fh:
            fh.write(b"\x05\x00\x00\x00 torn half-record")

        reopened = SegmentedS3Index.open(directory)
        assert reopened.pending_rows == 40
        # The torn tail was truncated: appending + reopening still works.
        reopened.add(*make_records(5, seed=4))
        reopened.close()
        again = SegmentedS3Index.open(directory)
        assert again.pending_rows == 45
        again.close()

    def test_orphan_files_are_collected(self, tmp_path):
        directory = tmp_path / "idx"
        index = make_index(directory)
        index.add(*make_records(50, seed=5))
        index.flush()
        index.close()
        # A crash mid-compaction leaves an unreferenced segment + wal.
        orphan_seg = directory / "seg-999999.store"
        orphan_wal = directory / "wal-999999.log"
        orphan_tmp = directory / "MANIFEST.json.tmp"
        FingerprintStore(*make_records(10, seed=6)).save(orphan_seg)
        orphan_wal.write_bytes(b"junk")
        orphan_tmp.write_text("{}")

        reopened = SegmentedS3Index.open(directory)
        assert not orphan_seg.exists()
        assert not orphan_wal.exists()
        assert not orphan_tmp.exists()
        assert len(reopened) == 50
        reopened.close()

    def test_segment_manifest_mismatch_raises(self, tmp_path):
        directory = tmp_path / "idx"
        index = make_index(directory)
        index.add(*make_records(50, seed=5))
        index.flush()
        name = index.manifest.segments[0].name
        index.close()
        FingerprintStore(*make_records(10, seed=6)).save(
            directory / (name + ".store")
        )
        with pytest.raises(IndexError_):
            SegmentedS3Index.open(directory)


class TestCompaction:
    def test_force_merges_everything(self, tmp_path):
        index = make_index(tmp_path / "idx")
        for i in range(4):
            index.add(*make_records(50, seed=i))
            index.flush()
        assert index.num_segments == 4
        result = index.compact(force=True)
        assert result.merged_segments == 4
        assert result.merged_rows == 200
        assert index.num_segments == 1
        assert len(index) == 200
        # Old segment files are gone; the new one is loadable.
        stores = sorted(p.name for p in (tmp_path / "idx").glob("*.store"))
        assert stores == [result.segment_name + ".store"]
        index.close()

    def test_policy_keeps_segment_count_bounded(self, tmp_path):
        index = make_index(
            tmp_path / "idx", flush_rows=50,
            policy=CompactionPolicy(max_segments=3), auto_compact=True,
        )
        for i in range(12):
            index.add(*make_records(50, seed=i))
        assert index.num_segments <= 3
        assert len(index) == 600
        index.close()

    def test_compaction_preserves_results(self, tmp_path):
        index = make_index(tmp_path / "idx")
        batches = [make_records(80, seed=i) for i in range(3)]
        for batch in batches:
            index.add(*batch)
            index.flush()
        query = batches[1][0][11].astype(np.float64)
        before = result_key(index.statistical_query(query, 0.8))
        index.compact(force=True)
        after = result_key(index.statistical_query(query, 0.8))
        assert before == after
        assert SegmentedS3Index.open(tmp_path / "idx").num_segments == 1
        index.close()

    def test_nothing_to_compact_returns_none(self, tmp_path):
        index = make_index(tmp_path / "idx")
        index.add(*make_records(30, seed=1))
        index.flush()
        assert index.compact() is None
        assert index.compact(force=True) is None  # single segment
        index.close()


class TestQueries:
    def test_empty_index_returns_empty(self, tmp_path):
        index = make_index(tmp_path / "idx")
        result = index.statistical_query(np.full(NDIMS, 128.0), 0.8)
        assert len(result) == 0
        result = index.range_query(np.full(NDIMS, 128.0), 30.0)
        assert len(result) == 0
        assert result.distances.size == 0
        index.close()

    def test_stats_aggregate_per_segment(self, tmp_path):
        index = make_index(tmp_path / "idx")
        for i in range(2):
            index.add(*make_records(200, seed=i))
            index.flush()
        index.add(*make_records(40, seed=9))
        fp, _, _ = make_records(1, seed=0)
        result = index.statistical_query(fp[0].astype(np.float64), 0.8)
        stats = result.stats
        assert isinstance(stats, SegmentedQueryStats)
        assert stats.segments_scanned == 2
        assert stats.memtable_rows_scanned == 40
        # A statistical query returns every row it scans: the sealed
        # rows of its result, plus every memtable row.
        assert stats.rows_scanned == int((result.rows < 400).sum()) + 40
        assert stats.results == len(result)
        assert stats.blocks_selected > 0
        index.close()

    def test_missing_model_raises(self, tmp_path):
        index = make_index(tmp_path / "idx", model=None)
        index.add(*make_records(20, seed=1))
        with pytest.raises(ConfigurationError):
            index.statistical_query(np.full(NDIMS, 128.0), 0.8)
        result = index.statistical_query(
            np.full(NDIMS, 128.0), 0.8,
            model=NormalDistortionModel(NDIMS, SIGMA),
        )
        assert result.stats.blocks_selected > 0
        index.close()

    def test_model_rebuilt_from_manifest_on_open(self, tmp_path):
        index = make_index(tmp_path / "idx")
        index.add(*make_records(20, seed=1))
        index.close()
        reopened = SegmentedS3Index.open(tmp_path / "idx")
        assert reopened.model is not None
        assert reopened.model.sigma == pytest.approx(SIGMA)
        reopened.close()

    def test_depth_override_validated(self, tmp_path):
        index = make_index(tmp_path / "idx")
        index.add(*make_records(20, seed=1))
        with pytest.raises(ConfigurationError):
            index.statistical_query(np.full(NDIMS, 128.0), 0.8, depth=99)
        index.close()


# ----------------------------------------------------------------------
class TestMonolithicEquivalence:
    """Property: any segmentation answers exactly like one S3Index."""

    CORPUS = make_records(1200, seed=42)
    DEPTH = 12

    def build_pair(self, tmp_path, cuts, flush_last):
        fp, ids, tcs = self.CORPUS
        model = NormalDistortionModel(NDIMS, SIGMA)
        mono = S3Index(
            FingerprintStore(fp, ids, tcs), depth=self.DEPTH, model=model
        )
        seg = SegmentedS3Index.create(
            tmp_path, ndims=NDIMS, depth=self.DEPTH, model=model,
            flush_rows=10**9, auto_compact=False,
        )
        bounds = [0, *sorted(cuts), len(ids)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                seg.add(fp[lo:hi], ids[lo:hi], tcs[lo:hi])
                if hi != len(ids) or flush_last:
                    seg.flush()
        return mono, seg

    @given(
        cuts=st.lists(
            st.integers(min_value=1, max_value=1199),
            min_size=0, max_size=5,
        ),
        flush_last=st.booleans(),
        query_row=st.integers(min_value=0, max_value=1199),
        alpha=st.sampled_from([0.5, 0.8, 0.95]),
    )
    @settings(max_examples=12, deadline=None)
    def test_statistical_and_range_equivalence(
        self, tmp_path_factory, cuts, flush_last, query_row, alpha
    ):
        tmp = tmp_path_factory.mktemp("equiv")
        mono, seg = self.build_pair(tmp / "seg", cuts, flush_last)
        fp, _, _ = self.CORPUS
        query = fp[query_row].astype(np.float64)

        a = mono.statistical_query(query, alpha)
        b = seg.statistical_query(query, alpha)
        assert result_key(a) == result_key(b)
        assert len(a) >= 1  # the planted row itself is always retrieved

        epsilon = 20.0
        ra = mono.range_query(query, epsilon)
        rb = seg.range_query(query, epsilon)
        assert result_key(ra) == result_key(rb)
        assert np.sort(ra.distances).tolist() == pytest.approx(
            np.sort(rb.distances).tolist()
        )
        seg.close()

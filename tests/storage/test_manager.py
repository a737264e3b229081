"""Tier manager tests: demotion, budgets, GC, sidecars."""

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.errors import ColdFetchError, StorageError
from repro.index.batch import BatchQueryExecutor
from repro.index.options import QueryOptions
from repro.index.segmented import SegmentedS3Index
from repro.index.segmented.sketch import sketch_filename
from repro.storage import (
    BLOB_SUFFIX,
    FakeBlobBackend,
    FileBlobBackend,
    StorageConfig,
    keys_filename,
    row_bytes,
)

NDIMS = 8
SIGMA = 12.0


def make_records(n, seed=0):
    rng = np.random.default_rng(seed)
    fp = rng.integers(0, 256, size=(n, NDIMS), dtype=np.uint8)
    ids = rng.integers(0, 50, n).astype(np.uint32)
    tcs = rng.uniform(0, 500, n)
    return fp, ids, tcs


def make_tiered(directory, num_segments=3, rows=400, budget=None,
                backend=None):
    backend = backend if backend is not None else FakeBlobBackend()
    index = SegmentedS3Index.create(
        directory,
        ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=10 ** 9,
        auto_compact=False,
        storage=StorageConfig(budget_bytes=budget, backend=backend),
    )
    batches = []
    for i in range(num_segments):
        batch = make_records(rows, seed=i)
        index.add(*batch)
        index.flush()
        batches.append(batch)
    return index, backend, batches


class TestStorageConfig:
    def test_validation(self):
        with pytest.raises(StorageError):
            StorageConfig(budget_bytes=-1)
        with pytest.raises(StorageError):
            StorageConfig(promote_after=0)

    def test_manifest_roundtrip(self):
        config = StorageConfig(
            budget_bytes=1234, cold_dir="icy", promote_after=5
        )
        block = config.to_manifest()
        assert block == {"budget_bytes": 1234, "cold_dir": "icy"}
        again = StorageConfig.from_manifest(block)
        assert again.budget_bytes == 1234
        assert again.cold_dir == "icy"

    def test_old_manifest_with_promote_after_opens(self, tmp_path):
        """A directory written when the manifest still recorded
        ``promote_after`` opens with its budget and cold_dir, and the
        next manifest write drops the key."""
        directory = tmp_path / "idx"
        index = SegmentedS3Index.create(
            directory, ndims=NDIMS, model=NormalDistortionModel(NDIMS, SIGMA),
            flush_rows=10 ** 9, auto_compact=False,
            storage=StorageConfig(cold_dir="icy"),
        )
        index.add(*make_records(100, seed=0))
        index.flush()
        index.close()
        path = directory / "MANIFEST.json"
        payload = json.loads(path.read_text())
        budget = row_bytes(NDIMS) * 150
        payload["storage"] = {
            "budget_bytes": budget, "cold_dir": "icy", "promote_after": 5,
        }
        path.write_text(json.dumps(payload))

        reopened = SegmentedS3Index.open(directory)
        assert reopened.storage.budget_bytes == budget
        assert reopened.storage.cold_dir == directory / "icy"
        reopened.add(*make_records(100, seed=1))
        reopened.flush()  # rewrites the manifest; over budget, demotes
        assert [s.meta.tier for s in reopened._segments] == ["cold", "hot"]
        reopened.close()
        storage = json.loads(path.read_text())["storage"]
        assert storage == {"budget_bytes": budget, "cold_dir": "icy"}


class TestDemotion:
    def test_demote_moves_bytes_to_backend(self, tmp_path):
        index, backend, _ = make_tiered(tmp_path / "idx")
        seg = index._segments[0]
        name = seg.meta.name
        store_path = tmp_path / "idx" / (name + ".store")
        original = store_path.read_bytes()

        index.storage.demote(seg)

        assert backend.get(name) == original
        assert not store_path.exists()
        # Copy-on-write: the old Segment object is untouched (pinned
        # readers keep it); the *live* view carries the cold replacement.
        assert seg.index is not None and seg.cold is None
        live = index._segments[0]
        assert live.index is None and live.cold is not None
        assert live.meta.tier == "cold"
        # Sidecars stay resident: selection never touches the backend.
        assert (tmp_path / "idx" / sketch_filename(name)).is_file()
        assert (tmp_path / "idx" / keys_filename(name)).is_file()
        index.close()

    def test_budget_demotes_oldest_first(self, tmp_path):
        index, _, batches = make_tiered(tmp_path / "idx", num_segments=3)
        per_seg = index.storage.segment_bytes(index._segments[0])
        # Queries read the newest segment only; demotion order is the
        # manifest's, whatever was scanned.
        q = batches[2][0][3].astype(np.float64)
        for _ in range(3):
            index.statistical_query(q, alpha=0.8)
        index.storage.budget_bytes = 2 * per_seg
        assert index.storage.enforce_budget() == 1
        tiers = [s.meta.tier for s in index._segments]
        assert tiers == ["cold", "hot", "hot"]
        index.close()

    def test_budget_holds_once_flush_returns(self, tmp_path):
        index, _, _ = make_tiered(tmp_path / "idx", num_segments=1, rows=100)
        per_seg = index.storage.segment_bytes(index._segments[0])
        index.storage.budget_bytes = 2 * per_seg + per_seg // 2
        for i in range(1, 6):
            index.add(*make_records(100, seed=i))
            index.flush()
            assert index.storage.resident_bytes() <= 2 * per_seg + per_seg // 2
        tiers = [s.meta.tier for s in index._segments]
        assert tiers == ["cold"] * 4 + ["hot"] * 2
        index.close()

    def test_budget_holds_once_a_background_seal_completes(self, tmp_path):
        index, _, _ = make_tiered(tmp_path / "idx", num_segments=1, rows=100)
        per_seg = index.storage.segment_bytes(index._segments[0])
        index.storage.budget_bytes = per_seg
        index.flush_rows = 100
        worker = index.start_maintenance()
        try:
            for i in range(1, 5):
                index.add(*make_records(100, seed=i))
                assert worker.drain()
                assert worker.seals == i
                assert index.storage.resident_bytes() <= per_seg
        finally:
            index.close()
        assert [s.meta.tier for s in index._segments] == ["cold"] * 4 + ["hot"]

    def test_queries_identical_across_demotion(self, tmp_path):
        index, _, batches = make_tiered(tmp_path / "idx")
        q = batches[0][0][5].astype(np.float64)
        before = index.statistical_query(q, alpha=0.8)
        for seg in list(index._segments):
            index.storage.demote(seg)
        after = index.statistical_query(q, alpha=0.8)
        assert np.array_equal(np.sort(before.ids), np.sort(after.ids))
        assert np.array_equal(
            np.sort(before.timecodes), np.sort(after.timecodes)
        )
        index.close()

    def test_record_fetches_single_row_from_cold(self, tmp_path):
        index, backend, batches = make_tiered(tmp_path / "idx", rows=100)
        fp0, ids0, tcs0 = batches[0]
        index.storage.demote(index._segments[0])
        reads_before = backend.bytes_read
        fp, _id, _tc = index.record(7)
        # One row's columns, not the whole 100-row segment.
        assert backend.bytes_read - reads_before < 100
        # The row exists in the stored batch (physical order is
        # curve-sorted, so compare as a membership check).
        assert any(np.array_equal(fp, row) for row in fp0)
        index.close()


class TestCounters:
    def test_concurrent_fetches_count_exactly(self, tmp_path):
        """Prefetch workers update the counters beside query threads:
        8 threads x 200 fetches, 100 of them failing, lose no update."""
        index, backend, _ = make_tiered(tmp_path / "idx", rows=50)
        index.storage.demote(index._segments[0])
        seg = index._segments[0]
        backend.fail_reads = 100
        before = index.storage.stats.snapshot()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt as often as possible

        def worker():
            for _ in range(200):
                try:
                    index.storage.fetch_ranges(seg, [(0, 3), (10, 12)])
                except ColdFetchError:
                    pass

        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        after = index.storage.stats.snapshot()
        moved = {k: after[k] - before[k] for k in after}
        assert moved["cold_errors"] == 100
        assert moved["fetches"] == 1600 - 100
        assert moved["fetch_rows"] == 5 * 1500
        assert moved["fetch_bytes"] == 5 * 1500 * row_bytes(NDIMS)
        index.close()


def truncate(path, keep=0.5):
    """Cut a file to *keep* of its size: every column past the cut is torn."""
    os.truncate(path, int(path.stat().st_size * keep))


class TestTornData:
    @pytest.mark.parametrize("prefilter", ["auto", "off"])
    def test_truncated_blob_raises_on_a_real_file(self, tmp_path, prefilter):
        index, backend, batches = make_tiered(
            tmp_path / "idx", backend=FileBlobBackend(tmp_path / "cold"),
        )
        name = index._segments[0].meta.name
        index.storage.demote(index._segments[0])
        queries = batches[0][0][:6].astype(np.float64)
        engine = BatchQueryExecutor(
            index, options=QueryOptions(alpha=0.8, prefilter=prefilter)
        )
        engine.query_batch(queries)
        assert engine.stats.cold_rows > 0  # the batch does read the blob

        truncate(tmp_path / "cold" / (name + BLOB_SUFFIX))
        errors = index.storage.stats.cold_errors
        with pytest.raises(ColdFetchError) as err:
            engine.query_batch(queries)
        assert err.value.segment == name
        assert index.storage.stats.cold_errors == errors + 1
        with pytest.raises(ColdFetchError):  # the solo path too
            index.statistical_query(queries[0], alpha=0.8)
        index.close()

    def test_torn_multi_span_reply_never_answers(self, tmp_path):
        index, backend, batches = make_tiered(tmp_path / "idx")
        index.storage.demote(index._segments[0])
        queries = batches[0][0][:6].astype(np.float64)
        engine = BatchQueryExecutor(index, options=QueryOptions(alpha=0.8))
        want = engine.query_batch(queries)
        assert engine.stats.cold_rows > 0

        backend.torn_reads = 1
        with pytest.raises(ColdFetchError, match="torn read"):
            engine.query_batch(queries)
        assert backend.torn_reads == 0
        for got, ref in zip(engine.query_batch(queries), want, strict=True):
            assert np.array_equal(got.rows, ref.rows)
            assert np.array_equal(got.fingerprints, ref.fingerprints)
        index.close()


class TestReopenAndGC:
    def test_reopen_never_fetches_cold_stores(self, tmp_path):
        index, backend, batches = make_tiered(tmp_path / "idx")
        for seg in list(index._segments):
            index.storage.demote(seg)
        index.close()

        gets_before = (backend.gets, backend.range_gets)
        reopened = SegmentedS3Index.open(
            tmp_path / "idx", storage=StorageConfig(backend=backend),
        )
        # Rebuild-on-open works from sidecars alone.
        assert (backend.gets, backend.range_gets) == gets_before
        assert all(s.meta.tier == "cold" for s in reopened._segments)

        q = batches[1][0][2].astype(np.float64)
        result = reopened.statistical_query(q, alpha=0.8)
        assert len(result) >= 1
        reopened.close()

    def test_orphan_blob_gc_keeps_manifest_references(self, tmp_path):
        index, backend, _ = make_tiered(tmp_path / "idx", num_segments=2)
        index.storage.demote(index._segments[0])
        live = index._segments[0].meta.name
        backend.put("seg-999999", b"junk from a crashed demotion")
        index.storage.collect_orphan_blobs()
        assert backend.exists(live)
        assert not backend.exists("seg-999999")
        index.close()

    def test_compaction_discards_input_blobs(self, tmp_path):
        index, backend, _ = make_tiered(tmp_path / "idx", num_segments=3)
        index.storage.demote(index._segments[0])
        old = [s.meta.name for s in index._segments]
        result = index.compact(force=True)
        assert result is not None
        for name in old:
            assert not backend.exists(name)
        assert len(index) == 3 * 400
        index.close()

    def test_open_cold_without_config_raises(self, tmp_path):
        index, backend, _ = make_tiered(tmp_path / "idx")
        index.storage.demote(index._segments[0])
        index.close()
        with pytest.raises(StorageError):
            SegmentedS3Index.open(tmp_path / "idx")

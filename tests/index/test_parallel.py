"""Tests for process-parallel zero-copy scanning (:mod:`repro.index.parallel`).

The contract under test: every executor strategy — serial, threads,
processes — produces **bit-identical** results to the sequential
per-query path started from the same warm-start cache state, on both
index kinds; no fingerprint bytes ever cross a pipe; and a SIGKILLed
worker is healed without changing any result.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel
from repro.index.batch import BatchQueryExecutor
from repro.index.parallel import (
    MONOLITHIC_STORE,
    ParallelScanError,
    ProcessScanPool,
    ScanArena,
    can_process_scan,
    segment_store_name,
    shared_memory_available,
    split_row_ranges,
)
from repro.index.options import QueryOptions
from repro.index.s3 import S3Index
from repro.index.segmented import SegmentedS3Index
from repro.index.store import FingerprintStore

NDIMS = 8
SIGMA = 10.0
ALPHA = 0.8

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing shared memory unavailable",
)


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
    return (
        result.rows.tolist(),
        result.ids.tolist(),
        result.timecodes.tolist(),
        result.fingerprints.tobytes(),
    )


def make_queries(fp, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, fp.shape[0], n)
    q = np.clip(
        fp[rows].astype(np.float64) + rng.normal(0, 4.0, (n, NDIMS)),
        0.0, 255.0,
    )
    if n >= 3:
        q[0] = q[n - 1]  # duplicates in the batch
    return q


def make_executor(index, **kwargs):
    """Build an executor, silencing the 1-CPU oversubscription warning."""
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("parallel_gather_min_rows", 0)
    options = QueryOptions(alpha=ALPHA, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return BatchQueryExecutor(index, options=options)


# ----------------------------------------------------------------------
class TestSplitRowRanges:
    def test_empty(self):
        assert split_row_ranges([], 4) == []
        assert split_row_ranges([(5, 5)], 4) == []

    def test_single_range_split(self):
        chunks = split_row_ranges([(0, 10)], 3)
        assert [c for _, c in chunks] == [[(0, 3)], [(3, 6)], [(6, 10)]]
        assert [off for off, _ in chunks] == [0, 3, 6]

    def test_boundary_inside_a_range(self):
        chunks = split_row_ranges([(0, 2), (10, 14)], 2)
        assert chunks == [(0, [(0, 2), (10, 11)]), (3, [(11, 14)])]

    @given(
        raw=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=300),
                st.integers(min_value=1, max_value=40),
            ),
            min_size=0, max_size=10,
        ),
        parts=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_concatenation_reproduces_input(self, raw, parts):
        # Build sorted, disjoint ranges the way block_row_ranges does.
        ranges = []
        pos = 0
        for gap, ln in sorted(raw):
            s = max(pos, gap)
            ranges.append((s, s + ln))
            pos = s + ln
        chunks = split_row_ranges(ranges, parts)
        assert len(chunks) <= parts
        want = [r for s, e in ranges for r in range(s, e)]
        got = []
        for offset, chunk in chunks:
            assert offset == len(got)
            for s, e in chunk:
                assert s < e
                got.extend(range(s, e))
        assert got == want


# ----------------------------------------------------------------------
class TestStoreSharing:
    def make_store(self, n=300):
        fp, ids, tcs = make_records(n, seed=11)
        return FingerprintStore(fp, ids, tcs)

    def assert_same(self, a, b):
        assert np.array_equal(a.fingerprints, b.fingerprints)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.timecodes, b.timecodes)

    def test_file_handle_round_trip(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "store.s3fp"
        store.save(path)
        loaded = FingerprintStore.load(path, mmap=True)
        handle = loaded.shared_handle
        assert handle is not None and handle.kind == "file"
        attached = FingerprintStore.open_shared(handle)
        self.assert_same(store, attached)

    @needs_shm
    def test_shm_handle_round_trip(self):
        store = self.make_store()
        assert store.shared_handle is None  # plain in-RAM store
        shared, shm = store.to_shared()
        try:
            handle = shared.shared_handle
            assert handle is not None and handle.kind == "shm"
            attached = FingerprintStore.open_shared(handle)
            self.assert_same(store, attached)
            self.assert_same(store, shared)
        finally:
            shm.close()
            shm.unlink()

    def test_can_process_scan(self, tmp_path):
        store = self.make_store()
        assert not can_process_scan([])
        path = tmp_path / "s.s3fp"
        store.save(path)
        mapped = FingerprintStore.load(path, mmap=True)
        assert can_process_scan([mapped])
        assert can_process_scan([store]) == shared_memory_available()


# ----------------------------------------------------------------------
@needs_shm
class TestProcessScanPool:
    @pytest.fixture(scope="class")
    def store(self):
        fp, ids, tcs = make_records(2000, seed=3)
        return FingerprintStore(fp, ids, tcs)

    @pytest.fixture(scope="class")
    def pool(self, store):
        with ProcessScanPool({MONOLITHIC_STORE: store}, workers=2) as pool:
            yield pool

    def test_validation(self, store):
        with pytest.raises(ParallelScanError):
            ProcessScanPool({}, workers=1)
        with pytest.raises(ParallelScanError):
            ProcessScanPool({MONOLITHIC_STORE: store}, workers=0)
        fp, ids, tcs = make_records(50, seed=1, ndims=4)
        other = FingerprintStore(fp, ids, tcs)
        with pytest.raises(ParallelScanError):
            ProcessScanPool({"a": store, "b": other}, workers=1)

    @given(
        raw=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1900),
                st.integers(min_value=1, max_value=120),
            ),
            min_size=0, max_size=6,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_scan_union_equals_serial_gather(self, pool, store, raw):
        ranges = []
        pos = 0
        for s, ln in sorted(raw):
            s = max(pos, s)
            e = min(s + ln, len(store))
            if s < e:
                ranges.append((s, e))
                pos = e
        total = sum(e - s for s, e in ranges)
        rows = (
            np.concatenate([np.arange(s, e) for s, e in ranges])
            if ranges else np.empty(0, dtype=np.int64)
        )
        with pool.scan_union(MONOLITHIC_STORE, ranges) as arena:
            ids, tcs, fps = arena.columns(0)
            assert fps.shape == (total, NDIMS)
            assert np.array_equal(fps, store.fingerprints[rows])
            assert np.array_equal(ids, store.ids[rows])
            assert np.array_equal(tcs, store.timecodes[rows])

    def test_scan_stores_multi_item(self, pool, store):
        items = [
            (MONOLITHIC_STORE, [(0, 100), (500, 600)]),
            (MONOLITHIC_STORE, []),
            (MONOLITHIC_STORE, [(1500, 2000)]),
        ]
        with pool.scan_stores(items) as arena:
            for i, (_, ranges) in enumerate(items):
                rows = (
                    np.concatenate([np.arange(s, e) for s, e in ranges])
                    if ranges else np.empty(0, dtype=np.int64)
                )
                ids, tcs, fps = arena.columns(i)
                assert np.array_equal(fps, store.fingerprints[rows])
                assert np.array_equal(ids, store.ids[rows])
                assert np.array_equal(tcs, store.timecodes[rows])

    def test_zero_copy_transport(self, pool):
        stats = pool.stats
        assert stats.scans > 0
        assert stats.fingerprint_bytes_serialized == 0
        assert stats.bytes_sent > 0
        assert stats.bytes_received > 0

    def test_killed_worker_healed(self, store):
        with ProcessScanPool({MONOLITHIC_STORE: store}, workers=2) as pool:
            ranges = [(0, len(store))]
            with pool.scan_union(MONOLITHIC_STORE, ranges) as arena:
                ids0, tcs0, fps0 = arena.columns(0)
                before = (
                    fps0.tobytes(), ids0.tobytes(), tcs0.tobytes()
                )
            pool.kill_worker(0)
            with pool.scan_union(MONOLITHIC_STORE, ranges) as arena:
                ids1, tcs1, fps1 = arena.columns(0)
                after = (
                    fps1.tobytes(), ids1.tobytes(), tcs1.tobytes()
                )
            assert after == before
            assert pool.stats.worker_deaths >= 1
            assert pool.stats.fingerprint_bytes_serialized == 0

    def test_closed_pool_rejects_scans(self, store):
        pool = ProcessScanPool({MONOLITHIC_STORE: store}, workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ParallelScanError):
            pool.scan_union(MONOLITHIC_STORE, [(0, 10)])

    def test_arena_close_is_idempotent(self, pool):
        arena = pool.scan_union(MONOLITHIC_STORE, [(0, 5)])
        assert isinstance(arena, ScanArena)
        arena.close()
        arena.close()


# ----------------------------------------------------------------------
class TestExecutorResolution:
    @pytest.fixture()
    def index(self):
        fp, ids, tcs = make_records(1000, seed=5)
        return S3Index(
            FingerprintStore(fp, ids, tcs),
            model=NormalDistortionModel(NDIMS, SIGMA),
        )

    def test_threads_is_explicit(self, index):
        ex = make_executor(index, executor="threads")
        assert ex.resolve_executor() == "threads"

    def test_processes_is_explicit(self, index):
        ex = make_executor(index, executor="processes")
        assert ex.resolve_executor() == "processes"

    def test_auto_needs_workers(self, index, monkeypatch):
        monkeypatch.setattr(
            "repro.index.batch.PROCESS_EXECUTOR_MIN_ROWS", 100
        )
        ex = make_executor(index, workers=1, executor="auto")
        assert ex.resolve_executor() == "threads"

    def test_auto_needs_rows(self, index):
        # The fixture index is far below PROCESS_EXECUTOR_MIN_ROWS.
        ex = make_executor(index, executor="auto")
        assert ex.resolve_executor() == "threads"

    @needs_shm
    def test_auto_picks_processes_at_scale(self, index, monkeypatch):
        # The fixed-threshold rule (the measured planner's fallback and
        # the planner="fixed" opt-out) still promotes to processes at
        # scale; the measured decision is covered in test_planner.py.
        monkeypatch.setattr(
            "repro.index.batch.PROCESS_EXECUTOR_MIN_ROWS", 100
        )
        # Lift the core gate so the scale decision is what's under test,
        # host-independently.
        monkeypatch.setattr("repro.index.batch.PROCESS_EXECUTOR_MIN_CPUS", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ex = BatchQueryExecutor(index, options=QueryOptions(
                alpha=ALPHA, workers=2, parallel_gather_min_rows=0,
                executor="auto", planner="fixed",
            ))
        assert ex.resolve_executor() == "processes"

    def test_auto_never_picks_processes_on_tiny_hosts(
        self, index, monkeypatch
    ):
        # BENCH_parallel_scan: the pool is 0.67-0.86x vs threads when its
        # shards contend for 1-2 cores, so auto must stay on threads there
        # even when every other condition favours processes.
        monkeypatch.setattr(
            "repro.index.batch.PROCESS_EXECUTOR_MIN_ROWS", 100
        )
        monkeypatch.setattr("repro.index.batch.os.cpu_count", lambda: 2)
        ex = make_executor(index, executor="auto")
        assert ex.resolve_executor() == "threads"

    def test_oversubscription_warns(self, index):
        cpus = os.cpu_count()
        if cpus is None:
            pytest.skip("cpu count unknown")
        with pytest.warns(RuntimeWarning, match="exceeds os.cpu_count"):
            BatchQueryExecutor(
                index, options=QueryOptions(alpha=ALPHA, workers=cpus + 1)
            )

    @needs_shm
    def test_runtime_failure_falls_back_to_threads(self, index):
        with make_executor(index, executor="processes") as ex:
            queries = make_queries(index.store.fingerprints, 4, seed=9)
            index.reset_threshold_cache()
            want = [result_key(r) for r in ex.query_batch(queries)]
            # Sabotage the pool: close it behind the executor's back so
            # the next batch hits ParallelScanError mid-flight.
            ex._ensure_pool().close()
            index.reset_threshold_cache()
            with pytest.warns(RuntimeWarning, match="retrying batch"):
                got = [result_key(r) for r in ex.query_batch(queries)]
            assert got == want
            assert ex.resolve_executor() == "threads"


# ----------------------------------------------------------------------
@needs_shm
class TestMonolithicEquivalence:
    N = 4000

    @pytest.fixture(scope="class")
    def index(self):
        fp, ids, tcs = make_records(self.N, seed=7)
        return S3Index(
            FingerprintStore(fp, ids, tcs),
            model=NormalDistortionModel(NDIMS, SIGMA),
        )

    @pytest.fixture(scope="class")
    def executors(self, index):
        with make_executor(index, executor="processes") as procs, \
                make_executor(index, executor="threads") as threads:
            yield {"processes": procs, "threads": threads}

    @given(
        n=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=12, deadline=None)
    def test_all_strategies_bit_identical(self, index, executors, n, seed):
        queries = make_queries(index.store.fingerprints, n, seed)
        keys = {}
        for name, ex in executors.items():
            index.reset_threshold_cache()
            keys[name] = [result_key(r) for r in ex.query_batch(queries)]
        assert keys["processes"] == keys["threads"]
        for i in range(n):
            index.reset_threshold_cache()
            solo = index.statistical_query(queries[i], ALPHA)
            assert result_key(solo) == keys["processes"][i]

    def test_zero_fingerprint_bytes_serialized(self, index, executors):
        stats = executors["processes"].pool_stats()
        assert stats is not None
        assert stats["scans"] > 0
        assert stats["fingerprint_bytes_serialized"] == 0

    def test_worker_death_mid_workload(self, index):
        with make_executor(index, executor="processes") as ex:
            queries = make_queries(index.store.fingerprints, 6, seed=31)
            index.reset_threshold_cache()
            want = [result_key(r) for r in ex.query_batch(queries)]
            ex._ensure_pool().kill_worker(0)
            index.reset_threshold_cache()
            got = [result_key(r) for r in ex.query_batch(queries)]
            assert got == want
            stats = ex.pool_stats()
            assert stats["worker_deaths"] >= 1
            assert stats["fingerprint_bytes_serialized"] == 0


# ----------------------------------------------------------------------
@needs_shm
class TestSegmentedEquivalence:
    N = 3000

    def build(self, root, cuts, leave_pending=True):
        fp, ids, tcs = make_records(self.N, seed=21)
        seg = SegmentedS3Index.create(
            root, ndims=NDIMS,
            model=NormalDistortionModel(NDIMS, SIGMA),
            flush_rows=10**9, auto_compact=False, sync=False,
        )
        bounds = [0, *sorted(cuts), self.N]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                seg.add(fp[lo:hi], ids[lo:hi], tcs[lo:hi])
                if not (leave_pending and hi == self.N):
                    seg.flush()
        return seg, fp

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("parallel-seg") / "seg"
        seg, fp = self.build(root, cuts=[900, 1800], leave_pending=True)
        with make_executor(seg, executor="processes") as procs, \
                make_executor(seg, executor="threads") as threads:
            yield seg, fp, {"processes": procs, "threads": threads}

    @given(
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=10, deadline=None)
    def test_all_strategies_bit_identical(self, setup, n, seed):
        seg, fp, executors = setup
        queries = make_queries(fp, n, seed)
        keys = {}
        for name, ex in executors.items():
            seg.reset_threshold_cache()
            keys[name] = [result_key(r) for r in ex.query_batch(queries)]
        assert keys["processes"] == keys["threads"]
        for i in range(n):
            seg.reset_threshold_cache()
            solo = seg.statistical_query(queries[i], ALPHA)
            assert result_key(solo) == keys["processes"][i]

    def test_pool_covers_segments_not_memtable(self, setup):
        seg, _, executors = setup
        ex = executors["processes"]
        names = set(ex._pool_stores())
        assert names == {
            segment_store_name(s.meta.name) for s in seg._segments
        }

    def test_pool_rebuilt_after_flush(self, tmp_path):
        seg, fp = self.build(tmp_path / "seg", cuts=[1500])
        with make_executor(seg, executor="processes") as ex:
            queries = make_queries(fp, 4, seed=17)
            seg.reset_threshold_cache()
            ex.query_batch(queries)
            key_before = ex._pool_key
            assert key_before is not None
            seg.flush()  # seals the pending memtable into a new segment
            seg.reset_threshold_cache()
            batch = ex.query_batch(queries)
            assert ex._pool_key != key_before
            for i, q in enumerate(queries):
                seg.reset_threshold_cache()
                solo = seg.statistical_query(q, ALPHA)
                assert result_key(solo) == result_key(batch[i])

    def test_mmap_opened_segments_are_file_backed(self, tmp_path):
        seg, _ = self.build(tmp_path / "seg", cuts=[1500],
                            leave_pending=False)
        seg.close()
        reopened = SegmentedS3Index.open(tmp_path / "seg", mmap=True)
        try:
            assert reopened.num_segments >= 1
            for s in reopened._segments:
                handle = s.index.store.shared_handle
                assert handle is not None and handle.kind == "file"
        finally:
            reopened.close()

"""Tests for the batched multi-query engine (:mod:`repro.index.batch`).

The load-bearing property: every batched path — multi-query block
selection, coalesced scanning, the segmented scan, the executor — must
be **bit-identical** to the per-query path it replaced
(``reference_query``) started from the same warm-start cache state.
Hypothesis drives random batches (with duplicates), alphas and depths
through both paths and compares exactly.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel, PerComponentNormalModel
from repro.errors import ConfigurationError
from repro.hilbert import HilbertCurve
from repro.index.batch import BatchQueryExecutor, coalesce_ranges, query_batch
from repro.index.filtering import (
    select_blocks_threshold,
    select_blocks_threshold_multi,
    statistical_blocks,
    statistical_blocks_batch_cached,
    statistical_blocks_cached,
    statistical_blocks_multi,
    threshold_cache_key,
)
from repro.index.options import QueryOptions
from repro.index.s3 import S3Index
from repro.index.segmented import SegmentedS3Index
from repro.index.store import FingerprintStore

from . import reference_query

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
    return (
        result.rows.tolist(),
        result.ids.tolist(),
        result.timecodes.tolist(),
        result.fingerprints.tobytes(),
    )


def selection_key(sel):
    return (
        sel.prefixes.tolist(),
        sel.probabilities.tobytes(),
        sel.threshold,
        sel.total_probability,
        sel.nodes_visited,
        sel.descents,
    )


def union_of(range_lists):
    """``coalesce_ranges`` over per-query range lists, as ``(s, e)`` pairs."""
    pairs = np.array(
        [r for ranges in range_lists for r in ranges], dtype=np.int64
    ).reshape(-1, 2)
    starts, ends = coalesce_ranges(pairs[:, 0], pairs[:, 1])
    return list(zip(starts.tolist(), ends.tolist()))


# ----------------------------------------------------------------------
class TestCoalesceRanges:
    def test_empty(self):
        assert union_of([]) == []
        assert union_of([[], []]) == []

    def test_disjoint_stay_separate(self):
        assert union_of([[(0, 3)], [(10, 12)]]) == [(0, 3), (10, 12)]

    def test_overlap_and_touch_merge(self):
        assert union_of([[(0, 5), (8, 9)], [(3, 8)]]) == [(0, 9)]
        assert union_of([[(0, 5)], [(5, 9)]]) == [(0, 9)]

    def test_containment(self):
        assert union_of([[(0, 100)], [(10, 20), (30, 40)]]) == [(0, 100)]

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=400),
                    st.integers(min_value=1, max_value=50),
                ),
                min_size=0, max_size=8,
            ),
            min_size=1, max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_union_semantics(self, raw):
        # Per-query lists must be sorted and disjoint, as block_row_ranges
        # produces them; build that shape from the raw (start, len) pairs.
        range_lists = []
        for pairs in raw:
            merged = []
            for s, ln in sorted(pairs):
                e = s + ln
                if merged and s <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(e, merged[-1][1]))
                else:
                    merged.append((s, e))
            range_lists.append(merged)
        union = union_of(range_lists)
        # Exact cover of the union of all rows.
        rows = set()
        for ranges in range_lists:
            for s, e in ranges:
                rows.update(range(s, e))
        covered = set()
        for s, e in union:
            assert s < e
            covered.update(range(s, e))
        assert covered >= rows
        # Sorted, disjoint, non-touching output.
        for (s1, e1), (s2, e2) in zip(union, union[1:]):
            assert e1 < s2
        # The demux invariant: every input range inside exactly one
        # union range.
        for ranges in range_lists:
            for s, e in ranges:
                assert any(us <= s and e <= ue for us, ue in union)


# ----------------------------------------------------------------------
class TestMultiSelectors:
    CURVE = HilbertCurve(ndims=NDIMS, order=8)
    MODEL = NormalDistortionModel(NDIMS, SIGMA)

    def queries(self, n, seed=0, duplicates=True):
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.0, 255.0, size=(n, NDIMS))
        if duplicates and n >= 4:
            q[1] = q[n - 1]
        return q

    @given(
        n=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=100),
        threshold=st.floats(min_value=1e-6, max_value=0.3),
        depth=st.sampled_from([8, 16, 24]),
    )
    @settings(max_examples=25, deadline=None)
    def test_threshold_selector_bit_identical(self, n, seed, threshold, depth):
        queries = self.queries(n, seed)
        ths = np.full(n, threshold)
        multi = select_blocks_threshold_multi(
            queries, self.MODEL, self.CURVE, depth, ths
        )
        for i in range(n):
            solo = select_blocks_threshold(
                queries[i], self.MODEL, self.CURVE, depth, threshold
            )
            assert selection_key(solo) == selection_key(multi[i])

    @given(
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=100),
        alpha=st.sampled_from([0.5, 0.8, 0.9, 0.99]),
        depth=st.sampled_from([8, 16, 24]),
    )
    @settings(max_examples=20, deadline=None)
    def test_statistical_blocks_bit_identical(self, n, seed, alpha, depth):
        queries = self.queries(n, seed)
        multi = statistical_blocks_multi(
            queries, self.MODEL, self.CURVE, depth, alpha
        )
        for i in range(n):
            solo = statistical_blocks(
                queries[i], self.MODEL, self.CURVE, depth, alpha
            )
            assert selection_key(solo) == selection_key(multi[i])

    def test_batch_of_one_reproduces_the_sequential_chain(self):
        queries = self.queries(10, seed=3)
        cache_seq, cache_batch = {}, {}
        for q in queries:
            solo = statistical_blocks_cached(
                q, self.MODEL, self.CURVE, 16, 0.9, cache_seq
            )
            [one] = statistical_blocks_batch_cached(
                q[None, :], self.MODEL, self.CURVE, 16, 0.9, cache_batch
            )
            assert selection_key(solo) == selection_key(one)
        assert cache_seq == cache_batch

    def test_batch_shares_one_warm_start(self):
        queries = self.queries(6, seed=4)
        cache = {}
        statistical_blocks_cached(
            queries[0], self.MODEL, self.CURVE, 16, 0.9, cache
        )
        frozen = dict(cache)
        batch = statistical_blocks_batch_cached(
            queries, self.MODEL, self.CURVE, 16, 0.9, cache
        )
        for i in range(len(queries)):
            solo = statistical_blocks_cached(
                queries[i], self.MODEL, self.CURVE, 16, 0.9, dict(frozen)
            )
            assert selection_key(solo) == selection_key(batch[i])
        key = threshold_cache_key(0.9, 16, self.MODEL)
        assert cache[key] == batch[-1].threshold

    def test_empty_batch(self):
        assert statistical_blocks_multi(
            np.empty((0, NDIMS)), self.MODEL, self.CURVE, 16, 0.9
        ) == []

    def test_query_shape_validated(self):
        with pytest.raises(ConfigurationError):
            select_blocks_threshold_multi(
                np.zeros((2, NDIMS + 1)), self.MODEL, self.CURVE, 8,
                np.full(2, 0.01),
            )
        with pytest.raises(ConfigurationError):
            select_blocks_threshold_multi(
                np.zeros((2, NDIMS)), self.MODEL, self.CURVE, 8,
                np.full(3, 0.01),
            )
        with pytest.raises(ConfigurationError):
            select_blocks_threshold_multi(
                np.zeros((2, NDIMS)), self.MODEL, self.CURVE, 8,
                np.array([0.01, 1.5]),
            )


# ----------------------------------------------------------------------
class TestCacheKey:
    """Satellite: the warm-start cache must be keyed by model identity."""

    def test_distinct_models_do_not_poison_each_other(self):
        curve = HilbertCurve(ndims=NDIMS, order=8)
        wide = NormalDistortionModel(NDIMS, 40.0)
        narrow = NormalDistortionModel(NDIMS, 2.0)
        q = np.full(NDIMS, 128.0)
        cache = {}
        statistical_blocks_cached(q, wide, curve, 16, 0.9, cache)
        statistical_blocks_cached(q, narrow, curve, 16, 0.9, cache)
        # Both models keep their own warm-start entry.
        assert threshold_cache_key(0.9, 16, wide) in cache
        assert threshold_cache_key(0.9, 16, narrow) in cache
        assert len(cache) == 2
        # Interleaving models gives the same selections as dedicated
        # caches — no cross-model warm start leaks through.
        solo_wide = statistical_blocks_cached(q, wide, curve, 16, 0.9, {})
        statistical_blocks_cached(q, wide, curve, 16, 0.9, {})
        shared = {}
        statistical_blocks_cached(q, narrow, curve, 16, 0.9, shared)
        mixed = statistical_blocks_cached(q, wide, curve, 16, 0.9, shared)
        assert mixed.threshold == solo_wide.threshold

    def test_equal_models_share_warm_start(self):
        a = NormalDistortionModel(NDIMS, SIGMA)
        b = NormalDistortionModel(NDIMS, SIGMA)
        assert threshold_cache_key(0.8, 16, a) == threshold_cache_key(0.8, 16, b)
        pa = PerComponentNormalModel(np.full(NDIMS, SIGMA))
        pb = PerComponentNormalModel(np.full(NDIMS, SIGMA))
        assert threshold_cache_key(0.8, 16, pa) == threshold_cache_key(0.8, 16, pb)
        assert threshold_cache_key(0.8, 16, a) != threshold_cache_key(0.8, 16, pa)


# ----------------------------------------------------------------------
class TestMonolithicBatch:
    N = 4000

    @pytest.fixture(scope="class")
    def index(self):
        fp, ids, tcs = make_records(self.N, seed=7)
        return S3Index(
            FingerprintStore(fp, ids, tcs),
            model=NormalDistortionModel(NDIMS, SIGMA),
        )

    def batch_queries(self, index, n, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, len(index), n)
        q = index.store.fingerprints[rows].astype(np.float64)
        q += rng.normal(0, 4.0, q.shape)
        q = np.clip(q, 0.0, 255.0)
        if n >= 4:
            q[2] = q[n - 1]  # duplicate queries in one batch
        return q

    @given(
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=50),
        alpha=st.sampled_from([0.5, 0.8, 0.95]),
    )
    @settings(max_examples=15, deadline=None)
    def test_equals_sequential(self, index, n, seed, alpha):
        queries = self.batch_queries(index, n, seed)
        index.reset_threshold_cache()
        batch = index.statistical_query_batch(queries, alpha)
        for i in range(n):
            index.reset_threshold_cache()
            solo = reference_query.s3_statistical_query(index, queries[i], alpha)
            assert result_key(solo) == result_key(batch[i])
            assert solo.stats.blocks_selected == batch[i].stats.blocks_selected
            assert solo.stats.sections_scanned == batch[i].stats.sections_scanned
            assert solo.stats.rows_scanned == batch[i].stats.rows_scanned
            assert solo.stats.results == batch[i].stats.results
            assert solo.stats.nodes_visited == batch[i].stats.nodes_visited
            assert solo.stats.descents == batch[i].stats.descents

    def test_stats_results_populated_everywhere(self, index):
        """Satellite audit: every query path reports ``stats.results``."""
        q = index.store.fingerprints[11].astype(np.float64)
        r = index.statistical_query(q, 0.8)
        assert r.stats.results == len(r)
        r = index.range_query(q, 25.0)
        assert r.stats.results == len(r)
        r = index.window_query(q - 10, q + 10)
        assert r.stats.results == len(r)
        [r] = index.statistical_query_batch(q[None, :], 0.8)
        assert r.stats.results == len(r) > 0

    def test_batch_stats_account_coalescing(self, index):
        queries = self.batch_queries(index, 16, seed=9)
        index.reset_threshold_cache()
        results, batch = query_batch(index, queries, 0.8)
        assert batch.queries == 16 and batch.batches == 1
        assert batch.logical_rows == sum(len(r) for r in results)
        assert batch.unique_rows <= batch.logical_rows or batch.logical_rows == 0
        assert batch.coalescing_factor >= 1.0 or batch.logical_rows == 0
        assert batch.results == batch.logical_rows

    def test_executor_chunks_match_single_batches(self, index):
        queries = self.batch_queries(index, 10, seed=13)
        index.reset_threshold_cache()
        ex = BatchQueryExecutor(index, options=QueryOptions(
            alpha=0.8, batch_size=4
        ))
        chunked = ex.query_all(queries)
        assert ex.stats.batches == 3 and ex.stats.queries == 10
        index.reset_threshold_cache()
        expected = []
        for s in range(0, 10, 4):
            expected.extend(
                index.statistical_query_batch(queries[s:s + 4], 0.8)
            )
        for a, b in zip(expected, chunked):
            assert result_key(a) == result_key(b)

    def test_executor_validates_config(self, index):
        with pytest.raises(ConfigurationError):
            BatchQueryExecutor(index, options=QueryOptions(alpha=0.8, batch_size=0))


# ----------------------------------------------------------------------
class TestSegmentedBatch:
    N = 3000

    def build_segmented(self, tmp_path, cuts, leave_pending=True):
        fp, ids, tcs = make_records(self.N, seed=21)
        model = NormalDistortionModel(NDIMS, SIGMA)
        seg = SegmentedS3Index.create(
            tmp_path, ndims=NDIMS, model=model,
            flush_rows=10**9, auto_compact=False, sync=False,
        )
        bounds = [0, *sorted(cuts), self.N]
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi > lo:
                seg.add(fp[lo:hi], ids[lo:hi], tcs[lo:hi])
                if not (leave_pending and hi == self.N):
                    seg.flush()
        return seg, fp

    @given(
        cuts=st.lists(
            st.integers(min_value=1, max_value=2999),
            min_size=0, max_size=4,
        ),
        leave_pending=st.booleans(),
        n=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=50),
        alpha=st.sampled_from([0.5, 0.8, 0.95]),
        depth=st.sampled_from([None, 8, 12]),
    )
    @settings(max_examples=12, deadline=None)
    def test_query_batch_equals_per_query(
        self, tmp_path_factory, cuts, leave_pending, n, seed, alpha,
        depth,
    ):
        tmp = tmp_path_factory.mktemp("batchseg")
        seg, fp = self.build_segmented(tmp / "seg", cuts, leave_pending)
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, self.N, n)
        queries = np.clip(
            fp[rows].astype(np.float64) + rng.normal(0, 4.0, (n, NDIMS)),
            0.0, 255.0,
        )
        if n >= 3:
            queries[0] = queries[n - 1]  # duplicates in the batch

        seg.reset_threshold_cache()
        batch = seg.statistical_query_batch(queries, alpha, depth=depth)
        for i in range(n):
            seg.reset_threshold_cache()
            solo = reference_query.segmented_statistical_query(
                seg, queries[i], alpha, depth=depth
            )
            assert result_key(solo) == result_key(batch[i])
            assert solo.stats.results == batch[i].stats.results
            assert solo.stats.rows_scanned == batch[i].stats.rows_scanned
            assert solo.stats.sections_scanned == batch[i].stats.sections_scanned
            assert solo.stats.segments_scanned == batch[i].stats.segments_scanned
            assert (
                solo.stats.memtable_rows_scanned
                == batch[i].stats.memtable_rows_scanned
            )
            assert solo.stats.segments_skipped == batch[i].stats.segments_skipped
            assert solo.stats.blocks_skipped == batch[i].stats.blocks_skipped
        seg.close()

    def test_segmented_stats_results_populated(self, tmp_path):
        seg, fp = self.build_segmented(tmp_path / "seg", [1000, 2000])
        q = fp[5].astype(np.float64)
        r = seg.statistical_query(q, 0.8)
        assert r.stats.results == len(r) > 0
        [rb] = seg.statistical_query_batch(q[None, :], 0.8)
        assert rb.stats.results == len(rb) > 0
        rr = seg.range_query(q, 25.0)
        assert rr.stats.results == len(rr)
        seg.close()

    def test_executor_picks_segmented_engine(self, tmp_path):
        seg, fp = self.build_segmented(tmp_path / "seg", [1500])
        queries = fp[:8].astype(np.float64)
        seg.reset_threshold_cache()
        ex = BatchQueryExecutor(seg, options=QueryOptions(alpha=0.8, batch_size=8))
        got = ex.query_all(queries)
        seg.reset_threshold_cache()
        _, batch = query_batch(seg, queries, 0.8)
        assert ex.stats.queries == 8
        assert len(got) == 8
        assert batch.queries == 8
        seg.close()


# ----------------------------------------------------------------------
NO_SPAWN_SCRIPT = r"""
import sys
import numpy as np
sys.path.insert(0, {src!r})
import repro.index
from repro.distortion.model import NormalDistortionModel
from repro.experiments.common import host_block
from repro.index.summary import index_summary

rng = np.random.default_rng(0)
store = repro.index.FingerprintStore(
    rng.integers(0, 256, size=(200, 8)).astype(np.uint8),
    np.zeros(200, dtype=np.uint32), np.zeros(200),
)
index = repro.index.S3Index(store, model=NormalDistortionModel(8, 10.0))
engine = repro.index.BatchQueryExecutor(
    index, options=repro.index.QueryOptions(alpha=0.8)
)
assert len(engine.query_batch(store.fingerprints[:4].astype(np.float64))) == 4
assert index_summary(index)["rows"] == 200
assert host_block()["cpu_count"]

from multiprocessing import resource_tracker
assert "multiprocessing.shared_memory" not in sys.modules
assert resource_tracker._resource_tracker._pid is None
"""


def test_query_path_and_host_info_spawn_no_process():
    """A batch, ``index_summary()`` and ``host_block()`` must not start
    multiprocessing's resource tracker or touch shared memory."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", NO_SPAWN_SCRIPT.format(src=src)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

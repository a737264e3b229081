"""Integration tests of the S³ index: statistical + range queries."""

import gc
import weakref

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.distortion.radial import radius_for_expectation
from repro.errors import ConfigurationError, IndexError_
from repro.index.s3 import S3Index
from repro.index.seqscan import SequentialScanIndex
from repro.index.store import FingerprintStore

from . import reference_query


def clustered_store(n, ndims=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.integers(40, 216, size=(max(n // 200, 4), ndims))
    assign = rng.integers(0, centers.shape[0], size=n)
    pts = np.clip(centers[assign] + rng.normal(0, 10, (n, ndims)), 0, 255)
    return FingerprintStore(
        fingerprints=pts.astype(np.uint8),
        ids=rng.integers(0, 100, n).astype(np.uint32),
        timecodes=rng.uniform(0, 500, n),
    )


@pytest.fixture(scope="module")
def index():
    store = clustered_store(20_000)
    return S3Index(store, model=NormalDistortionModel(8, 10.0))


class TestBuild:
    def test_rejects_empty_store(self):
        with pytest.raises(IndexError_):
            S3Index(FingerprintStore.empty(8))

    def test_default_depth_heuristic(self, index):
        assert 1 <= index.depth <= index.layout.max_depth

    def test_store_is_curve_sorted(self, index):
        assert np.all(np.diff(index.layout.keys.astype(np.int64)) >= 0)

    def test_rejects_bad_depth(self):
        store = clustered_store(100)
        with pytest.raises(ConfigurationError):
            S3Index(store, depth=0)
        with pytest.raises(ConfigurationError):
            S3Index(store, depth=999)


class TestStatisticalQuery:
    def test_returns_block_members_only_and_all(self, index):
        """V_alpha is exactly the union of selected blocks."""
        query = index.store.fingerprints[123].astype(float)
        selection = index.block_selection(query, 0.8)
        ranges = index.layout.block_row_ranges(
            selection.prefixes, selection.depth
        )
        expected_rows = reference_query.gather_rows(index.layout, ranges)
        result = index.statistical_query(query, 0.8)
        assert np.array_equal(np.sort(result.rows), np.sort(expected_rows))

    def test_expectation_honored_on_planted_queries(self, index):
        rng = np.random.default_rng(5)
        sigma = 10.0
        hits = trials = 0
        for _ in range(120):
            row = int(rng.integers(0, len(index)))
            original = index.store.fingerprints[row]
            query = np.clip(original + rng.normal(0, sigma, 8), 0, 255)
            result = index.statistical_query(query, 0.8)
            trials += 1
            hits += bool(
                np.any(np.all(result.fingerprints == original, axis=1))
            )
        assert hits / trials >= 0.7  # alpha=0.8 with clipping + noise margin

    def test_alpha_monotonicity(self, index):
        query = index.store.fingerprints[42].astype(float)
        low = index.statistical_query(query, 0.5)
        high = index.statistical_query(query, 0.95)
        assert high.stats.rows_scanned >= low.stats.rows_scanned

    def test_stats_populated(self, index):
        result = index.statistical_query(
            index.store.fingerprints[0].astype(float), 0.8
        )
        stats = result.stats
        assert stats.blocks_selected > 0
        assert stats.rows_scanned == len(result)
        assert stats.filter_seconds > 0
        assert stats.descents >= 1
        assert stats.total_seconds == pytest.approx(
            stats.filter_seconds + stats.refine_seconds
        )

    def test_model_override_and_missing_model(self):
        store = clustered_store(500)
        index = S3Index(store)  # no default model
        with pytest.raises(ConfigurationError):
            index.statistical_query(np.zeros(8), 0.8)
        result = index.statistical_query(
            np.full(8, 128.0), 0.8, model=NormalDistortionModel(8, 5.0)
        )
        assert result.stats.blocks_selected > 0

    def test_model_dimension_checked(self, index):
        with pytest.raises(ConfigurationError):
            index.statistical_query(
                np.zeros(8), 0.8, model=NormalDistortionModel(4, 5.0)
            )

    def test_exact_blocks_path(self, index):
        query = index.store.fingerprints[7].astype(float)
        approx = index.statistical_query(query, 0.8)
        exact = index.statistical_query(query, 0.8, exact_blocks=True)
        assert exact.stats.blocks_selected <= approx.stats.blocks_selected


class TestRangeQuery:
    def test_matches_sequential_scan(self, index):
        scan = SequentialScanIndex(index.store)
        rng = np.random.default_rng(9)
        for _ in range(5):
            query = rng.uniform(0, 255, size=8)
            eps = radius_for_expectation(0.7, 8, 10.0)
            a = index.range_query(query, eps)
            b = scan.range_query(query, eps)
            key_a = sorted(zip(a.ids.tolist(), a.timecodes.tolist()))
            key_b = sorted(zip(b.ids.tolist(), b.timecodes.tolist()))
            assert key_a == key_b

    def test_distances_are_exact(self, index):
        query = index.store.fingerprints[10].astype(float)
        result = index.range_query(query, 30.0)
        for fp, dist in zip(result.fingerprints, result.distances):
            assert dist == pytest.approx(
                np.linalg.norm(fp.astype(float) - query)
            )
            assert dist <= 30.0

    def test_zero_epsilon_finds_exact_row(self, index):
        query = index.store.fingerprints[77].astype(float)
        result = index.range_query(query, 0.0)
        assert len(result) >= 1
        assert np.all(result.distances == 0.0)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        store = clustered_store(2000, seed=3)
        index = S3Index(store, model=NormalDistortionModel(8, 7.0), depth=10)
        index.save(tmp_path / "idx")
        loaded = S3Index.load(tmp_path / "idx")
        assert loaded.depth == 10
        assert loaded.model.sigma == pytest.approx(7.0)
        query = store.fingerprints[5].astype(float)
        a = index.statistical_query(query, 0.8)
        b = loaded.statistical_query(query, 0.8)
        assert np.array_equal(np.sort(a.rows), np.sort(b.rows))


class TestKnnBaseline:
    def test_knn_returns_sorted_neighbours(self):
        store = clustered_store(3000, seed=4)
        scan = SequentialScanIndex(store)
        query = store.fingerprints[0].astype(float)
        result = scan.knn_query(query, 10)
        assert len(result) == 10
        assert np.all(np.diff(result.distances) >= 0)
        assert result.distances[0] == 0.0  # the row itself

    def test_knn_rejects_bad_k(self):
        store = clustered_store(50)
        scan = SequentialScanIndex(store)
        with pytest.raises(ConfigurationError):
            scan.knn_query(np.zeros(8), 0)
        with pytest.raises(ConfigurationError):
            scan.knn_query(np.zeros(8), 51)


class TestExtended:
    def test_rebuild_contains_both_stores(self):
        base = clustered_store(1000, seed=10)
        more = clustered_store(500, seed=11)
        index = S3Index(base, model=NormalDistortionModel(8, 9.0), depth=12)
        bigger = index.extended(more)
        assert len(bigger) == 1500
        assert bigger.depth == index.depth
        assert bigger.model is index.model
        # Every original fingerprint remains findable at distance zero.
        query = more.fingerprints[3].astype(float)
        result = bigger.range_query(query, 0.0)
        assert len(result) >= 1


class TestReadView:
    def test_queried_index_is_freed_without_gc(self):
        """The one-part read view a query builds refers back to its index
        weakly: dropping a queried index frees it (and its store) at
        once, not at the next cyclic collection."""
        index = S3Index(clustered_store(300), model=NormalDistortionModel(8, 9.0))
        query = index.store.fingerprints[7].astype(float)
        index.statistical_query(query, 0.8)
        index.range_query(query, 10.0)
        ref = weakref.ref(index)
        gc.disable()
        try:
            del index
            assert ref() is None
        finally:
            gc.enable()

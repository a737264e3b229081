"""Tests for the Z-order (Morton) comparison curve."""

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.errors import ConfigurationError, GeometryError
from repro.hilbert.morton import (
    MortonBlockSelector,
    MortonIndex,
    morton_encode_batch,
)
from repro.index.store import FingerprintStore


def morton_scalar(point, order, levels):
    key = 0
    for i in range(order - 1, order - 1 - levels, -1):
        for c in point:
            key = (key << 1) | ((int(c) >> i) & 1)
    return key


class TestEncode:
    @pytest.mark.parametrize("ndims,order,levels", [(2, 4, 4), (3, 5, 3), (20, 8, 2)])
    def test_matches_scalar_interleaving(self, ndims, order, levels):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 1 << order, size=(200, ndims))
        keys = morton_encode_batch(pts, order, levels)
        expected = np.array(
            [morton_scalar(p, order, levels) for p in pts], dtype=np.uint64
        )
        assert np.array_equal(keys, expected)

    def test_bijective_on_small_grid(self):
        import itertools

        pts = np.array(list(itertools.product(range(8), repeat=2)))
        keys = morton_encode_batch(pts, 3, 3)
        assert len(np.unique(keys)) == 64

    def test_rejects_overflow(self):
        with pytest.raises(GeometryError):
            morton_encode_batch(np.zeros((2, 20), dtype=np.uint8), 8, 4)

    def test_rejects_out_of_grid(self):
        with pytest.raises(GeometryError):
            morton_encode_batch(np.full((1, 2), 300), 8, 2)


class TestSelector:
    def test_blocks_match_bruteforce(self):
        """Prefix grouping of Morton keys equals the selector's boxes."""
        import itertools
        from collections import defaultdict

        ndims, order, depth = 3, 3, 7
        selector = MortonBlockSelector(ndims, order)
        model = NormalDistortionModel(ndims, 1.5)
        query = np.array([3.2, 5.0, 1.7])
        prefixes, probs = selector.statistical_blocks(query, model, depth, 0.01)

        groups = defaultdict(list)
        for pt in itertools.product(range(8), repeat=3):
            key = morton_scalar(pt, order, order)
            groups[key >> (ndims * order - depth)].append(pt)
        expected = {}
        for prefix, cells in groups.items():
            lo = np.min(cells, axis=0).astype(float)
            hi = np.max(cells, axis=0).astype(float) + 1.0
            expected[prefix] = model.box_probability(lo, hi, query)
        wanted = sorted(p for p, v in expected.items() if v > 0.01)
        assert list(prefixes) == wanted
        for p, v in zip(prefixes, probs):
            assert v == pytest.approx(expected[int(p)], abs=1e-12)

    def test_alpha_iteration_meets_target(self):
        selector = MortonBlockSelector(3, 4)
        model = NormalDistortionModel(3, 2.0)
        query = np.array([8.0, 4.0, 11.0])
        prefixes, probs = selector.statistical_blocks_alpha(
            query, model, 9, 0.8
        )
        lo = np.zeros(3)
        hi = np.full(3, 16.0)
        target = 0.8 * model.box_probability(lo, hi, query)
        assert probs.sum() >= target - 1e-12

    def test_validates_inputs(self):
        selector = MortonBlockSelector(3, 4)
        model = NormalDistortionModel(3, 2.0)
        with pytest.raises(ConfigurationError):
            selector.statistical_blocks(np.zeros(2), model, 6, 0.1)
        with pytest.raises(ConfigurationError):
            selector.statistical_blocks(np.zeros(3), model, 6, 0.0)


class TestMortonIndex:
    @pytest.fixture(scope="class")
    def stores(self):
        rng = np.random.default_rng(0)
        centers = rng.integers(40, 216, size=(30, 8))
        assign = rng.integers(0, 30, size=8000)
        pts = np.clip(centers[assign] + rng.normal(0, 9, (8000, 8)), 0, 255)
        return FingerprintStore(
            fingerprints=pts.astype(np.uint8),
            ids=np.zeros(8000, dtype=np.uint32),
            timecodes=np.arange(8000, dtype=np.float64),
        )

    def test_same_expectation_as_hilbert(self, stores):
        """Both orderings retrieve planted originals at >= alpha; the
        difference is cost, not correctness."""
        from repro.index.s3 import S3Index

        model = NormalDistortionModel(8, 9.0)
        morton = MortonIndex(stores, model=model, depth=14)
        hilbert = S3Index(stores, model=model, depth=14)
        rng = np.random.default_rng(1)
        m_hits = h_hits = 0
        trials = 60
        for _ in range(trials):
            row = int(rng.integers(0, len(stores)))
            original = stores.fingerprints[row]
            q = np.clip(original + rng.normal(0, 9.0, 8), 0, 255)
            rows, _, _ = morton.statistical_query(q, 0.8)
            m_hits += bool(
                np.any(np.all(morton.store.fingerprints[rows] == original, axis=1))
            )
            result = hilbert.statistical_query(q, 0.8)
            h_hits += bool(
                np.any(np.all(result.fingerprints == original, axis=1))
            )
        assert m_hits / trials >= 0.7
        assert h_hits / trials >= 0.7

    def test_hilbert_clusters_better(self, stores):
        """The ablation's point: at equal depth, Hilbert selections merge
        into fewer contiguous sections than Morton selections."""
        from repro.index.s3 import S3Index

        model = NormalDistortionModel(8, 9.0)
        depth = 14
        morton = MortonIndex(stores, model=model, depth=depth)
        hilbert = S3Index(stores, model=model, depth=depth)
        rng = np.random.default_rng(2)
        m_sections = h_sections = 0
        for _ in range(20):
            row = int(rng.integers(0, len(stores)))
            q = np.clip(
                stores.fingerprints[row] + rng.normal(0, 9.0, 8), 0, 255
            )
            _, _, sections = morton.statistical_query(q, 0.8)
            m_sections += sections
            selection = hilbert.block_selection(q, 0.8)
            h_sections += len(hilbert.layout.block_row_ranges(
                selection.prefixes, selection.depth
            ))
        assert h_sections < m_sections

    def test_rejects_empty_store(self):
        with pytest.raises(ConfigurationError):
            MortonIndex(FingerprintStore.empty(8))

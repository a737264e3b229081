"""Tests for the independent-component distortion models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import (
    NormalDistortionModel,
    PerComponentNormalModel,
)
from repro.errors import ConfigurationError


class TestNormalModel:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            NormalDistortionModel(0, 1.0)
        with pytest.raises(ConfigurationError):
            NormalDistortionModel(3, 0.0)
        with pytest.raises(ConfigurationError):
            NormalDistortionModel(3, -2.0)

    def test_cdf_symmetry(self):
        model = NormalDistortionModel(4, 10.0)
        x = np.array([-20.0, -5.0, 0.0, 5.0, 20.0])
        cdf = model.cdf(x)
        assert np.allclose(cdf + cdf[::-1], 1.0)
        assert cdf[2] == pytest.approx(0.5)

    def test_sample_statistics(self):
        model = NormalDistortionModel(6, 7.0)
        sample = model.sample(20_000, rng=0)
        assert sample.shape == (20_000, 6)
        assert np.allclose(sample.mean(axis=0), 0.0, atol=0.3)
        assert np.allclose(sample.std(axis=0), 7.0, atol=0.3)

    def test_interval_probability_matches_sampling(self):
        model = NormalDistortionModel(1, 5.0)
        sample = model.sample(100_000, rng=1)[:, 0]
        query = 3.0
        prob = float(
            model.interval_probability(0, np.array(0.0), np.array(10.0), query)
        )
        observed = np.mean((query + sample >= 0.0) & (query + sample < 10.0))
        assert prob == pytest.approx(observed, abs=0.01)

    def test_box_probability_is_product(self):
        model = NormalDistortionModel(3, 4.0)
        lo = np.array([0.0, 10.0, -5.0])
        hi = np.array([8.0, 30.0, 5.0])
        q = np.array([4.0, 20.0, 0.0])
        expected = 1.0
        for j in range(3):
            expected *= float(
                model.interval_probability(j, lo[j], hi[j], q[j])
            )
        assert model.box_probability(lo, hi, q) == pytest.approx(expected)

    def test_whole_space_probability_is_one(self):
        model = NormalDistortionModel(5, 3.0)
        lo = np.full(5, -1e6)
        hi = np.full(5, 1e6)
        assert model.box_probability(lo, hi, np.zeros(5)) == pytest.approx(1.0)

    @given(st.floats(min_value=-100, max_value=100))
    @settings(max_examples=30)
    def test_cdf_multi_ignores_dims(self, x):
        model = NormalDistortionModel(8, 12.0)
        dims = np.array([0, 3, 7])
        xs = np.full(3, x)
        out = model.cdf_multi(dims, xs)
        assert np.allclose(out, out[0])


class TestPerComponentModel:
    def test_rejects_bad_sigmas(self):
        with pytest.raises(ConfigurationError):
            PerComponentNormalModel([1.0, 0.0])
        with pytest.raises(ConfigurationError):
            PerComponentNormalModel([[1.0], [2.0]])
        with pytest.raises(ConfigurationError):
            PerComponentNormalModel([])

    def test_cdf_uses_per_component_sigma(self):
        model = PerComponentNormalModel([1.0, 100.0])
        # At x = 2: almost full mass for sigma=1, near half for sigma=100.
        assert float(model.component_cdf(0, np.array(2.0))) > 0.95
        assert float(model.component_cdf(1, np.array(2.0))) < 0.55

    def test_cdf_multi_matches_component_cdf(self):
        model = PerComponentNormalModel([2.0, 5.0, 9.0])
        dims = np.array([2, 0, 1])
        x = np.array([3.0, -1.0, 4.0])
        out = model.cdf_multi(dims, x)
        for i in range(3):
            assert out[i] == pytest.approx(
                model.component_cdf(int(dims[i]), x[i:i + 1]).item()
            )

    def test_sample_statistics(self):
        sigmas = np.array([1.0, 5.0, 20.0])
        model = PerComponentNormalModel(sigmas)
        sample = model.sample(30_000, rng=2)
        assert np.allclose(sample.std(axis=0), sigmas, rtol=0.05)

    def test_mean_sigma(self):
        model = PerComponentNormalModel([2.0, 4.0, 6.0])
        assert model.mean_sigma() == pytest.approx(4.0)


class TestBaseFallback:
    def test_generic_cdf_multi_loops(self):
        model = PerComponentNormalModel([3.0, 6.0])
        from repro.distortion.model import IndependentDistortionModel

        dims = np.array([0, 1, 0])
        x = np.array([1.0, 2.0, -1.0])
        generic = IndependentDistortionModel.cdf_multi(model, dims, x)
        fast = model.cdf_multi(dims, x)
        assert np.allclose(generic, fast)


class TestCacheToken:
    def test_equal_models_share_cache_token(self):
        """Equal models key the same cached results; different model
        kinds never do."""
        a = NormalDistortionModel(20, 18.0)
        b = NormalDistortionModel(20, 18.0)
        assert a.cache_token() == b.cache_token()
        pa = PerComponentNormalModel(np.full(20, 18.0))
        pb = PerComponentNormalModel(np.full(20, 18.0))
        assert pa.cache_token() == pb.cache_token()
        assert a.cache_token() != pa.cache_token()

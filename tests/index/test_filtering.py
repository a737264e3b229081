"""Verification of the block-selection algorithms against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.empirical import EmpiricalDistortionModel
from repro.distortion.model import (
    IndependentDistortionModel,
    NormalDistortionModel,
    PerComponentNormalModel,
)
from repro.errors import ConfigurationError
from repro.hilbert.butz import HilbertCurve
from repro.hilbert.partition import blocks_at_depth
from repro.index import filtering
from repro.index.filtering import (
    best_first_blocks,
    grid_probability,
    grid_probability_multi,
    range_blocks,
    select_blocks_threshold,
    statistical_blocks,
)


def brute_force_probs(curve, model, query, depth):
    out = {}
    for node in blocks_at_depth(curve, depth):
        out[node.prefix] = model.box_probability(
            np.array(node.lo, dtype=float), np.array(node.hi, dtype=float), query
        )
    return out


@pytest.fixture(scope="module")
def small_setup():
    curve = HilbertCurve(3, 4)
    model = NormalDistortionModel(3, sigma=2.5)
    return curve, model


class _LaplaceModel(IndependentDistortionModel):
    """A model with only ``component_cdf``: the base ``cdf_multi`` loop."""

    def __init__(self, ndims, scale):
        self.ndims, self.scale = ndims, scale

    def component_cdf(self, dim, x):
        x = np.asarray(x, dtype=np.float64) / self.scale
        return np.where(x < 0, 0.5 * np.exp(x), 1.0 - 0.5 * np.exp(-x))


class TestGridProbabilityMulti:
    """The batched grid mass is the scalar ``box_probability``, bit for bit."""

    @pytest.mark.parametrize("model", [
        NormalDistortionModel(20, sigma=6.0),
        PerComponentNormalModel(np.linspace(2.0, 30.0, 20)),
        EmpiricalDistortionModel(
            np.random.default_rng(5).normal(0.0, 9.0, size=(2_000, 20))
        ),
        _LaplaceModel(20, scale=7.0),
    ], ids=lambda m: type(m).__name__)
    def test_equals_box_probability(self, model):
        curve = HilbertCurve(20, 8)
        rng = np.random.default_rng(11)
        # Queries inside the grid, on its faces and outside it.
        queries = rng.uniform(-20.0, curve.side + 20.0, size=(200, 20))
        queries[:40] = rng.integers(0, curve.side, size=(40, 20))
        queries[0, :5] = 0.0
        lo, hi = np.zeros(20), np.full(20, float(curve.side))
        expected = np.array([model.box_probability(lo, hi, q) for q in queries])
        assert np.array_equal(
            grid_probability_multi(queries, model, curve), expected
        )
        assert [grid_probability(q, model, curve) for q in queries[:20]] == (
            expected[:20].tolist()
        )

    def test_rejects_wrong_width(self):
        with pytest.raises(ConfigurationError):
            grid_probability_multi(
                np.zeros((2, 4)), NormalDistortionModel(3, 2.0), HilbertCurve(3, 4)
            )


class TestThresholdSelection:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bruteforce(self, small_setup, seed):
        curve, model = small_setup
        rng = np.random.default_rng(seed)
        query = rng.uniform(0, curve.side - 1, size=3)
        depth = 7
        probs = brute_force_probs(curve, model, query, depth)
        sel = select_blocks_threshold(query, model, curve, depth, 0.01)
        expected = sorted(p for p, v in probs.items() if v > 0.01)
        assert list(sel.prefixes) == expected
        for prefix, prob in zip(sel.prefixes, sel.probabilities):
            assert prob == pytest.approx(probs[int(prefix)], abs=1e-12)

    def test_probabilities_sum_to_grid_mass(self, small_setup):
        curve, model = small_setup
        query = np.array([7.5, 3.0, 12.0])
        probs = brute_force_probs(curve, model, query, 6)
        assert sum(probs.values()) == pytest.approx(
            grid_probability(query, model, curve), abs=1e-9
        )

    def test_higher_threshold_selects_fewer(self, small_setup):
        curve, model = small_setup
        query = np.array([8.0, 8.0, 8.0])
        low = select_blocks_threshold(query, model, curve, 8, 0.001)
        high = select_blocks_threshold(query, model, curve, 8, 0.05)
        assert len(high) <= len(low)
        assert set(high.prefixes.tolist()) <= set(low.prefixes.tolist())

    def test_rejects_bad_threshold(self, small_setup):
        curve, model = small_setup
        q = np.zeros(3)
        with pytest.raises(ConfigurationError):
            select_blocks_threshold(q, model, curve, 4, 0.0)
        with pytest.raises(ConfigurationError):
            select_blocks_threshold(q, model, curve, 4, 1.0)

    def test_rejects_bad_depth(self, small_setup):
        curve, model = small_setup
        with pytest.raises(ConfigurationError):
            select_blocks_threshold(np.zeros(3), model, curve, 0, 0.1)
        with pytest.raises(ConfigurationError):
            select_blocks_threshold(np.zeros(3), model, curve, 99, 0.1)

    def test_rejects_query_arity(self, small_setup):
        curve, model = small_setup
        with pytest.raises(ConfigurationError):
            select_blocks_threshold(np.zeros(2), model, curve, 4, 0.1)

    def test_per_component_model(self):
        curve = HilbertCurve(3, 4)
        model = PerComponentNormalModel([1.0, 3.0, 6.0])
        query = np.array([8.0, 4.0, 10.0])
        probs = brute_force_probs(curve, model, query, 6)
        sel = select_blocks_threshold(query, model, curve, 6, 0.02)
        expected = sorted(p for p, v in probs.items() if v > 0.02)
        assert list(sel.prefixes) == expected


class TestStatisticalBlocks:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_meets_conditional_expectation(self, seed):
        curve = HilbertCurve(3, 4)
        model = NormalDistortionModel(3, sigma=2.0)
        rng = np.random.default_rng(seed)
        query = rng.uniform(0, curve.side - 1, size=3)
        alpha = 0.8
        sel = statistical_blocks(query, model, curve, 8, alpha)
        target = alpha * grid_probability(query, model, curve)
        assert sel.total_probability >= target - 1e-12

    def test_monte_carlo_expectation(self):
        """Planted distorted points land in V_alpha at rate >= alpha."""
        curve = HilbertCurve(3, 5)
        sigma = 3.0
        model = NormalDistortionModel(3, sigma)
        rng = np.random.default_rng(7)
        query = np.array([16.0, 12.0, 20.0])
        sel = statistical_blocks(query, model, curve, 9, 0.8)
        chosen = {
            int(p) for p in sel.prefixes
        }
        # Sample referenced points S = Q + dS conditioned on the grid.
        hits = total = 0
        while total < 4000:
            s = query + rng.normal(0, sigma, 3)
            if np.any(s < 0) or np.any(s >= curve.side):
                continue
            total += 1
            cell = [int(c) for c in np.floor(s)]
            prefix = curve.encode(cell) >> (curve.total_bits - 9)
            hits += prefix in chosen
        assert hits / total >= 0.78  # alpha = 0.8 minus sampling noise

    def test_counts_descents(self):
        curve = HilbertCurve(3, 4)
        model = NormalDistortionModel(3, 2.0)
        sel = statistical_blocks(np.array([8.0, 8.0, 8.0]), model, curve, 6, 0.9)
        assert sel.descents >= 1
        assert sel.nodes_visited > 0

    def test_rejects_bad_alpha(self):
        curve = HilbertCurve(2, 3)
        model = NormalDistortionModel(2, 1.0)
        with pytest.raises(ConfigurationError):
            statistical_blocks(np.zeros(2), model, curve, 4, 0.0)
        with pytest.raises(ConfigurationError):
            statistical_blocks(np.zeros(2), model, curve, 4, 1.0)

    @pytest.mark.parametrize("ndims, depth, cap", [
        (20, 16, 8),  # refused in the first head pass
        (3, 12, 64),  # the head passes fit; refused in a deep split
    ])
    def test_refuses_a_frontier_past_the_cap(self, monkeypatch, ndims, depth, cap):
        curve = HilbertCurve(ndims, 8)
        model = NormalDistortionModel(ndims, 10.0)
        query = np.full(ndims, 127.5)
        statistical_blocks(query, model, curve, depth, 0.8)  # fits the cap
        monkeypatch.setattr(filtering, "_DESCENT_ENTRIES", cap)
        with pytest.raises(ConfigurationError, match=(
            f"depth {depth} on a {ndims}-D curve would retain"
        )):
            statistical_blocks(query, model, curve, depth, 0.8)


class TestBestFirst:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_minimal_cardinality(self, seed):
        """Best-first returns the provably minimal block set."""
        curve = HilbertCurve(3, 4)
        model = NormalDistortionModel(3, 2.5)
        rng = np.random.default_rng(seed)
        query = rng.uniform(2, curve.side - 3, size=3)
        alpha = 0.75
        probs = brute_force_probs(curve, model, query, 7)
        target = alpha * sum(probs.values())
        # Greedy optimum by sorting all block probabilities.
        ordered = sorted(probs.values(), reverse=True)
        acc, k_min = 0.0, 0
        for v in ordered:
            acc += v
            k_min += 1
            if acc >= target:
                break
        sel = best_first_blocks(query, model, curve, 7, alpha)
        assert len(sel) == k_min
        assert sel.total_probability >= target - 1e-12

    def test_never_larger_than_threshold_method(self):
        curve = HilbertCurve(3, 4)
        model = NormalDistortionModel(3, 2.0)
        query = np.array([10.0, 5.0, 7.0])
        bf = best_first_blocks(query, model, curve, 8, 0.8)
        th = statistical_blocks(query, model, curve, 8, 0.8)
        assert len(bf) <= len(th)


class TestRangeBlocks:
    @pytest.mark.parametrize("seed,eps_frac", [(0, 0.2), (1, 0.4), (2, 0.05)])
    def test_matches_bruteforce(self, seed, eps_frac):
        curve = HilbertCurve(3, 4)
        rng = np.random.default_rng(seed)
        query = rng.uniform(0, curve.side - 1, size=3)
        epsilon = curve.side * eps_frac
        sel = range_blocks(query, epsilon, curve, 7)
        expected = sorted(
            n.prefix
            for n in blocks_at_depth(curve, 7)
            if n.min_sq_distance(query) <= epsilon**2
        )
        assert list(sel.prefixes) == expected

    def test_zero_radius_selects_home_block(self):
        curve = HilbertCurve(2, 4)
        query = np.array([5.2, 9.7])
        sel = range_blocks(query, 0.0, curve, 6)
        assert len(sel) >= 1
        for node in blocks_at_depth(curve, 6):
            if node.prefix in set(sel.prefixes.tolist()):
                assert node.min_sq_distance(query) == 0.0

    def test_rejects_negative_epsilon(self):
        curve = HilbertCurve(2, 3)
        with pytest.raises(ConfigurationError):
            range_blocks(np.zeros(2), -1.0, curve, 4)

    def test_sphere_intersections_grow_with_dimension(self):
        """The curse the paper exploits: an equal-expectation sphere cuts
        far more blocks (relative to the total) as D grows."""
        fractions = []
        for ndims in (2, 4, 6):
            curve = HilbertCurve(ndims, 3)
            depth = ndims  # one split per dimension
            query = np.full(ndims, curve.side / 2.0)
            eps = curve.side * 0.45
            sel = range_blocks(query, eps, curve, depth)
            fractions.append(len(sel) / 2.0**depth)
        assert fractions[0] <= fractions[-1]

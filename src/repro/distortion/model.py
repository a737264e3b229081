"""Distortion-vector models (paper §II and §IV-C).

The statistical query paradigm rests on a probabilistic model of the
*distortion vector* ``ΔS = S(m) − S(t(m))`` between the fingerprint of a
referenced pattern and the fingerprint of a transformed copy of it.  The
only structural assumption the S³ index needs is **component independence**
(``p_ΔS = Π_j p_ΔS_j``), so the box probabilities used by the statistical
filtering factorise into per-dimension integrals.

Two concrete models are provided:

* :class:`NormalDistortionModel` — the paper's working model: zero-mean
  normal with a single standard deviation ``σ`` shared by every component;
* :class:`PerComponentNormalModel` — zero-mean normal with an individual
  ``σ_j`` per component (the refinement the paper's §VI suggests).

Both expose the same interface: sampling, per-dimension interval
probabilities and box probabilities, so the index works with either.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from ..errors import ConfigurationError
from ..rng import SeedLike, resolve_rng


class IndependentDistortionModel:
    """Base class: a distortion model with independent components.

    Sub-classes implement :meth:`component_cdf`; everything else (interval
    and box probabilities, sampling) derives from it.
    """

    ndims: int

    def component_cdf(self, dim: int, x: np.ndarray) -> np.ndarray:
        """Return ``P(ΔS_dim <= x)`` element-wise."""
        raise NotImplementedError

    def cache_token(self) -> tuple:
        """A hashable identity used to key per-model result caches.

        Models with equal tokens must induce identical box probabilities;
        the default is instance identity (never collides across distinct
        live models, never shares across equal ones).  Concrete models
        override this with a value-based token so equal models share
        cached results.
        """
        return ("instance", id(self))

    def sample(self, size: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``(size, ndims)`` distortion vectors."""
        raise NotImplementedError

    def cdf_multi(self, dims: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Return ``P(ΔS_dims[i] <= x[i])`` element-wise.

        *dims* carries one dimension index per element of *x*; used by the
        vectorised statistical filtering where each tree node splits a
        different dimension.  Sub-classes override this with a closed-form
        batch evaluation; the base implementation loops per element.
        """
        dims = np.asarray(dims)
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
        for i in range(x.size):
            out.flat[i] = self.component_cdf(int(dims.flat[i]), x.flat[i])
        return out

    # ------------------------------------------------------------------
    def interval_probability(
        self, dim: int, lo: np.ndarray, hi: np.ndarray, query: float
    ) -> np.ndarray:
        """Return ``P(lo <= query + ΔS_dim < hi)`` element-wise.

        This is the probability that the *referenced* fingerprint
        ``S = Q + ΔS`` falls in ``[lo, hi)`` along dimension *dim*, given
        the candidate value *query* on that dimension.
        """
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        return self.component_cdf(dim, hi - query) - self.component_cdf(
            dim, lo - query
        )

    def box_probability(
        self, lo: np.ndarray, hi: np.ndarray, query: np.ndarray
    ) -> float:
        """Return ``P(Q + ΔS ∈ box)`` for the half-open box ``[lo, hi)``.

        Component independence makes this the product of the per-dimension
        interval probabilities — the integral of eq. (3) of the paper for a
        p-block.
        """
        prob = 1.0
        for j in range(self.ndims):
            prob *= float(
                self.interval_probability(j, np.asarray(lo[j]), np.asarray(hi[j]), float(query[j]))
            )
        return prob


class NormalDistortionModel(IndependentDistortionModel):
    """I.i.d. zero-mean normal distortion — the paper's working model.

    ``p_ΔS_j = N(0, σ)`` for every component ``j`` (§IV-C).  The single
    parameter ``σ`` doubles as the paper's transformation *severity*
    criterion.
    """

    def __init__(self, ndims: int, sigma: float):
        if ndims < 1:
            raise ConfigurationError(f"ndims must be >= 1, got {ndims}")
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be > 0, got {sigma}")
        self.ndims = ndims
        self.sigma = float(sigma)

    def component_cdf(self, dim: int, x: np.ndarray) -> np.ndarray:
        return ndtr(np.asarray(x, dtype=np.float64) / self.sigma)

    def cache_token(self) -> tuple:
        return ("normal", self.ndims, self.sigma)

    def sample(self, size: int, rng: SeedLike = None) -> np.ndarray:
        gen = resolve_rng(rng)
        return gen.normal(0.0, self.sigma, size=(size, self.ndims))

    # Fast paths used by the vectorised statistical filtering --------------
    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Shared-σ normal CDF (vectorised, dimension-agnostic)."""
        return ndtr(np.asarray(x, dtype=np.float64) / self.sigma)

    def cdf_multi(self, dims: np.ndarray, x: np.ndarray) -> np.ndarray:
        """All components share σ, so *dims* is irrelevant here."""
        return ndtr(np.asarray(x, dtype=np.float64) / self.sigma)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NormalDistortionModel(ndims={self.ndims}, sigma={self.sigma:g})"


class PerComponentNormalModel(IndependentDistortionModel):
    """Zero-mean normal distortion with an individual σ per component.

    The paper estimates per-component standard deviations ``σ_j`` and then
    collapses them to their mean; keeping them separate is the model
    refinement suggested in §VI and is benchmarked as an ablation.
    """

    def __init__(self, sigmas):
        sigmas = np.asarray(sigmas, dtype=np.float64)
        if sigmas.ndim != 1 or sigmas.size < 1:
            raise ConfigurationError("sigmas must be a 1-D non-empty array")
        if np.any(sigmas <= 0):
            raise ConfigurationError("all sigmas must be > 0")
        self.ndims = int(sigmas.size)
        self.sigmas = sigmas

    def component_cdf(self, dim: int, x: np.ndarray) -> np.ndarray:
        return ndtr(np.asarray(x, dtype=np.float64) / self.sigmas[dim])

    def cache_token(self) -> tuple:
        return ("per-component", self.ndims, self.sigmas.tobytes())

    def sample(self, size: int, rng: SeedLike = None) -> np.ndarray:
        gen = resolve_rng(rng)
        return gen.normal(0.0, 1.0, size=(size, self.ndims)) * self.sigmas

    def cdf_multi(self, dims: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Per-element normal CDF with the σ of each element's dimension."""
        dims = np.asarray(dims)
        x = np.asarray(x, dtype=np.float64)
        return ndtr(x / self.sigmas[dims])

    def mean_sigma(self) -> float:
        """Collapse to the paper's single-σ severity (mean of the σ_j)."""
        return float(self.sigmas.mean())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PerComponentNormalModel(ndims={self.ndims}, "
            f"mean_sigma={self.sigmas.mean():.3g})"
        )

"""Z-order (Morton) curve: the comparison ordering for the curve ablation.

The paper follows Faloutsos in choosing the Hilbert curve for its superior
locality.  This module provides the classic alternative — bit interleaving
(Z-order / Morton order) — with the same capabilities the S³ index needs:
bulk key computation and statistical/geometric block filtering over the
partition the key prefixes induce.

A ``p``-bit prefix of a Morton key is also an axis-aligned box: bit ``i``
of the key (from the MSB) halves dimension ``i mod D``, cycling through
the dimensions in fixed order with the *lower* half always first.  Unlike
the Hilbert curve, consecutive Morton blocks are frequently far apart in
space, so selected blocks merge into many more row sections — the
quantitative cost the ``bench_ablation_curve_choice`` benchmark measures.
"""

from __future__ import annotations

import numpy as np

from ..distortion.model import IndependentDistortionModel
from ..errors import ConfigurationError, GeometryError
from ..index.table import expand_ranges, key_row_ranges

_U64 = np.uint64


def morton_encode_batch(points: np.ndarray, order: int, levels: int) -> np.ndarray:
    """Interleave the top *levels* bits of each coordinate into Z-order keys.

    Same contract as :func:`repro.hilbert.vectorized.encode_batch`: the
    returned ``uint64`` keys hold ``levels * D`` bits, MSB-first by level
    and, within a level, by dimension index.
    """
    points = np.asarray(points)
    if points.ndim != 2:
        raise GeometryError(f"points must be 2-D (N, D), got shape {points.shape}")
    n = points.shape[1]
    if not 1 <= levels <= order:
        raise GeometryError(f"levels must be in [1, {order}], got {levels}")
    if levels * n > 64:
        raise GeometryError(
            f"levels * ndims = {levels * n} exceeds 64 bits; lower `levels`"
        )
    side = 1 << order
    coords = points.astype(np.int64, copy=False)
    if coords.min(initial=0) < 0 or coords.max(initial=0) >= side:
        raise GeometryError(f"coordinates outside [0, {side - 1}]")
    coords = coords.astype(_U64)

    keys = np.zeros(points.shape[0], dtype=_U64)
    for i in range(order - 1, order - 1 - levels, -1):
        for j in range(n):
            keys = (keys << _U64(1)) | ((coords[:, j] >> _U64(i)) & _U64(1))
    return keys


class MortonBlockSelector:
    """Vectorised block selection over the Morton partition.

    Far simpler than the Hilbert descent: at depth ``d`` *every* node
    splits dimension ``d mod D``, lower half first, so no per-node state is
    needed.
    """

    def __init__(self, ndims: int, order: int):
        if ndims < 1 or order < 1:
            raise GeometryError("ndims and order must be >= 1")
        self.ndims = ndims
        self.order = order
        self.side = 1 << order

    def statistical_blocks(
        self,
        query: np.ndarray,
        model: IndependentDistortionModel,
        depth: int,
        threshold: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(prefixes, probabilities)`` of blocks with mass > t."""
        query = self._check(query, depth)
        if not 0.0 < threshold < 1.0:
            raise ConfigurationError(
                f"threshold must be in (0, 1), got {threshold}"
            )
        n = self.ndims
        lo = np.zeros((1, n))
        hi = np.full((1, n), float(self.side))
        prefix = np.zeros(1, dtype=_U64)
        dims_all = np.arange(n)
        philo = model.cdf_multi(np.broadcast_to(dims_all, (1, n)), lo - query)
        phihi = model.cdf_multi(np.broadcast_to(dims_all, (1, n)), hi - query)
        prob = np.prod(phihi - philo, axis=1)

        for d in range(depth):
            j = d % n
            mid = 0.5 * (lo[:, j] + hi[:, j])
            phimid = model.cdf_multi(np.full(mid.size, j), mid - query[j])
            old = phihi[:, j] - philo[:, j]
            with np.errstate(invalid="ignore", divide="ignore"):
                p_low = np.where(old > 0, prob * (phimid - philo[:, j]) / old, 0.0)
                p_high = np.where(old > 0, prob * (phihi[:, j] - phimid) / old, 0.0)
            keep0 = p_low > threshold
            keep1 = p_high > threshold

            parts = []
            for value, keep, p_child in ((0, keep0, p_low), (1, keep1, p_high)):
                idx = np.nonzero(keep)[0]
                if idx.size == 0:
                    continue
                l2, h2 = lo[idx].copy(), hi[idx].copy()
                pl, ph = philo[idx].copy(), phihi[idx].copy()
                if value == 0:
                    h2[:, j] = mid[idx]
                    ph[:, j] = phimid[idx]
                else:
                    l2[:, j] = mid[idx]
                    pl[:, j] = phimid[idx]
                parts.append(
                    (
                        (prefix[idx] << _U64(1)) | _U64(value),
                        l2, h2, pl, ph, p_child[idx],
                    )
                )
            if not parts:
                return np.empty(0, dtype=_U64), np.empty(0)
            prefix = np.concatenate([p[0] for p in parts])
            lo = np.concatenate([p[1] for p in parts])
            hi = np.concatenate([p[2] for p in parts])
            philo = np.concatenate([p[3] for p in parts])
            phihi = np.concatenate([p[4] for p in parts])
            prob = np.concatenate([p[5] for p in parts])

        order_idx = np.argsort(prefix, kind="stable")
        return prefix[order_idx], prob[order_idx]

    def statistical_blocks_alpha(
        self,
        query: np.ndarray,
        model: IndependentDistortionModel,
        depth: int,
        alpha: float,
        shrink: float = 0.25,
        max_descents: int = 40,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Threshold iteration to expectation α (grid-conditioned)."""
        query = self._check(query, depth)
        lo = np.zeros(self.ndims)
        hi = np.full(self.ndims, float(self.side))
        grid_mass = model.box_probability(lo, hi, query)
        target = alpha * grid_mass
        t = (1.0 - alpha) / 4.0
        for _ in range(max_descents):
            prefixes, probs = self.statistical_blocks(query, model, depth, t)
            if probs.sum() >= target or t < 1e-12:
                return prefixes, probs
            t *= shrink
        return prefixes, probs  # pragma: no cover - max_descents generous

    def _check(self, query: np.ndarray, depth: int) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64).ravel()
        if query.size != self.ndims:
            raise ConfigurationError(
                f"query has {query.size} components, expected {self.ndims}"
            )
        if not 1 <= depth <= min(self.ndims * self.order, 64):
            raise ConfigurationError(f"invalid depth {depth}")
        return query


class MortonIndex:
    """A Z-order twin of :class:`~repro.index.s3.S3Index` (ablation only).

    Same storage layout discipline (sort by key, block ranges by binary
    search) with Morton keys; answers statistical queries so the curve
    choice can be compared end to end.
    """

    def __init__(
        self,
        store,
        order: int = 8,
        key_levels: int = 2,
        depth: int | None = None,
        model: IndependentDistortionModel | None = None,
    ):
        from ..index.store import FingerprintStore  # late: avoid cycle

        if not isinstance(store, FingerprintStore):
            raise ConfigurationError("store must be a FingerprintStore")
        if len(store) == 0:
            raise ConfigurationError("cannot index an empty store")
        keys = morton_encode_batch(store.fingerprints, order, key_levels)
        permutation = np.argsort(keys, kind="stable")
        self.keys = keys[permutation]
        self.store = store.take(permutation)
        self.key_bits = key_levels * store.ndims
        self.selector = MortonBlockSelector(store.ndims, order)
        if depth is None:
            depth = int(np.ceil(np.log2(max(len(store), 2))))
            depth = min(max(depth, 1), self.key_bits)
        self.depth = depth
        self.model = model

    def __len__(self) -> int:
        return len(self.store)

    def statistical_query(self, query: np.ndarray, alpha: float):
        """Statistical query returning ``(rows, num_blocks, num_sections)``."""
        if self.model is None:
            raise ConfigurationError("MortonIndex needs a distortion model")
        prefixes, _ = self.selector.statistical_blocks_alpha(
            query, self.model, self.depth, alpha
        )
        starts, ends, _ = key_row_ranges(
            self.keys, self.key_bits, prefixes, [len(prefixes)], self.depth
        )
        return expand_ranges(starts, ends), int(prefixes.size), starts.size

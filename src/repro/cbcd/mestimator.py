"""Robust temporal-offset estimation (paper §III, eq. (2)).

For each video identifier ``id`` present in the search results, the voting
strategy estimates the single parameter ``b`` of the temporal model
``tc' = tc + b`` (candidate time-code = referenced time-code + offset) by
minimising the robust cost

``b(id) = argmin_b  Σ_j  min_{k : Id_jk = id}  ρ(|tc'_j − (tc_jk + b)|)``

where ``ρ`` is the Tukey biweight M-estimator (after Black & Anandan), whose
redescending influence function suppresses outliers — the falsely retrieved
fingerprints an approximate search inevitably returns.

The minimisation is solved Hough-style: every pairwise difference
``tc'_j − tc_jk`` is a candidate offset; a coarse histogram proposes the
best few modes and the exact robust cost is evaluated on the candidate
offsets inside those modes.

One identifier's matches are three aligned columns: ``tcp`` (the
candidate time-code ``tc'_j`` of each match), ``tc`` (its referenced
time-code ``tc_jk``) and ``starts`` (the row where each candidate's run
begins).  All offsets of all modes are costed in one pass: residuals
broadcast to (matches × offsets), ``minimum.reduceat`` over the candidate
runs, ``ρ``, a running sum down each column — candidate after candidate,
so costs and ``argmin`` equal the per-candidate loop's
(``tests/cbcd/reference_vote.py``) to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


def tukey_rho(u: np.ndarray, c: float) -> np.ndarray:
    """Tukey's biweight loss ``ρ(u)``.

    ``ρ(u) = c²/6 · (1 − (1 − (u/c)²)³)`` for ``|u| <= c`` and ``c²/6``
    beyond — bounded, so distant outliers contribute a constant.
    """
    if c <= 0:
        raise ConfigurationError(f"c must be > 0, got {c}")
    u = np.asarray(u, dtype=np.float64)
    scaled = np.clip(np.abs(u) / c, 0.0, 1.0)
    # The cube is spelt as products: ``** 3`` rounds differently on an
    # array (SIMD pow) than on a scalar, and equal residuals must cost
    # the same however they are batched.
    t = 1.0 - scaled * scaled
    return (c * c / 6.0) * (1.0 - t * t * t)


def tukey_weight(u: np.ndarray, c: float) -> np.ndarray:
    """Tukey's biweight weight function ``w(u) = (1 − (u/c)²)²`` inside ``c``."""
    if c <= 0:
        raise ConfigurationError(f"c must be > 0, got {c}")
    u = np.asarray(u, dtype=np.float64)
    inside = np.abs(u) <= c
    w = (1.0 - (u / c) ** 2) ** 2
    return np.where(inside, w, 0.0)


@dataclass(frozen=True)
class OffsetEstimate:
    """Result of the robust offset estimation for one identifier."""

    offset: float
    cost: float
    num_candidates: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OffsetEstimate(b={self.offset:.2f}, cost={self.cost:.3g})"


#: Most float64 elements the (matches × offsets) residual matrix may hold
#: (8 MB); an identifier with more candidate offsets than fit is
#: evaluated in column chunks.
_SCRATCH_ELEMENTS = 1 << 20


def flatten_matches(
    candidate_tcs: list[float], matched_tcs: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One identifier's per-candidate lists as ``(tcp, tc, starts)`` columns."""
    if len(candidate_tcs) != len(matched_tcs):
        raise ConfigurationError("candidate_tcs and matched_tcs must align")
    lengths = np.array([np.size(tcs) for tcs in matched_tcs])
    if not lengths.size or not lengths.all():
        raise ConfigurationError(
            "need at least one candidate, each with at least one match"
        )
    tc = np.concatenate(matched_tcs, axis=None, dtype=np.float64)
    tcp = np.repeat(np.asarray(candidate_tcs, dtype=np.float64), lengths)
    return tcp, tc, np.cumsum(lengths) - lengths


def closest_residuals(
    tcp: np.ndarray, tc: np.ndarray, starts: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """``min_k |tc'_j − (tc_jk + b)|`` as a (candidates × offsets) matrix."""
    residuals = tc[:, None] + offsets
    np.subtract(tcp[:, None], residuals, out=residuals)
    np.abs(residuals, out=residuals)
    return np.minimum.reduceat(residuals, starts, axis=0)


def _robust_costs(tcp, tc, starts, offsets: np.ndarray, c: float) -> np.ndarray:
    """The cost of eq. (2) at each of *offsets*."""
    costs = np.empty(offsets.size)
    step = max(_SCRATCH_ELEMENTS // tc.size, 1)
    for k in range(0, offsets.size, step):
        closest = closest_residuals(tcp, tc, starts, offsets[k:k + step])
        # A running sum adds candidate after candidate, whatever the
        # shape; ``sum(axis=0)`` reduces a single column pairwise.
        costs[k:k + step] = np.cumsum(tukey_rho(closest, c), axis=0)[-1]
    return costs


def solve_offset(
    tcp: np.ndarray, tc: np.ndarray, starts: np.ndarray,
    c: float = 6.0, max_modes: int = 5,
) -> OffsetEstimate:
    """Solve eq. (2) for one identifier given as columns."""
    diffs = tcp - tc
    # Hough stage: coarse histogram of candidate offsets, bin width ~ c.
    lo, hi = float(diffs.min()), float(diffs.max())
    width = max(c, 1e-9)
    nbins = min(max(int(np.ceil((hi - lo) / width)), 1), 1_000_000)
    counts, edges = np.histogram(diffs, bins=nbins, range=(lo, hi + 1e-9))
    top_bins = np.argsort(counts, kind="stable")[::-1][:max_modes]
    top_bins = top_bins[counts[top_bins] > 0]

    # Exact cost at each member offset of the top modes (they are the only
    # values where some residual is exactly zero, hence the only local
    # minimiser candidates of the piecewise-smooth cost that matter), mode
    # by mode, ascending inside a mode; the first minimum wins.
    members = np.unique(diffs)
    first = np.searchsorted(members, edges[top_bins], side="left")
    last = np.searchsorted(members, edges[top_bins + 1], side="right")
    offsets = np.concatenate([members[a:b] for a, b in zip(first, last)])
    costs = _robust_costs(tcp, tc, starts, offsets, c)
    best = int(np.argmin(costs))
    best_b, best_cost = float(offsets[best]), float(costs[best])

    # Local refinement: one weighted least-squares step (IRLS) around the
    # best offset, using the per-candidate closest match.
    refined = _irls_refine(best_b, tcp, tc, starts, c)
    refined_cost = float(_robust_costs(tcp, tc, starts, np.array([refined]), c)[0])
    if refined_cost < best_cost:
        best_b, best_cost = refined, refined_cost

    return OffsetEstimate(best_b, best_cost, num_candidates=starts.size)


def _irls_refine(b: float, tcp, tc, starts, c: float, iterations: int = 3) -> float:
    rows = np.arange(tc.size)
    candidate = np.repeat(np.arange(starts.size), np.diff(starts, append=tc.size))
    for _ in range(iterations):
        signed = tcp - (tc + b)
        magnitude = np.abs(signed)
        closest = np.minimum.reduceat(magnitude, starts)
        # Each candidate's first match at its smallest |residual|.
        first = np.minimum.reduceat(
            np.where(magnitude == closest[candidate], rows, tc.size), starts
        )
        residuals = signed[first]
        weights = tukey_weight(residuals, c)
        wsum = weights.sum()
        if wsum <= 0:
            break
        step = float((weights * residuals).sum() / wsum)
        b += step
        if abs(step) < 1e-9:
            break
    return b


def estimate_offset(
    candidate_tcs: list[float],
    matched_tcs: list[np.ndarray],
    c: float = 6.0,
    max_modes: int = 5,
) -> OffsetEstimate:
    """Solve eq. (2) for one identifier.

    *candidate_tcs* are the time-codes ``tc'_j`` of the candidate
    fingerprints that retrieved at least one fingerprint of this
    identifier; *matched_tcs* holds, for each candidate ``j``, the array
    of referenced time-codes ``tc_jk`` with this identifier.  *c* is the
    Tukey scale, in the unit of the time-codes; the member offsets of the
    *max_modes* fullest histogram modes get an exact cost evaluation.
    """
    return solve_offset(*flatten_matches(candidate_tcs, matched_tcs), c, max_modes)

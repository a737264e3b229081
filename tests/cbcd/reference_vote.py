"""The loop-of-loops voting strategy the columnar kernel replaced.

These are the pre-kernel bodies of ``repro.cbcd.mestimator`` and
``repro.cbcd.voting``, moved here verbatim: a ``np.unique`` + mask per
(query, id), one ``_robust_cost`` call per candidate offset, one Python
iteration per candidate fingerprint.  They are the oracle the property
tests hold the kernel to, and nothing under ``src/`` imports them.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.cbcd.mestimator import OffsetEstimate, tukey_rho, tukey_weight
from repro.cbcd.voting import QueryMatches, Vote
from repro.errors import ConfigurationError


def _robust_cost(
    b: float,
    candidate_tcs: list[float],
    matched_tcs: list[np.ndarray],
    c: float,
) -> float:
    total = 0.0
    for tc_prime, tcs in zip(candidate_tcs, matched_tcs):
        residuals = np.abs(tc_prime - (tcs + b))
        total += float(tukey_rho(residuals.min(), c))
    return total


def estimate_offset(
    candidate_tcs: list[float],
    matched_tcs: list[np.ndarray],
    c: float = 6.0,
    max_modes: int = 5,
) -> OffsetEstimate:
    """Solve eq. (2) for one identifier.

    Parameters
    ----------
    candidate_tcs:
        The time-codes ``tc'_j`` of the candidate fingerprints that
        retrieved at least one fingerprint of this identifier.
    matched_tcs:
        For each candidate ``j``, the array of referenced time-codes
        ``tc_jk`` with this identifier.
    c:
        Tukey scale, in the same time unit as the time-codes.
    max_modes:
        Number of histogram modes whose member offsets get an exact cost
        evaluation.
    """
    if len(candidate_tcs) != len(matched_tcs):
        raise ConfigurationError(
            "candidate_tcs and matched_tcs must have equal length"
        )
    if not candidate_tcs:
        raise ConfigurationError("cannot estimate an offset from zero candidates")

    diffs = np.concatenate(
        [tc_prime - np.asarray(tcs, dtype=np.float64)
         for tc_prime, tcs in zip(candidate_tcs, matched_tcs)]
    )
    if diffs.size == 1:
        b = float(diffs[0])
        return OffsetEstimate(
            offset=b,
            cost=_robust_cost(b, candidate_tcs, matched_tcs, c),
            num_candidates=1,
        )

    # Hough stage: coarse histogram of candidate offsets, bin width ~ c.
    lo, hi = float(diffs.min()), float(diffs.max())
    width = max(c, 1e-9)
    nbins = max(int(np.ceil((hi - lo) / width)), 1)
    nbins = min(nbins, 1_000_000)
    counts, edges = np.histogram(diffs, bins=nbins, range=(lo, hi + 1e-9))
    top_bins = np.argsort(counts, kind="stable")[::-1][:max_modes]
    top_bins = top_bins[counts[top_bins] > 0]

    best_b = float(diffs[0])
    best_cost = np.inf
    evaluated = 0
    for bin_idx in top_bins:
        in_bin = diffs[(diffs >= edges[bin_idx]) & (diffs <= edges[bin_idx + 1])]
        # Evaluate exact cost at each member offset (they are the only
        # values where some residual is exactly zero, hence the only local
        # minimiser candidates of the piecewise-smooth cost that matter).
        for b in np.unique(in_bin):
            cost = _robust_cost(float(b), candidate_tcs, matched_tcs, c)
            evaluated += 1
            if cost < best_cost:
                best_cost = cost
                best_b = float(b)

    # Local refinement: one weighted least-squares step (IRLS) around the
    # best offset, using the per-candidate closest match.
    refined = _irls_refine(best_b, candidate_tcs, matched_tcs, c)
    refined_cost = _robust_cost(refined, candidate_tcs, matched_tcs, c)
    if refined_cost < best_cost:
        best_b, best_cost = refined, refined_cost

    return OffsetEstimate(
        offset=best_b, cost=best_cost, num_candidates=len(candidate_tcs)
    )


def _irls_refine(
    b: float,
    candidate_tcs: list[float],
    matched_tcs: list[np.ndarray],
    c: float,
    iterations: int = 3,
) -> float:
    for _ in range(iterations):
        residuals = []
        for tc_prime, tcs in zip(candidate_tcs, matched_tcs):
            r = tc_prime - (np.asarray(tcs, dtype=np.float64) + b)
            residuals.append(r[np.argmin(np.abs(r))])
        residuals = np.asarray(residuals)
        weights = tukey_weight(residuals, c)
        wsum = weights.sum()
        if wsum <= 0:
            break
        step = float((weights * residuals).sum() / wsum)
        b += step
        if abs(step) < 1e-9:
            break
    return b


def group_by_identifier(
    matches: list[QueryMatches],
) -> dict[int, tuple[list[float], list[np.ndarray]]]:
    """Regroup per-query matches into per-identifier vote inputs.

    Returns, for each identifier, the candidate time-codes ``tc'_j`` that
    matched it and, aligned, the arrays of referenced time-codes
    ``tc_jk``.
    """
    grouped: dict[int, tuple[list[float], list[np.ndarray]]] = defaultdict(
        lambda: ([], [])
    )
    for match in matches:
        ids = np.asarray(match.ids)
        tcs = np.asarray(match.timecodes, dtype=np.float64)
        if ids.shape != tcs.shape:
            raise ConfigurationError("ids and timecodes must align")
        for uid in np.unique(ids):
            sel = tcs[ids == uid]
            entry = grouped[int(uid)]
            entry[0].append(float(match.timecode))
            entry[1].append(sel)
    return dict(grouped)


def count_votes(
    candidate_tcs: list[float],
    matched_tcs: list[np.ndarray],
    offset: float,
    tolerance: float,
) -> int:
    """Count candidates consistent with *offset* within *tolerance*.

    One vote per candidate fingerprint (interest point), however many of
    its matches agree.
    """
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    votes = 0
    for tc_prime, tcs in zip(candidate_tcs, matched_tcs):
        residuals = np.abs(tc_prime - (np.asarray(tcs, dtype=np.float64) + offset))
        if residuals.min() <= tolerance:
            votes += 1
    return votes


def vote(
    matches: list[QueryMatches],
    tolerance: float = 2.0,
    tukey_c: float = 6.0,
    min_matches: int = 2,
) -> list[Vote]:
    """Run the full voting strategy over a buffer of query matches.

    Returns one :class:`Vote` per identifier with at least *min_matches*
    matched candidates, sorted by decreasing ``n_sim``.
    """
    grouped = group_by_identifier(matches)
    votes: list[Vote] = []
    for uid, (cand_tcs, match_tcs) in grouped.items():
        if len(cand_tcs) < min_matches:
            continue
        estimate: OffsetEstimate = estimate_offset(cand_tcs, match_tcs, c=tukey_c)
        nsim = count_votes(cand_tcs, match_tcs, estimate.offset, tolerance)
        votes.append(
            Vote(
                video_id=uid,
                offset=estimate.offset,
                nsim=nsim,
                num_candidates=len(cand_tcs),
                cost=estimate.cost,
            )
        )
    votes.sort(key=lambda v: (-v.nsim, v.cost))
    return votes

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

The matches of many identifiers are four aligned columns: ``tcp`` (the
candidate time-code ``tc'_j`` of each match), ``tc`` (its referenced
time-code ``tc_jk``), ``starts`` (the row where each candidate's run
begins) and ``first`` (the candidate where each identifier begins, plus
the end), rows sorted by identifier, then candidate.  :func:`solve_offsets`
solves eq. (2) for every identifier in one pass of each stage: one sparse
histogram, one set of modes, one cost table — residuals broadcast to
(matches × offsets), ``minimum.reduceat`` over the candidate runs, ``ρ``, a
running sum down each identifier's candidates — and one IRLS loop over the
identifiers still moving.  Every value goes through the IEEE operations of the
per-candidate loop (``tests/cbcd/reference_vote.py``), in its order, so
offsets and costs equal the loop's to the last bit.
"""

from __future__ import annotations

from collections.abc import Iterator
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


#: Most float64 elements any working array of the cost table may hold
#: (8 MB), padding included; identifiers are costed in groups that fit,
#: and an identifier with more candidate offsets than fit alone is
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
    tcp: np.ndarray, tc: np.ndarray, starts: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """``min_k |tc'_j − (tc_jk + b)|`` per candidate run.

    *b* holds one offset per row, or a row of offsets per row; it is
    overwritten as scratch.
    """
    if b.ndim == 2:
        tcp, tc = tcp[:, None], tc[:, None]
    np.add(tc, b, out=b)
    np.subtract(tcp, b, out=b)
    np.abs(b, out=b)
    return np.minimum.reduceat(b, starts, axis=0)


def _ranges(lo: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, a + n) for a, n in zip(lo, lengths)])``."""
    ends = np.cumsum(lengths)
    shift = np.repeat(lo - ends + lengths, lengths)
    return np.arange(shift.size) + shift


def _first_min(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Index of each segment's first minimum (``argmin``, segment-wise)."""
    owner = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    lowest = np.minimum.reduceat(values, bounds[:-1])
    at = np.where(values == lowest[owner], np.arange(values.size), values.size)
    return np.minimum.reduceat(at, bounds[:-1])


def _groups(
    rows: np.ndarray, candidates: np.ndarray, offsets: np.ndarray
) -> Iterator[tuple[np.ndarray, int, int]]:
    """Yield ``(identifiers, k0, width)`` blocks of the cost table.

    Identifiers, fullest first, are grouped while the group's padded
    (rows × width) residuals and (identifiers × candidates × width)
    running sums stay within ``_SCRATCH_ELEMENTS``; an identifier too
    large for that alone is cut into column chunks of its offsets.
    """
    group: list[int] = []
    nrows = ncand = width = 0
    for i in np.argsort(-candidates, kind="stable").tolist():
        r, n, o = int(rows[i]), int(candidates[i]), int(offsets[i])
        padded = max(nrows + r, (len(group) + 1) * max(ncand, n))
        if group and padded * max(width, o) > _SCRATCH_ELEMENTS:
            yield np.array(group), 0, width
            group, nrows, ncand, width = [], 0, 0, 0
        if not group and r * o > _SCRATCH_ELEMENTS:
            step = max(_SCRATCH_ELEMENTS // r, 1)
            for k0 in range(0, o, step):
                yield np.array([i]), k0, min(step, o - k0)
            continue
        group.append(i)
        nrows, ncand, width = nrows + r, max(ncand, n), max(width, o)
    if group:
        yield np.array(group), 0, width


def _costs(
    tcp: np.ndarray, tc: np.ndarray, starts: np.ndarray, first: np.ndarray,
    offsets: np.ndarray, counts: np.ndarray, c: float,
) -> np.ndarray:
    """Eq. (2)'s cost at every offset; identifier ``i`` owns the next
    ``counts[i]`` entries of *offsets*."""
    row_lo = np.append(starts, tc.size)[first]
    off_lo = np.cumsum(counts) - counts
    costs = np.empty(offsets.size)
    for ids, k0, width in _groups(np.diff(row_lo), np.diff(first), counts):
        # Columns past an identifier's offsets repeat its first offset
        # and are dropped.
        column = k0 + np.arange(width)
        valid = column < counts[ids][:, None]
        at = off_lo[ids][:, None] + np.where(valid, column, 0)
        costs[at[valid]] = _cost_table(
            tcp, tc, starts, row_lo, first, ids, offsets[at], c
        )[valid]
    return costs


def _cost_table(
    tcp: np.ndarray, tc: np.ndarray, starts: np.ndarray, row_lo: np.ndarray,
    first: np.ndarray, ids: np.ndarray, b: np.ndarray, c: float,
) -> np.ndarray:
    """The (identifiers × offsets) costs of *ids*; row ``i`` of *b* holds
    the offsets of identifier ``ids[i]``."""
    rows = row_lo[ids + 1] - row_lo[ids]
    candidates = first[ids + 1] - first[ids]
    cand_owner = np.repeat(np.arange(ids.size), candidates)
    g_cands = _ranges(first[ids], candidates)
    # Each candidate's run start, renumbered within the group's rows.
    runs = starts[g_cands] + (np.cumsum(rows) - rows - row_lo[ids])[cand_owner]
    g_rows = _ranges(row_lo[ids], rows)
    rho = tukey_rho(closest_residuals(
        tcp[g_rows], tc[g_rows], runs, np.repeat(b, rows, axis=0)
    ), c)
    if ids.size > 1:
        # Zero-pad each identifier's candidates at the end: adding +0.0
        # leaves a running sum unchanged, bit for bit.
        cand_lo = np.cumsum(candidates) - candidates
        position = np.arange(g_cands.size) - cand_lo[cand_owner]
        padded = np.zeros((ids.size, int(candidates.max()), b.shape[1]))
        padded[cand_owner, position] = rho
        rho = padded
    # A running sum adds candidate after candidate, whatever the shape;
    # ``sum`` would reduce a single column pairwise.
    return np.cumsum(rho, axis=-2)[..., -1, :].reshape(b.shape)


def _modes(
    diffs: np.ndarray, owner: np.ndarray, bounds: np.ndarray, c: float,
    max_modes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Every identifier's candidate offsets: the unique members of its
    *max_modes* fullest histogram bins, in (mode rank, value) order.

    The histogram is ``np.histogram(d, bins=nbins, range=(lo, hi + 1e-9))``
    of each identifier's offsets, with numpy's uniform-bin arithmetic
    reproduced exactly but only occupied bins counted (``nbins`` reaches
    10⁶ per identifier).  Returns ``(offsets, counts per identifier)``.
    """
    lo = np.minimum.reduceat(diffs, bounds[:-1])
    hi = np.maximum.reduceat(diffs, bounds[:-1])
    # Hough stage: coarse histogram of candidate offsets, bin width ~ c.
    width = max(c, 1e-9)
    nbins = np.clip(np.ceil((hi - lo) / width), 1, 1_000_000)
    first_edge, last_edge = lo, hi + 1e-9
    flat = first_edge == last_edge
    first_edge = np.where(flat, first_edge - 0.5, first_edge)
    last_edge = np.where(flat, last_edge + 0.5, last_edge)
    span = last_edge - first_edge
    step = span / nbins

    def edge(j, at):
        """``linspace``'s edge *j*: ``j * step + first``, the last is last."""
        return np.where(
            j == nbins[at], last_edge[at], j * step[at] + first_edge[at]
        )

    # ``np.histogram``'s bin index, its ±1 corrections and last-bin rule.
    index = ((diffs - first_edge[owner]) / span[owner]) * nbins[owner]
    index = index.astype(np.intp)
    index[index == nbins[owner]] -= 1
    index[diffs < edge(index, owner)] -= 1
    index[(diffs >= edge(index + 1, owner)) & (index != nbins[owner] - 1)] += 1

    # Occupied bins, sorted by (identifier, offset): bins follow offsets.
    order = np.lexsort((diffs, owner))
    d, o, b = diffs[order], owner[order], index[order]
    new_bin = np.flatnonzero(np.r_[True, (o[1:] != o[:-1]) | (b[1:] != b[:-1])])
    fill = np.diff(np.append(new_bin, d.size))
    unique = np.r_[True, (o[1:] != o[:-1]) | (d[1:] != d[:-1])]
    d, o, b = d[unique], o[unique], b[unique]
    bin_lo = np.flatnonzero(np.r_[True, (o[1:] != o[:-1]) | (b[1:] != b[:-1])])
    bin_hi = np.append(bin_lo[1:], d.size)
    bin_owner, bin_index = o[bin_lo], b[bin_lo]
    # A mode's members run to its upper edge inclusive: the next bin's
    # first offset joins it when it lies exactly on that edge.
    nxt = np.minimum(bin_hi, d.size - 1)
    bin_hi += (bin_hi < d.size) & (o[nxt] == bin_owner) & (
        d[nxt] == edge(bin_index + 1, bin_owner)
    )

    # Fullest bins first; ties to the higher bin, as in
    # ``argsort(counts, kind="stable")[::-1]``.
    rank = np.lexsort((-bin_index, -fill, bin_owner))
    per_owner = np.bincount(bin_owner, minlength=bounds.size - 1)
    owner_lo = np.cumsum(per_owner) - per_owner
    top = rank[np.arange(rank.size) - owner_lo[bin_owner[rank]] < max_modes]
    lengths = bin_hi[top] - bin_lo[top]
    counts = np.bincount(bin_owner[top], lengths, bounds.size - 1)
    return d[_ranges(bin_lo[top], lengths)], counts.astype(np.int64)


def solve_offsets(
    tcp: np.ndarray, tc: np.ndarray, starts: np.ndarray, first: np.ndarray,
    c: float = 6.0, max_modes: int = 5,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve eq. (2) for every identifier of the columns.

    Returns ``(offsets, costs)``, one entry per identifier.  Each is what
    the per-identifier estimate gives: the first minimum of the exact
    cost over the member offsets of the top modes (they are the only
    values where some residual is exactly zero, hence the only local
    minimiser candidates of the piecewise-smooth cost that matter), then
    up to three weighted least-squares steps (IRLS) around it on each
    candidate's closest match, kept if they lower the cost.
    """
    num = first.size - 1
    row_bounds = np.append(starts, tc.size)
    owner = np.repeat(np.arange(num), np.diff(row_bounds[first]))
    offsets, counts = _modes(tcp - tc, owner, row_bounds[first], c, max_modes)
    costs = _costs(tcp, tc, starts, first, offsets, counts, c)
    best = _first_min(costs, np.append(0, np.cumsum(counts)))
    best_b, best_cost = offsets[best], costs[best]

    b = best_b.copy()
    cand_bounds = first.tolist()
    active = list(range(num))
    for _ in range(3):
        if not active:
            break
        signed = tcp - (tc + b[owner])
        # Each candidate's first match at its smallest |residual|.
        residuals = signed[_first_min(np.abs(signed), row_bounds)]
        weights = tukey_weight(residuals, c)
        moments = weights * residuals
        still = []
        for i in active:
            # Each identifier's sums stay ``.sum()`` over its own slice:
            # numpy sums a slice pairwise, a batched reduction would not.
            lo, hi = cand_bounds[i], cand_bounds[i + 1]
            wsum = weights[lo:hi].sum()
            if wsum <= 0:
                continue
            step = float(moments[lo:hi].sum() / wsum)
            b[i] += step
            if abs(step) >= 1e-9:
                still.append(i)
        active = still

    refined_cost = _costs(tcp, tc, starts, first, b, np.ones(num, np.int64), c)
    better = refined_cost < best_cost
    return np.where(better, b, best_b), np.where(better, refined_cost, best_cost)


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
    tcp, tc, starts = flatten_matches(candidate_tcs, matched_tcs)
    offsets, costs = solve_offsets(
        tcp, tc, starts, np.array([0, starts.size]), c, max_modes
    )
    return OffsetEstimate(float(offsets[0]), float(costs[0]), starts.size)

"""The descent-per-probe block selection the one-descent kernel replaced.

These are the pre-kernel bodies of ``repro.index.filtering``, moved here
verbatim: a level-synchronous tree descent carrying ``(N, D)`` float box
bounds and per-dimension CDF values, one whole descent per probe of the
eq. (4) threshold search.  They are the oracle the property tests hold
the kernel to, and nothing under ``src/`` imports them.  The only edits:
the warm-start cache wrappers and the first-probe argument they fed are
gone, as they are from the kernel, so every search starts at
``(1 - alpha) / 4``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.distortion.model import IndependentDistortionModel
from repro.errors import ConfigurationError
from repro.hilbert.butz import HilbertCurve
from repro.hilbert.vectorized import update_state_batch
from repro.index.filtering import (
    BlockSelection,
    _check_depth,
    _check_queries,
    _check_query,
    grid_probability,
    grid_probability_multi,
)

_U64 = np.uint64


@dataclass
class _Frontier:
    """Mutable node-array state of one vectorised descent."""

    entry: np.ndarray
    direction: np.ndarray
    partial_w: np.ndarray
    prefix: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    extra: dict[str, np.ndarray] = field(default_factory=dict)


def _root_frontier(curve: HilbertCurve) -> _Frontier:
    n = curve.ndims
    return _Frontier(
        entry=np.zeros(1, dtype=_U64),
        direction=np.zeros(1, dtype=_U64),
        partial_w=np.zeros(1, dtype=_U64),
        prefix=np.zeros(1, dtype=_U64),
        lo=np.zeros((1, n), dtype=np.float64),
        hi=np.full((1, n), float(curve.side), dtype=np.float64),
    )


def _split_geometry(
    fr: _Frontier, curve: HilbertCurve, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(dims, mid, value_child0, rows)`` for the next split.

    Mirrors :meth:`PartitionNode.split_info` on the whole frontier: *dims*
    is the dimension each node splits, *mid* the split coordinate and
    *value_child0* whether curve-child 0 takes the lower (0) or upper (1)
    half.
    """
    n = curve.ndims
    q = depth % n
    dims = ((_U64(n - q) + fr.direction) % _U64(n)).astype(np.int64)
    rows = np.arange(dims.size)
    mid = 0.5 * (fr.lo[rows, dims] + fr.hi[rows, dims])
    if q > 0:
        prev_w_bit = fr.partial_w & _U64(1)
    else:
        prev_w_bit = np.zeros(dims.size, dtype=_U64)
    e_bit = (fr.entry >> dims.astype(_U64)) & _U64(1)
    value_child0 = (prev_w_bit ^ e_bit).astype(np.int64)
    return dims, mid, value_child0, rows


def _advance(
    fr: _Frontier,
    curve: HilbertCurve,
    depth: int,
    dims: np.ndarray,
    mid: np.ndarray,
    value_child0: np.ndarray,
    keep0: np.ndarray,
    keep1: np.ndarray,
) -> _Frontier:
    """Materialise the surviving children of the frontier.

    ``keep0`` / ``keep1`` select which lower-half / upper-half children
    survive pruning.  Returns the next frontier (curve order is *not*
    preserved here; selections are sorted at the end).
    """
    n = curve.ndims
    q = depth % n

    parts = []
    for value, keep in ((0, keep0), (1, keep1)):
        idx = np.nonzero(keep)[0]
        if idx.size == 0:
            continue
        b = (np.int64(value) ^ value_child0[idx]).astype(_U64)
        lo = fr.lo[idx].copy()
        hi = fr.hi[idx].copy()
        if value == 0:
            hi[np.arange(idx.size), dims[idx]] = mid[idx]
        else:
            lo[np.arange(idx.size), dims[idx]] = mid[idx]
        part = _Frontier(
            entry=fr.entry[idx],
            direction=fr.direction[idx],
            partial_w=(fr.partial_w[idx] << _U64(1)) | b,
            prefix=(fr.prefix[idx] << _U64(1)) | b,
            lo=lo,
            hi=hi,
            extra={k: v[idx] for k, v in fr.extra.items()},
        )
        parts.append((value, idx, part))

    if not parts:
        out = _Frontier(
            entry=np.empty(0, dtype=_U64),
            direction=np.empty(0, dtype=_U64),
            partial_w=np.empty(0, dtype=_U64),
            prefix=np.empty(0, dtype=_U64),
            lo=np.empty((0, n)),
            hi=np.empty((0, n)),
            extra={k: v[:0] for k, v in fr.extra.items()},
        )
    else:
        out = _Frontier(
            entry=np.concatenate([p.entry for _, _, p in parts]),
            direction=np.concatenate([p.direction for _, _, p in parts]),
            partial_w=np.concatenate([p.partial_w for _, _, p in parts]),
            prefix=np.concatenate([p.prefix for _, _, p in parts]),
            lo=np.concatenate([p.lo for _, _, p in parts]),
            hi=np.concatenate([p.hi for _, _, p in parts]),
            extra={
                k: np.concatenate([p.extra[k] for _, _, p in parts])
                for k in fr.extra
            },
        )

    if q + 1 == n and out.prefix.size:
        out.entry, out.direction = update_state_batch(
            out.entry, out.direction, out.partial_w, n
        )
        out.partial_w = np.zeros_like(out.partial_w)
    return out


def select_blocks_threshold(
    query: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    threshold: float,
) -> BlockSelection:
    """Return the paper's ``B(t)``: depth-``p`` blocks with probability > t.

    One vectorised descent; a sub-tree is pruned as soon as its box
    probability drops to *threshold* or below.
    """
    query = _check_query(query, curve)
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1), got {threshold}")
    _check_depth(depth, curve)

    n = curve.ndims
    fr = _root_frontier(curve)
    dims_all = np.arange(n)
    philo = model.cdf_multi(
        np.broadcast_to(dims_all, (1, n)), fr.lo - query[None, :]
    )
    phihi = model.cdf_multi(
        np.broadcast_to(dims_all, (1, n)), fr.hi - query[None, :]
    )
    fr.extra["philo"] = philo
    fr.extra["phihi"] = phihi
    fr.extra["prob"] = np.prod(phihi - philo, axis=1)

    nodes = 0
    for d in range(depth):
        m = fr.prefix.size
        if m == 0:
            break
        nodes += m
        dims, mid, v0, rows = _split_geometry(fr, curve, d)
        phimid = model.cdf_multi(dims, mid - query[dims])
        philo_j = fr.extra["philo"][rows, dims]
        phihi_j = fr.extra["phihi"][rows, dims]
        old = phihi_j - philo_j
        prob = fr.extra["prob"]
        with np.errstate(invalid="ignore", divide="ignore"):
            prob_low = np.where(old > 0, prob * (phimid - philo_j) / old, 0.0)
            prob_high = np.where(old > 0, prob * (phihi_j - phimid) / old, 0.0)
        keep0 = prob_low > threshold
        keep1 = prob_high > threshold

        # Stash child CDF values before _advance copies rows around.
        child_prob = {0: prob_low, 1: prob_high}
        nxt = _advance(fr, curve, d, dims, mid, v0, keep0, keep1)
        # Rebuild the per-child extras in the same concatenation order.
        extras_prob = []
        extras_philo = []
        extras_phihi = []
        for value, keep in ((0, keep0), (1, keep1)):
            idx = np.nonzero(keep)[0]
            if idx.size == 0:
                continue
            pl = fr.extra["philo"][idx].copy()
            ph = fr.extra["phihi"][idx].copy()
            if value == 0:
                ph[np.arange(idx.size), dims[idx]] = phimid[idx]
            else:
                pl[np.arange(idx.size), dims[idx]] = phimid[idx]
            extras_philo.append(pl)
            extras_phihi.append(ph)
            extras_prob.append(child_prob[value][idx])
        if extras_prob:
            nxt.extra["philo"] = np.concatenate(extras_philo)
            nxt.extra["phihi"] = np.concatenate(extras_phihi)
            nxt.extra["prob"] = np.concatenate(extras_prob)
        else:
            nxt.extra["philo"] = np.empty((0, n))
            nxt.extra["phihi"] = np.empty((0, n))
            nxt.extra["prob"] = np.empty(0)
        fr = nxt

    order = np.argsort(fr.prefix, kind="stable")
    probs = fr.extra.get("prob", np.empty(0))[order]
    return BlockSelection(
        prefixes=fr.prefix[order],
        probabilities=probs,
        depth=depth,
        threshold=threshold,
        total_probability=float(probs.sum()),
        nodes_visited=nodes,
    )


def statistical_blocks(
    query: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    alpha: float,
    shrink: float = 0.25,
    refine_steps: int = 1,
    grow_steps: int = 2,
    max_descents: int = 40,
) -> BlockSelection:
    """Compute the statistical query block set of expectation *alpha*.

    Searches ``t_max`` of eq. (4): the largest threshold whose block set
    ``B(t)`` still carries probability mass at least *alpha*.  ``P_sup(t)``
    is monotone non-increasing in ``t``, so the search first shrinks ``t``
    geometrically (factor *shrink*) from ``(1 - alpha) / 4`` until
    ``P_sup >= alpha``; if the very first probe succeeds with no failure
    bracket it instead *grows* ``t`` up to *grow_steps* times (so an
    over-generous start does not inflate the block set), and finally
    bisects *refine_steps* times inside whatever bracket exists to push
    ``t`` back up (fewer, higher-probability blocks).  Every probe is one
    full descent; probes are counted in ``descents`` / ``nodes_visited``.

    The expectation is conditioned on the referenced fingerprint lying in
    the byte grid: the distortion model leaks mass outside ``[0, 2^K)^D``
    where no fingerprint can exist, so the effective target is
    ``alpha * P(Q + ΔS ∈ grid)``.  Without this conditioning, queries near
    the grid boundary could make eq. (4) infeasible and degenerate into a
    full scan.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < shrink < 1.0:
        raise ConfigurationError(f"shrink must be in (0, 1), got {shrink}")
    query = _check_query(query, curve)
    alpha_target = alpha * grid_probability(query, model, curve)
    t = min(max((1.0 - alpha) / 4.0, 1e-12), 1.0 - 1e-12)

    nodes = 0
    descents = 0
    t_fail = None  # smallest t observed with P_sup < alpha_target
    best: BlockSelection | None = None
    while descents < max_descents:
        sel = select_blocks_threshold(query, model, curve, depth, t)
        descents += 1
        nodes += sel.nodes_visited
        if sel.total_probability >= alpha_target:
            best = sel
            break
        t_fail = t
        t *= shrink
        if t < 1e-12:
            best = sel  # cannot go lower; accept the closest achievable set
            break
    if best is None:  # pragma: no cover - max_descents is generous
        best = sel

    # A cold start can succeed immediately, leaving no failure bracket; try
    # growing t so an over-generous initial threshold does not inflate the
    # block set (larger t => fewer blocks).  Warm-started callers manage
    # this drift themselves and pass grow_steps=0.
    grow = 0
    while (
        t_fail is None
        and best.total_probability >= alpha_target
        and grow < grow_steps
        and descents < max_descents
        and best.threshold * 4.0 < 1.0
    ):
        t_up = best.threshold * 4.0
        sel = select_blocks_threshold(query, model, curve, depth, t_up)
        descents += 1
        nodes += sel.nodes_visited
        grow += 1
        if sel.total_probability >= alpha_target:
            best = sel
        else:
            t_fail = t_up

    if best.total_probability >= alpha_target and t_fail is not None:
        t_ok = best.threshold
        for _ in range(refine_steps):
            t_mid = 0.5 * (t_ok + t_fail)
            sel = select_blocks_threshold(query, model, curve, depth, t_mid)
            descents += 1
            nodes += sel.nodes_visited
            if sel.total_probability >= alpha_target:
                best = sel
                t_ok = t_mid
            else:
                t_fail = t_mid

    return BlockSelection(
        prefixes=best.prefixes,
        probabilities=best.probabilities,
        depth=depth,
        threshold=best.threshold,
        total_probability=best.total_probability,
        nodes_visited=nodes,
        descents=descents,
    )


def select_blocks_threshold_multi(
    queries: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    thresholds: np.ndarray,
) -> list[BlockSelection]:
    """Batched :func:`select_blocks_threshold`: one descent for B queries.

    *queries* is ``(B, D)``; *thresholds* carries one pruning threshold
    per query.  Returns one :class:`BlockSelection` per query, each
    bit-identical to the single-query selector's output.
    """
    queries = _check_queries(queries, curve)
    thresholds = np.asarray(thresholds, dtype=np.float64).ravel()
    if thresholds.size != queries.shape[0]:
        raise ConfigurationError(
            f"got {queries.shape[0]} queries but {thresholds.size} thresholds"
        )
    if thresholds.size and not np.all((thresholds > 0.0) & (thresholds < 1.0)):
        raise ConfigurationError("thresholds must be in (0, 1)")
    _check_depth(depth, curve)

    num = queries.shape[0]
    if num == 0:
        return []
    n = curve.ndims
    fr = _Frontier(
        entry=np.zeros(num, dtype=_U64),
        direction=np.zeros(num, dtype=_U64),
        partial_w=np.zeros(num, dtype=_U64),
        prefix=np.zeros(num, dtype=_U64),
        lo=np.zeros((num, n), dtype=np.float64),
        hi=np.full((num, n), float(curve.side), dtype=np.float64),
    )
    dims_all = np.arange(n)
    philo = model.cdf_multi(np.broadcast_to(dims_all, (num, n)), fr.lo - queries)
    phihi = model.cdf_multi(np.broadcast_to(dims_all, (num, n)), fr.hi - queries)
    fr.extra["philo"] = philo
    fr.extra["phihi"] = phihi
    fr.extra["prob"] = np.prod(phihi - philo, axis=1)
    fr.extra["qidx"] = np.arange(num, dtype=np.int64)

    nodes = np.zeros(num, dtype=np.int64)
    for d in range(depth):
        if fr.prefix.size == 0:
            break
        qidx = fr.extra["qidx"]
        nodes += np.bincount(qidx, minlength=num)
        dims, mid, v0, rows = _split_geometry(fr, curve, d)
        phimid = model.cdf_multi(dims, mid - queries[qidx, dims])
        philo_j = fr.extra["philo"][rows, dims]
        phihi_j = fr.extra["phihi"][rows, dims]
        old = phihi_j - philo_j
        prob = fr.extra["prob"]
        with np.errstate(invalid="ignore", divide="ignore"):
            prob_low = np.where(old > 0, prob * (phimid - philo_j) / old, 0.0)
            prob_high = np.where(old > 0, prob * (phihi_j - phimid) / old, 0.0)
        t_row = thresholds[qidx]
        keep0 = prob_low > t_row
        keep1 = prob_high > t_row

        child_prob = {0: prob_low, 1: prob_high}
        nxt = _advance(fr, curve, d, dims, mid, v0, keep0, keep1)
        # Rebuild the CDF extras child-by-child in _advance's order; qidx
        # rides along automatically through the frontier's extra dict.
        extras_prob = []
        extras_philo = []
        extras_phihi = []
        for value, keep in ((0, keep0), (1, keep1)):
            idx = np.nonzero(keep)[0]
            if idx.size == 0:
                continue
            pl = fr.extra["philo"][idx].copy()
            ph = fr.extra["phihi"][idx].copy()
            if value == 0:
                ph[np.arange(idx.size), dims[idx]] = phimid[idx]
            else:
                pl[np.arange(idx.size), dims[idx]] = phimid[idx]
            extras_philo.append(pl)
            extras_phihi.append(ph)
            extras_prob.append(child_prob[value][idx])
        if extras_prob:
            nxt.extra["philo"] = np.concatenate(extras_philo)
            nxt.extra["phihi"] = np.concatenate(extras_phihi)
            nxt.extra["prob"] = np.concatenate(extras_prob)
        else:
            nxt.extra["philo"] = np.empty((0, n))
            nxt.extra["phihi"] = np.empty((0, n))
            nxt.extra["prob"] = np.empty(0)
        fr = nxt

    qidx = fr.extra["qidx"]
    order = np.lexsort((fr.prefix, qidx))
    prefixes = fr.prefix[order]
    probs = fr.extra["prob"][order]
    q_sorted = qidx[order]
    bounds = np.searchsorted(q_sorted, np.arange(num + 1))
    selections = []
    for i in range(num):
        s, e = int(bounds[i]), int(bounds[i + 1])
        p = probs[s:e]
        selections.append(BlockSelection(
            prefixes=prefixes[s:e],
            probabilities=p,
            depth=depth,
            threshold=float(thresholds[i]),
            total_probability=float(p.sum()),
            nodes_visited=int(nodes[i]),
        ))
    return selections


class _ThresholdSearch:
    """Per-query replay of :func:`statistical_blocks`'s threshold search.

    The search is a tiny scalar state machine (shrink → grow → refine);
    only the *probes* — full tree descents — are expensive, and those are
    batched across all still-active queries by
    :func:`statistical_blocks_multi`.  The transitions mirror the
    single-query control flow statement for statement, so each query's
    probe sequence (and hence its final selection) is bit-identical.
    """

    __slots__ = (
        "target", "shrink", "grow_steps", "max_descents", "t", "t_fail",
        "t_ok", "t_probe", "best", "descents", "nodes", "grow",
        "refine_left", "phase",
    )

    def __init__(
        self,
        target: float,
        first_probe: float,
        shrink: float,
        refine_steps: int,
        grow_steps: int,
        max_descents: int,
    ):
        self.target = target
        self.shrink = shrink
        self.grow_steps = grow_steps
        self.max_descents = max_descents
        self.t = first_probe
        self.t_fail: float | None = None
        self.t_ok = float("nan")
        self.best: BlockSelection | None = None
        self.descents = 0
        self.nodes = 0
        self.grow = 0
        self.refine_left = refine_steps
        self.phase = "shrink"
        self.t_probe = self.t

    @property
    def active(self) -> bool:
        return self.phase != "done"

    def consume(self, sel: BlockSelection) -> None:
        """Account one probe at ``t_probe`` and advance the state machine."""
        self.descents += 1
        self.nodes += sel.nodes_visited
        if self.phase == "shrink":
            if sel.total_probability >= self.target:
                self.best = sel
                self._enter_grow()
            else:
                self.t_fail = self.t
                self.t *= self.shrink
                if self.t < 1e-12:
                    self.best = sel  # closest achievable set
                    self.phase = "done"
                elif self.descents >= self.max_descents:
                    self.best = sel
                    self.phase = "done"
                else:
                    self.t_probe = self.t
        elif self.phase == "grow":
            self.grow += 1
            if sel.total_probability >= self.target:
                self.best = sel
                self._enter_grow()
            else:
                self.t_fail = self.t_probe
                self._enter_refine()
        elif self.phase == "refine":
            if sel.total_probability >= self.target:
                self.best = sel
                self.t_ok = self.t_probe
            else:
                self.t_fail = self.t_probe
            self.refine_left -= 1
            if self.refine_left > 0:
                self.t_probe = 0.5 * (self.t_ok + self.t_fail)
            else:
                self.phase = "done"
        else:  # pragma: no cover - defensive
            raise AssertionError("probe consumed after convergence")

    def _enter_grow(self) -> None:
        assert self.best is not None
        if (
            self.t_fail is None
            and self.best.total_probability >= self.target
            and self.grow < self.grow_steps
            and self.descents < self.max_descents
            and self.best.threshold * 4.0 < 1.0
        ):
            self.phase = "grow"
            self.t_probe = self.best.threshold * 4.0
        else:
            self._enter_refine()

    def _enter_refine(self) -> None:
        assert self.best is not None
        if (
            self.best.total_probability >= self.target
            and self.t_fail is not None
            and self.refine_left > 0
        ):
            self.phase = "refine"
            self.t_ok = self.best.threshold
            self.t_probe = 0.5 * (self.t_ok + self.t_fail)
        else:
            self.phase = "done"

    def result(self, depth: int) -> BlockSelection:
        assert self.best is not None
        return BlockSelection(
            prefixes=self.best.prefixes,
            probabilities=self.best.probabilities,
            depth=depth,
            threshold=self.best.threshold,
            total_probability=self.best.total_probability,
            nodes_visited=self.nodes,
            descents=self.descents,
        )


def statistical_blocks_multi(
    queries: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    alpha: float,
    shrink: float = 0.25,
    refine_steps: int = 1,
    grow_steps: int = 2,
    max_descents: int = 40,
) -> list[BlockSelection]:
    """Batched :func:`statistical_blocks`: B threshold searches, shared descents.

    Every round performs **one** multi-query descent covering all queries
    whose search is still active (each at its own current probe
    threshold), so B queries share one pass per tree level instead of B
    independent descents.  Each query's probe sequence replays the
    single-query search exactly, so the returned selections are
    bit-identical to calling :func:`statistical_blocks` per query with the
    same parameters.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < shrink < 1.0:
        raise ConfigurationError(f"shrink must be in (0, 1), got {shrink}")
    queries = _check_queries(queries, curve)
    num = queries.shape[0]
    if num == 0:
        return []

    t0 = min(max((1.0 - alpha) / 4.0, 1e-12), 1.0 - 1e-12)
    searches = [
        _ThresholdSearch(
            target=alpha * mass,
            first_probe=t0,
            shrink=shrink,
            refine_steps=refine_steps,
            grow_steps=grow_steps,
            max_descents=max_descents,
        )
        for mass in grid_probability_multi(queries, model, curve).tolist()
    ]

    while True:
        active = [i for i in range(num) if searches[i].active]
        if not active:
            break
        idx = np.asarray(active, dtype=np.int64)
        probes = np.array([searches[i].t_probe for i in active])
        sels = select_blocks_threshold_multi(
            queries[idx], model, curve, depth, probes
        )
        for i, sel in zip(active, sels):
            searches[i].consume(sel)

    return [search.result(depth) for search in searches]

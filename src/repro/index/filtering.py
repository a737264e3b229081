"""Block selection: the filtering step of the S³ index (paper §IV-A).

Given a candidate fingerprint ``Q``, the filtering step selects a set of
p-blocks of the Hilbert partition.  Three selectors are provided:

* :func:`select_blocks_threshold` — the paper's set ``B(t)``: every
  depth-``p`` block whose probability under the distortion model exceeds a
  threshold ``t``; sub-trees are pruned as soon as their box probability
  falls to ``t`` or below.
* :func:`statistical_blocks` — the statistical query of expectation α:
  searches the largest ``t_max`` with ``P_sup(t_max) >= α`` (eq. (4)) by a
  bracketing iteration in the spirit of the paper's "method inspired by
  Newton-Raphson", then returns ``B(t_max)``.
* :func:`best_first_blocks` — the *exact* minimal set ``B^min_α``: blocks
  emitted in non-increasing probability until the cumulative mass reaches
  α.  Costlier (priority queue, scalar); used as the optimality reference
  in the ablation benchmarks.

The first two (and their ``_multi`` / ``_cached`` forms) are one kernel,
:class:`_Descent`: the partition tree is descended **once** per batch of
queries and eq. (4)'s probes are answered from the retained leaves.

For the ε-range baseline, :func:`range_blocks` runs a descent with the
probabilistic rule replaced by the geometric one (keep blocks whose
minimal distance to ``Q`` is at most ε) — the classical filtering the paper
compares against.

Every descent is level-synchronous and numpy-vectorised: the frontier of
surviving nodes is held in flat arrays and both children of every node are
produced by one batched step.  The geometry matches
:class:`repro.hilbert.partition.PartitionNode` bit for bit (cross-checked in
the tests).
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from ..distortion.model import IndependentDistortionModel
from ..errors import ConfigurationError
from ..hilbert.butz import HilbertCurve
from ..hilbert.partition import PartitionNode
from ..hilbert.walk import PartitionWalk, WalkNodes, curve_order

_U64 = np.uint64


@dataclass
class BlockSelection:
    """Outcome of a filtering step.

    Attributes
    ----------
    prefixes:
        ``uint64`` curve prefixes of the selected depth-``p`` blocks, sorted
        in curve order.
    probabilities:
        Probability mass of each selected block under the distortion model
        (zeros for geometric range filtering).
    depth:
        The partition depth ``p`` the selection was computed at.
    threshold:
        Final probability threshold ``t`` (``nan`` for geometric filtering).
    total_probability:
        ``P_sup(t)`` — the cumulative mass of the selection.
    nodes_visited:
        Tree nodes the probes cover: for each probe ``t``, the nodes a
        descent pruned at ``t`` expands, summed over the probes (the
        filtering cost of a descent-per-probe search; the statistical
        kernel expands each node once and counts it per probe).
    descents:
        Probes ``P_sup(t)`` answered (1 unless the threshold had to be
        searched).  The tree itself is descended once per batch.
    """

    prefixes: np.ndarray
    probabilities: np.ndarray
    depth: int
    threshold: float
    total_probability: float
    nodes_visited: int
    descents: int = 1

    def __len__(self) -> int:
        return int(self.prefixes.size)


# ----------------------------------------------------------------------
# Statistical filtering: one tree descent per batch.
#
# A box's mass does not depend on the probe threshold t, so eq. (4)'s
# search needs every mass once.  `_Descent` expands the partition tree for
# a whole (B, D) query matrix down to a per-query *floor* threshold and
# keeps what it met.  A descent pruned at t reaches a node iff every mass
# on its path exceeds t, i.e. iff the node's running path minimum does, so
# any probe t >= floor is a mask on retained columns.  The membership test
# is `path_min > t`, not `mass > t`: child masses are computed
# incrementally (parent mass x interval ratio) and rounding can lift a
# child a few ulps above its parent, so "a box's mass bounds its
# descendants'" holds exactly only for the path minimum.

_TABLE_ENTRIES = 1 << 22  # B * D * cuts CDF entries per descent (32 MB)
# Shrink steps a descent answers below the probe it was started for: a
# cold first probe sits ~4 steps above t_max, a warm one (1.5x the last
# t_max) 0-2, and a resume is for stragglers.  A step too few costs a
# resume (one more pass of the level loop), a step too many ~1.5x the nodes.
_COLD_REACH, _REACH = 3, 2


@dataclass
class _Nodes(WalkNodes):
    """Tree nodes with their box mass under the distortion model."""

    mass: np.ndarray | None = None
    path_min: np.ndarray | None = None  # min mass below the root, self included


@dataclass
class _Split:
    """The nodes expanded at one level and the mass of both children of each."""

    parents: _Nodes
    dims: np.ndarray | int
    upper_first: np.ndarray
    q: np.ndarray  # per child, in `curve_order`
    mass: np.ndarray
    path_min: np.ndarray


class _Descent:
    """One batch's statistical descent, kept so that probes are masks.

    Per node only scalar columns travel down the tree, plus small-integer
    per-axis cell indices addressing one ``(B, D, cuts)`` table of the
    model CDF at every dyadic cut the depth can reach (one ``cdf_multi``
    call; the level loop evaluates no CDF).  Every floating-point
    expression is the one the descent-per-probe code evaluated
    (``tests/index/reference_selection.py``), so masses are bit-identical.
    """

    def __init__(
        self,
        queries: np.ndarray,
        model: IndependentDistortionModel,
        curve: HilbertCurve,
        depth: int,
    ):
        num, n = queries.shape
        self.num = num
        self.tree = tree = PartitionWalk(curve, depth)
        self.cuts = (1 << tree.bits) + 1
        x = (np.arange(self.cuts) * tree.unit)[None, None, :] - queries[:, :, None]
        table = model.cdf_multi(
            np.broadcast_to(np.arange(n)[None, :, None], x.shape), x
        )
        self.root_mass = np.prod(table[:, :, -1] - table[:, :, 0], axis=1)
        self.table = table.ravel()
        self.floor = np.full(num, np.inf)
        self.splits: list[list[_Split]] = [[] for _ in range(depth)]
        self.leaves = _Nodes(
            np.empty(0, np.int64), np.empty(0, _U64),
            mass=np.empty(0), path_min=np.empty(0),
        )
        self.starts = np.zeros(num + 1, dtype=np.int64)  # of each query's leaves

    def _split(self, nodes: _Nodes, level: int) -> _Split:
        """Masses of both children of *nodes*."""
        dims, upper_first, lower_cut = self.tree.axis(nodes, level)
        half = self.tree.half(level)
        at = (nodes.q * self.tree.ndims + dims) * self.cuts + lower_cut
        philo_j = self.table[at]
        phimid = self.table[at + half]
        phihi_j = self.table[at + 2 * half]
        old = phihi_j - philo_j
        prob_low = np.zeros(at.size)
        prob_high = np.zeros(at.size)
        ok = old > 0  # a zero-width interval has zero-mass children
        np.divide(nodes.mass * (phimid - philo_j), old, out=prob_low, where=ok)
        np.divide(nodes.mass * (phihi_j - phimid), old, out=prob_high, where=ok)
        mass = curve_order(prob_low, prob_high, upper_first)
        return _Split(
            parents=nodes,
            dims=dims,
            upper_first=upper_first,
            q=np.repeat(nodes.q, 2),
            mass=mass,
            path_min=np.minimum(mass, np.repeat(nodes.path_min, 2)),
        )

    def _children(self, split: _Split, level: int, at: np.ndarray) -> _Nodes:
        kids = self.tree.children(
            split.parents, level, split.dims, split.upper_first, at
        )
        kids.mass, kids.path_min = split.mass[at], split.path_min[at]
        return kids

    def lower(self, floor: np.ndarray) -> None:
        """Expand every retained node whose path minimum exceeds *floor*.

        The first call is the descent; a later call with lower floors
        resumes the pruned frontier — children computed but not expanded —
        of the queries that moved, level-synchronously for all of them.
        """
        old, self.floor = self.floor, floor
        first = not self.splits[0]
        nodes = []
        if first:
            roots = self.tree.roots(self.num, _Nodes)
            roots.mass = self.root_mass
            roots.path_min = np.full(self.num, np.inf)  # the root is never pruned
            nodes = [roots]
        for level, splits in enumerate(self.splits):
            kids = [
                self._children(split, level, np.nonzero(
                    (split.path_min <= old[split.q])
                    & (split.path_min > floor[split.q])
                )[0])
                for split in splits
            ]
            if nodes:
                split = self._split(_Nodes.concat(nodes), level)
                splits.append(split)
                kids.append(self._children(
                    split, level, np.nonzero(split.path_min > floor[split.q])[0]
                ))
            nodes = [k for k in kids if k.q.size]
        if nodes:
            leaves = _Nodes.concat(nodes if first else [self.leaves] + nodes)
            if not first:
                order = np.lexsort((leaves.prefix, leaves.q))
                leaves = _Nodes(
                    leaves.q[order], leaves.prefix[order],
                    mass=leaves.mass[order], path_min=leaves.path_min[order],
                )
            self.leaves = leaves
            self.starts = np.searchsorted(leaves.q, np.arange(self.num + 1))
        inner = [split.parents for splits in self.splits for split in splits]
        self.inner_q = np.concatenate([p.q for p in inner])
        self.inner_min = np.concatenate([p.path_min for p in inner])

    def probe(
        self, t: np.ndarray, active: list[int]
    ) -> tuple[list[float], list[int]]:
        """``(P_sup(t_i), nodes_visited(t_i))`` of each active query *i*.

        What a descent pruned at ``t_i >= floor_i`` returns: its leaves are
        the retained leaves with ``path_min > t_i``, its
        ``total_probability`` the sum of their masses as one prefix-ordered
        array (the same pairwise summation), and the nodes it expands are
        the retained internal nodes with ``path_min > t_i``.
        """
        leaves = self.leaves
        keep = leaves.path_min > t[leaves.q]
        mass = leaves.mass[keep]
        ends = np.cumsum(np.bincount(leaves.q[keep], minlength=self.num)).tolist()
        totals = [
            float(mass[ends[i - 1] if i else 0:ends[i]].sum()) for i in active
        ]
        above = self.inner_q[self.inner_min > t[self.inner_q]]
        nodes = np.bincount(above, minlength=self.num).tolist()
        return totals, [nodes[i] for i in active]

    def selection(self, i: int, t: float, nodes: int, probes: int) -> BlockSelection:
        """Query *i*'s block set ``B(t)`` as a :class:`BlockSelection`."""
        window = slice(int(self.starts[i]), int(self.starts[i + 1]))
        keep = self.leaves.path_min[window] > t
        probs = self.leaves.mass[window][keep]
        return BlockSelection(
            prefixes=self.leaves.prefix[window][keep],
            probabilities=probs,
            depth=self.tree.depth,
            threshold=t,
            total_probability=float(probs.sum()),
            nodes_visited=nodes,
            descents=probes,
        )


def _threshold_search(
    t: float, shrink: float, refine_steps: int, grow_steps: int, max_descents: int
) -> Generator[float, bool, None]:
    """Yield one query's probes of eq. (4); is sent ``P_sup(t) >= target``.

    Shrinks ``t`` geometrically until a probe succeeds; if the very first
    one does, grows it instead (so an over-generous start does not inflate
    the block set); then bisects inside whatever bracket exists.  The
    answer is the last probe that succeeded — or, when ``t`` bottoms out
    first, the last probe: the closest achievable set.
    """
    probes = 1
    t_fail = None  # smallest t observed with P_sup < target
    while not (yield t):
        t_fail = t
        t *= shrink
        if t < 1e-12 or probes >= max_descents:
            return
        probes += 1
    for _ in range(grow_steps):
        if t_fail is not None or probes >= max_descents or t * 4.0 >= 1.0:
            break
        probes += 1
        if (yield t * 4.0):
            t *= 4.0
        else:
            t_fail = t * 4.0
    if t_fail is not None:
        for _ in range(refine_steps):
            t_mid = 0.5 * (t + t_fail)
            if (yield t_mid):
                t = t_mid
            else:
                t_fail = t_mid


def _search(
    queries: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    alpha: float,
    first_probes: np.ndarray,
    reach: float,
    shrink: float,
    refine_steps: int,
    grow_steps: int,
    max_descents: int,
) -> list[BlockSelection]:
    """One :func:`_threshold_search` per query, all on one `_Descent`.

    The descent starts at floor ``first_probes * reach``; a search that
    shrinks under its floor resumes it, together with every other query in
    that position.  Probes and the nodes they cover are counted as if each
    probe had been its own descent.
    """
    num, n = queries.shape
    limits = (refine_steps, grow_steps, max_descents)
    step = max(1, _TABLE_ENTRIES // (n * ((1 << -(-depth // n)) + 1)))
    if num > step:  # bound the CDF table: chunks are independent
        return [
            sel for rows in (slice(i, i + step) for i in range(0, num, step))
            for sel in _search(
                queries[rows], model, curve, depth, alpha, first_probes[rows],
                reach, shrink, *limits,
            )
        ]
    descent = _Descent(queries, model, curve, depth)
    targets = (alpha * grid_probability_multi(queries, model, curve)).tolist()
    searches = [
        _threshold_search(t, shrink, *limits) for t in first_probes.tolist()
    ]
    probes = np.array([next(search) for search in searches])
    best = [(0.0, False)] * num  # (answer so far, did it succeed)
    cost = np.zeros((num, 2), dtype=np.int64)  # nodes covered, probes
    active = list(range(num))
    descent.lower(probes * reach)
    while active:
        missing = probes < descent.floor
        if missing.any():
            descent.lower(np.where(missing, probes * shrink**_REACH, descent.floor))
        still = []
        for i, total, nodes in zip(active, *descent.probe(probes, active)):
            success = total >= targets[i]
            cost[i] += (nodes, 1)
            if success or not best[i][1]:
                best[i] = (float(probes[i]), success)
            try:
                probes[i] = searches[i].send(success)
                still.append(i)
            except StopIteration:
                probes[i] = np.inf
        active = still
    return [
        descent.selection(i, best[i][0], *cost[i].tolist()) for i in range(num)
    ]


def select_blocks_threshold_multi(
    queries: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    thresholds: np.ndarray,
) -> list[BlockSelection]:
    """The paper's ``B(t)`` for B queries: depth-``p`` blocks with mass > t.

    *queries* is ``(B, D)``; *thresholds* carries one pruning threshold
    per query.  The fixed-floor case of the kernel: a descent pruned at
    ``t`` and a single probe at ``t``; each query's selection is
    bit-identical to a batch of one.
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
    # Target 0 and one probe allowed: the search ends on its first probe.
    return _search(
        queries, model, curve, depth, alpha=0.0, first_probes=thresholds,
        reach=1.0, shrink=0.5, refine_steps=0, grow_steps=0, max_descents=1,
    )


def select_blocks_threshold(
    query: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    threshold: float,
) -> BlockSelection:
    """:func:`select_blocks_threshold_multi` for one query (B = 1)."""
    query = _check_query(query, curve)
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1), got {threshold}")
    return select_blocks_threshold_multi(
        query[None, :], model, curve, depth, [threshold]
    )[0]


def statistical_blocks_multi(
    queries: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    alpha: float,
    initial_threshold: float | None = None,
    shrink: float = 0.25,
    refine_steps: int = 1,
    grow_steps: int = 2,
    max_descents: int = 40,
) -> list[BlockSelection]:
    """Statistical query block sets of expectation *alpha* for B queries.

    Searches, per query, ``t_max`` of eq. (4): the largest threshold whose
    block set ``B(t)`` still carries probability mass at least *alpha*.
    ``P_sup(t)`` is monotone non-increasing in ``t``, so the search
    (:func:`_threshold_search`) shrinks ``t`` by *shrink* from
    *initial_threshold*, grows it up to *grow_steps* times if the first
    probe succeeds, and bisects *refine_steps* times.

    The tree is descended **once** for the whole batch, to a floor a few
    shrink steps under the first probe, and every probe is answered from
    the retained leaves (:func:`_search`).  ``descents`` counts the probes
    (at most *max_descents* before refinement), and each query's selection
    is bit-identical to a batch of one.

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
    queries = _check_queries(queries, curve)
    if queries.shape[0] == 0:
        return []
    _check_depth(depth, curve)
    t0 = initial_threshold if initial_threshold is not None else (1.0 - alpha) / 4.0
    t0 = min(max(t0, 1e-12), 1.0 - 1e-12)
    return _search(
        queries, model, curve, depth, alpha, np.full(queries.shape[0], t0),
        shrink ** (_COLD_REACH if initial_threshold is None else _REACH),
        shrink, refine_steps, grow_steps, max_descents,
    )


def statistical_blocks(
    query: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    alpha: float,
    initial_threshold: float | None = None,
    shrink: float = 0.25,
    refine_steps: int = 1,
    grow_steps: int = 2,
    max_descents: int = 40,
) -> BlockSelection:
    """:func:`statistical_blocks_multi` for one query (B = 1)."""
    query = _check_query(query, curve)
    return statistical_blocks_multi(
        query[None, :], model, curve, depth, alpha, initial_threshold,
        shrink, refine_steps, grow_steps, max_descents,
    )[0]


def threshold_cache_key(
    alpha: float, depth: int, model: IndependentDistortionModel
) -> tuple:
    """Key of the warm-start threshold cache for one query family.

    A usable warm start is specific to ``(alpha, depth)`` *and* to the
    distortion model: a threshold tuned for a narrow model selects far too
    few blocks under a wide one, so callers that alternate models per
    query must not poison each other's warm starts.  The model contributes
    a value-based identity token (:meth:`IndependentDistortionModel.cache_token`).
    """
    return (round(alpha, 6), depth, model.cache_token())


def statistical_blocks_batch_cached(
    queries: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    alpha: float,
    cache: dict[tuple, float],
) -> list[BlockSelection]:
    """:func:`statistical_blocks_multi` with a self-regulating warm start.

    Queries of one workload share ``(alpha, depth, model)``, so the
    previous query's ``t_max`` (ratcheted up by 1.5×) is an excellent
    first probe: successes push the cached threshold toward minimal block
    sets while failures fall back through the shrink loop.

    The warm-start cache is read **once** before the batch (every query in
    it shares the same initial probe threshold) and written **once**
    after it (the last query's converged ``t_max``, mirroring the
    sequential chain's "previous query" semantics).  A batch of size 1
    therefore reproduces the sequential cached loop bit for bit; larger
    batches are bit-identical to a sequential loop in which each query
    starts from the same cache state (see docs/batch-query.md).
    """
    cache_key = threshold_cache_key(alpha, depth, model)
    warm = cache.get(cache_key)
    selections = statistical_blocks_multi(
        queries,
        model,
        curve,
        depth,
        alpha,
        initial_threshold=None if warm is None else warm * 1.5,
        grow_steps=0 if warm is not None else 2,
    )
    for selection in selections:
        if np.isfinite(selection.threshold) and selection.threshold > 0:
            cache[cache_key] = selection.threshold
    return selections


def statistical_blocks_cached(
    query: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    alpha: float,
    cache: dict[tuple, float],
) -> BlockSelection:
    """:func:`statistical_blocks_batch_cached` for one query (B = 1).

    Both :class:`~repro.index.s3.S3Index` and the pseudo-disk searcher
    route through here, so equal cache histories give bit-identical
    selections.
    """
    query = _check_query(query, curve)
    return statistical_blocks_batch_cached(
        query[None, :], model, curve, depth, alpha, cache
    )[0]


def best_first_blocks(
    query: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    alpha: float,
    max_blocks: int = 1_000_000,
) -> BlockSelection:
    """Return the exact minimal block set ``B^min_α`` (ablation reference).

    Best-first expansion of the partition tree on box probability: leaves
    (depth-``p`` blocks) pop off the priority queue in non-increasing
    probability, so stopping when the cumulative mass reaches *alpha* yields
    the minimum-cardinality solution of eq. (3).  Like
    :func:`statistical_blocks`, the expectation is conditioned on the grid.
    """
    query = _check_query(query, curve)
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    _check_depth(depth, curve)

    root = PartitionNode.root(curve)
    prob_root = model.box_probability(np.array(root.lo), np.array(root.hi), query)
    alpha_target = alpha * prob_root
    counter = 0
    heap = [(-prob_root, counter, root)]
    selected: list[tuple[int, float]] = []
    total = 0.0
    nodes = 0
    while heap and total < alpha_target and len(selected) < max_blocks:
        neg_prob, _, node = heapq.heappop(heap)
        prob = -neg_prob
        if prob <= 0.0:
            break
        if node.depth == depth:
            selected.append((node.prefix, prob))
            total += prob
            continue
        nodes += 1
        for child in node.children():
            child_prob = model.box_probability(
                np.array(child.lo, dtype=np.float64),
                np.array(child.hi, dtype=np.float64),
                query,
            )
            if child_prob > 0.0:
                counter += 1
                heapq.heappush(heap, (-child_prob, counter, child))

    selected.sort()
    prefixes = np.array([p for p, _ in selected], dtype=_U64)
    probs = np.array([pr for _, pr in selected], dtype=np.float64)
    return BlockSelection(
        prefixes=prefixes,
        probabilities=probs,
        depth=depth,
        threshold=float(probs.min()) if probs.size else float("nan"),
        total_probability=float(probs.sum()),
        nodes_visited=nodes,
    )


# ----------------------------------------------------------------------
# Geometric filtering (ε-range and window queries): the same walk, pruned
# by distance or overlap instead of probability mass.


def _geometric_selection(nodes: WalkNodes, depth: int, visited: int) -> BlockSelection:
    return BlockSelection(
        prefixes=nodes.prefix,
        probabilities=np.zeros(nodes.prefix.size),
        depth=depth,
        threshold=float("nan"),
        total_probability=float("nan"),
        nodes_visited=visited,
    )


def range_blocks(
    query: np.ndarray,
    epsilon: float,
    curve: HilbertCurve,
    depth: int,
) -> BlockSelection:
    """Geometric filtering for an ε-range query (the classical baseline).

    Keeps every depth-``p`` block whose minimal L2 distance to *query* is at
    most *epsilon* — i.e. every block the query hyper-sphere intersects.
    """
    query = _check_query(query, curve)
    if epsilon < 0:
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
    _check_depth(depth, curve)

    def gap(lo, hi, q):  # squared distance from q to [lo, hi) on one axis
        return np.maximum(lo - q, 0.0) ** 2 + np.maximum(q - hi, 0.0) ** 2

    tree = PartitionWalk(curve, depth)
    nodes, visited = tree.roots(1), 0
    sumsq = gap(0.0, float(curve.side), query[None, :]).sum(axis=1)
    eps_sq = float(epsilon) ** 2
    for level in range(depth):
        visited += nodes.q.size
        dims, upper_first, lower_cut = tree.axis(nodes, level)
        lo, mid, hi = tree.bounds(lower_cut, level)
        qj = query[dims]
        # Lower child: box [lo, mid); upper child: box [mid, hi).
        rest = sumsq - gap(lo, hi, qj)
        child_sumsq = curve_order(
            rest + gap(lo, mid, qj), rest + gap(mid, hi, qj), upper_first
        )
        kept = np.nonzero(child_sumsq <= eps_sq)[0]
        nodes = tree.children(nodes, level, dims, upper_first, kept)
        sumsq = child_sumsq[kept]
    return _geometric_selection(nodes, depth, visited)


def window_blocks(
    lo: np.ndarray,
    hi: np.ndarray,
    curve: HilbertCurve,
    depth: int,
) -> BlockSelection:
    """Geometric filtering for a hyper-rectangular window query.

    The paper contrasts its structure with Lawder's, for which "only
    hyper-rectangular range queries are computable"; this selector provides
    that classical window query on our structure too: every depth-``p``
    block intersecting the half-open box ``[lo, hi)`` is kept.
    """
    lo = np.asarray(lo, dtype=np.float64).ravel()
    hi = np.asarray(hi, dtype=np.float64).ravel()
    if lo.size != curve.ndims or hi.size != curve.ndims:
        raise ConfigurationError(
            f"window bounds must have {curve.ndims} components"
        )
    if np.any(lo > hi):
        raise ConfigurationError("window must satisfy lo <= hi per dimension")
    _check_depth(depth, curve)

    tree = PartitionWalk(curve, depth)
    # A half-open window with an empty side contains nothing.
    nodes, visited = tree.roots(0 if np.any(lo == hi) else 1), 0
    for level in range(depth):
        visited += nodes.q.size
        dims, upper_first, lower_cut = tree.axis(nodes, level)
        box_lo, mid, box_hi = tree.bounds(lower_cut, level)
        # Child intersects the window iff its interval on the split
        # dimension overlaps [lo_j, hi_j); other dimensions are unchanged.
        keep = curve_order(
            (box_lo < hi[dims]) & (mid > lo[dims]),
            (mid < hi[dims]) & (box_hi > lo[dims]),
            upper_first,
        )
        nodes = tree.children(nodes, level, dims, upper_first, np.nonzero(keep)[0])
    return _geometric_selection(nodes, depth, visited)


# ----------------------------------------------------------------------
def _check_queries(queries: np.ndarray, curve: HilbertCurve) -> np.ndarray:
    """Validate a ``(B, D)`` query matrix against *curve*."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != curve.ndims:
        raise ConfigurationError(
            f"queries must be (B, {curve.ndims}), got shape {queries.shape}"
        )
    return queries


def grid_probability(
    query: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
) -> float:
    """Return ``P(Q + ΔS ∈ [0, 2^K)^D)`` — the in-grid distortion mass."""
    query = _check_query(query, curve)
    return float(grid_probability_multi(query[None, :], model, curve)[0])


def grid_probability_multi(
    queries: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
) -> np.ndarray:
    """:func:`grid_probability` of each row of a ``(B, D)`` query matrix.

    One ``cdf_multi`` evaluation per grid face, then the per-dimension
    interval probabilities are multiplied left to right — the order
    ``model.box_probability`` multiplies them in, so each entry equals
    the scalar evaluation bit for bit.
    """
    queries = _check_queries(queries, curve)
    dims = np.broadcast_to(np.arange(curve.ndims), queries.shape)
    intervals = model.cdf_multi(dims, float(curve.side) - queries) - (
        model.cdf_multi(dims, 0.0 - queries)
    )
    mass = np.ones(queries.shape[0])
    for j in range(curve.ndims):
        mass = mass * intervals[:, j]
    return mass


def _check_query(query: np.ndarray, curve: HilbertCurve) -> np.ndarray:
    query = np.asarray(query, dtype=np.float64).ravel()
    if query.size != curve.ndims:
        raise ConfigurationError(
            f"query has {query.size} components, curve expects {curve.ndims}"
        )
    return query


def _check_depth(depth: int, curve: HilbertCurve) -> None:
    if not 1 <= depth <= curve.total_bits:
        raise ConfigurationError(
            f"depth must be in [1, {curve.total_bits}], got {depth}"
        )
    if depth > 64:
        raise ConfigurationError(
            f"depth {depth} exceeds 64 bits; block prefixes are uint64"
        )

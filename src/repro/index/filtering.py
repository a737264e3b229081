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
queries and eq. (4)'s probes are answered from the retained leaves.  The
batch forms return one :class:`SelectionBatch` — every query's blocks
concatenated, with per-query counts, thresholds, totals and costs — which
the scan (:func:`repro.index.batch.scan`) reads as it is; indexing it
yields a query's :class:`BlockSelection`.

For the ε-range baseline, :func:`range_blocks` runs a descent with the
probabilistic rule replaced by the geometric one (keep blocks whose
minimal distance to ``Q`` is at most ε) — the classical filtering the paper
compares against.

Every descent is level-synchronous and numpy-vectorised: the frontier of
surviving nodes is held in flat arrays and both children of every node are
produced by one batched step.  The statistical walk has two phases: in the
first ``D`` levels every node of a query splits the same axis at the same
cut, so a level is a handful of array operations on per-query constants;
deeper levels run :class:`~repro.hilbert.walk.PartitionWalk`'s per-node
geometry.  The geometry matches :class:`repro.hilbert.partition.PartitionNode`
bit for bit (cross-checked in the tests).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Generator, Iterator, Sequence
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from ..distortion.model import IndependentDistortionModel
from ..errors import ConfigurationError
from ..hilbert.butz import HilbertCurve
from ..hilbert.partition import PartitionNode
from ..hilbert.walk import PartitionWalk, WalkNodes, curve_order, side_prefixes
from .table import expand_ranges

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


@dataclass
class SelectionBatch:
    """The block selections of a batch of queries, as flat columns.

    Query ``i`` owns ``counts[i]`` consecutive entries of *prefixes* and
    *probabilities* — its blocks, in curve order — and entry ``i`` of
    *thresholds*, *totals* (``total_probability``), *nodes*
    (``nodes_visited``) and *probes* (``descents``).  The scan reads the
    columns as they are; indexing or iterating the batch yields each
    query's :class:`BlockSelection`, whose arrays are views.
    """

    prefixes: np.ndarray
    probabilities: np.ndarray
    counts: np.ndarray
    depth: int
    thresholds: np.ndarray
    totals: np.ndarray
    nodes: np.ndarray
    probes: np.ndarray

    @classmethod
    def of(
        cls, selections: Sequence[BlockSelection], depth: int | None = None
    ) -> SelectionBatch:
        """A batch of *selections*, all of one depth (*depth* when empty)."""
        return cls(
            prefixes=np.concatenate([np.empty(0, _U64), *(
                np.asarray(s.prefixes, dtype=_U64) for s in selections
            )]),
            probabilities=np.concatenate([np.empty(0), *(
                np.asarray(s.probabilities, dtype=np.float64)
                for s in selections
            )]),
            counts=np.array([len(s) for s in selections], dtype=np.int64),
            depth=selections[0].depth if selections else depth,
            thresholds=np.array(
                [s.threshold for s in selections], dtype=np.float64
            ),
            totals=np.array(
                [s.total_probability for s in selections], dtype=np.float64
            ),
            nodes=np.array([s.nodes_visited for s in selections], dtype=np.int64),
            probes=np.array([s.descents for s in selections], dtype=np.int64),
        )

    @classmethod
    def given(
        cls, prefixes: np.ndarray, counts: np.ndarray, depth: int
    ) -> SelectionBatch:
        """A batch of block sets chosen elsewhere — a cluster router's
        shipped selections — with no masses, thresholds or search cost."""
        prefixes = np.asarray(prefixes, dtype=_U64)
        num = int(counts.size)
        return cls(
            prefixes=prefixes,
            probabilities=np.zeros(prefixes.size),
            counts=np.asarray(counts, dtype=np.int64),
            depth=depth,
            thresholds=np.full(num, np.nan),
            totals=np.full(num, np.nan),
            nodes=np.zeros(num, dtype=np.int64),
            probes=np.zeros(num, dtype=np.int64),
        )

    @classmethod
    def concat(cls, batches: Sequence[SelectionBatch]) -> SelectionBatch:
        """*batches*, all of one depth, one after the other."""
        return cls(**{
            f.name: batches[0].depth if f.name == "depth" else
            np.concatenate([getattr(b, f.name) for b in batches])
            for f in fields(cls)
        })

    def take(self, indices: np.ndarray) -> SelectionBatch:
        """The selections of the queries at *indices*, in that order."""
        indices = np.asarray(indices, dtype=np.int64)
        bounds = np.asarray(self.bounds, dtype=np.int64)
        entries = expand_ranges(bounds[indices], bounds[indices + 1])
        return SelectionBatch(
            prefixes=self.prefixes[entries],
            probabilities=self.probabilities[entries],
            counts=self.counts[indices],
            depth=self.depth,
            thresholds=self.thresholds[indices],
            totals=self.totals[indices],
            nodes=self.nodes[indices],
            probes=self.probes[indices],
        )

    @cached_property
    def bounds(self) -> list[int]:
        """Where each query's blocks start, and their total."""
        return [0, *itertools.accumulate(self.counts.tolist())]

    def __len__(self) -> int:
        return int(self.counts.size)

    def __getitem__(self, i: int) -> BlockSelection:
        num = len(self)
        if not -num <= i < num:
            raise IndexError(f"selection {i} of a batch of {num}")
        i %= num
        window = slice(self.bounds[i], self.bounds[i + 1])
        return BlockSelection(
            prefixes=self.prefixes[window],
            probabilities=self.probabilities[window],
            depth=self.depth,
            threshold=float(self.thresholds[i]),
            total_probability=float(self.totals[i]),
            nodes_visited=int(self.nodes[i]),
            descents=int(self.probes[i]),
        )

    def __iter__(self) -> Iterator[BlockSelection]:
        return (self[i] for i in range(len(self)))


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
# Shrink steps a descent answers below the probe it was started for: the
# first probe, (1 - alpha) / 4, sits ~4 steps above t_max, and a resume is
# for stragglers.  A step too few costs a resume (one more pass of the
# level loop), a step too many ~1.5x the nodes.
_FIRST_REACH, _RESUME_REACH = 3, 2


@dataclass
class _Nodes(WalkNodes):
    """Tree nodes with their box mass under the distortion model.

    Through the first ``D`` levels ``prefix`` holds the node's *side
    path* (:func:`~repro.hilbert.walk.side_prefixes`) instead of its
    curve prefix.
    """

    mass: np.ndarray | None = None
    path_min: np.ndarray | None = None  # min mass below the root, self included


@dataclass
class _Split:
    """The nodes expanded at one level and the mass of both children of each.

    Through the first ``D`` levels *mass* and *path_min* are ``(2, N)``
    (lower halves, upper halves) and *q* is the parents' ``(N,)``;
    deeper all three are flat, in `curve_order`.  Either way child ``k``
    is flat entry ``k``.
    """

    parents: _Nodes
    q: np.ndarray
    mass: np.ndarray
    path_min: np.ndarray
    dims: np.ndarray | int = 0
    upper_first: np.ndarray | None = None


class _Descent:
    """One batch's statistical descent, kept so that probes are masks.

    The walk has two phases.  In the first ``min(p, D)`` levels all nodes
    of a level split the same axis at its middle, from cut 0, so the
    interval ratios of both halves depend only on the query: they come
    from a ``(levels, 3, B)`` table of per-query constants, and a node
    carries just its query, side path, mass and path minimum.  Deeper levels
    (``p > D``) convert the frontier once — curve prefix, Hamilton state
    and per-axis cells from the side path — and continue on
    :class:`~repro.hilbert.walk.PartitionWalk`'s per-node path, whose
    cell indices address one ``(B, D, cuts)`` table of the model CDF at
    every dyadic cut the depth can reach.  One ``cdf_multi`` call builds
    both; the level loop evaluates no CDF.  Every floating-point
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
        self.head = min(depth, n)
        self.cuts = (1 << tree.bits) + 1
        x = (np.arange(self.cuts) * tree.unit)[None, None, :] - queries[:, :, None]
        table = model.cdf_multi(
            np.broadcast_to(np.arange(n)[None, :, None], x.shape), x
        )
        spans = table[:, :, -1] - table[:, :, 0]
        self.root_mass = np.prod(spans, axis=1)
        # The first and last cuts are the grid's faces: these are the
        # intervals, and this the product, of `grid_probability_multi`.
        self.grid = _left_product(spans)
        # The first levels split one axis each at its middle, from cut 0:
        # the numerators of both halves and the denominator, per query.
        # A zero-width interval has zero-mass children: 0 / 1.
        axes = tree.first_axes()
        lo, mid, hi = (table[:, axes, c].T for c in (0, self.cuts // 2, -1))
        old = hi - lo
        ok = old > 0
        self.ratios = np.stack([
            np.where(ok, mid - lo, 0.0),
            np.where(ok, hi - mid, 0.0),
            np.where(ok, old, 1.0),
        ], axis=1)
        self.table = table.ravel()
        self.floor = np.full(num, np.inf)
        self.splits: list[list[_Split]] = [[] for _ in range(depth)]
        self.leaves = _Nodes(
            np.empty(0, np.int64), np.empty(0, _U64),
            mass=np.empty(0), path_min=np.empty(0),
        )

    def _split(self, nodes: _Nodes, level: int) -> _Split:
        """Masses of both children of *nodes*."""
        if level < self.head:
            ratios = self.ratios[level].take(nodes.q, axis=1)
            mass = nodes.mass * ratios[:2]
            mass /= ratios[2]
            return _Split(
                nodes, nodes.q, mass, np.minimum(mass, nodes.path_min)
            )
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
            nodes, np.repeat(nodes.q, 2), mass,
            np.minimum(mass, np.repeat(nodes.path_min, 2)),
            dims, upper_first,
        )

    def _children(self, split: _Split, level: int, at: np.ndarray) -> _Nodes:
        """The children at flat positions *at* of *split*."""
        if level >= self.head:
            kids = self.tree.children(
                split.parents, level, split.dims, split.upper_first, at
            )
        else:
            side, par = np.divmod(at, split.q.size)
            kids = _Nodes(
                split.q[par], (split.parents.prefix[par] << 1) | side
            )
        kids.mass, kids.path_min = split.mass.take(at), split.path_min.take(at)
        if level + 1 == self.head < self.tree.depth:
            kids = self.tree.from_sides(kids)
        return kids

    def lower(self, floor: np.ndarray) -> None:
        """Expand every retained node whose path minimum exceeds *floor*.

        The first call is the descent; a later call with lower floors
        resumes the pruned frontier — children computed but not expanded —
        of the queries that moved, level-synchronously for all of them.
        The leaves are kept sorted by ``(query, prefix)``.
        """
        old, self.floor = self.floor, floor
        first = not self.splits[0]
        nodes = []
        if first:
            nodes = [_Nodes(
                np.arange(self.num), np.zeros(self.num, dtype=np.int64),
                mass=self.root_mass,
                path_min=np.full(self.num, np.inf),  # the root is never pruned
            )]
        for level, splits in enumerate(self.splits):
            kids = [
                self._children(split, level, np.flatnonzero(
                    (split.path_min <= old[split.q])
                    & (split.path_min > floor[split.q])
                ))
                for split in splits
            ]
            if nodes:
                split = self._split(_Nodes.concat(nodes), level)
                splits.append(split)
                kids.append(self._children(
                    split, level, np.flatnonzero(split.path_min > floor[split.q])
                ))
            nodes = [k for k in kids if k.q.size]
        if nodes:
            leaves = _Nodes.concat(nodes)
            if self.head == self.tree.depth:
                leaves.prefix = side_prefixes(leaves.prefix)
            if not first:
                leaves = _Nodes.concat([self.leaves, leaves])
            order = np.lexsort((leaves.prefix, leaves.q))
            self.leaves = _Nodes(
                leaves.q[order], leaves.prefix[order],
                mass=leaves.mass[order], path_min=leaves.path_min[order],
            )
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
        keep = leaves.path_min > t.take(leaves.q)
        mass = leaves.mass[keep]
        ends = np.cumsum(self._count(leaves.q, keep)).tolist()
        ends.insert(0, 0)
        add = np.add.reduce  # what `.sum()` runs, without its Python frame
        totals = [float(add(mass[ends[i]:ends[i + 1]])) for i in active]
        nodes = self._count(
            self.inner_q, self.inner_min > t.take(self.inner_q)
        ).tolist()
        return totals, [nodes[i] for i in active]

    def _count(self, q: np.ndarray, above: np.ndarray) -> np.ndarray:
        """Entries of each query that are *above* the probe: a weighted
        count, which skips gathering them."""
        return np.bincount(q, weights=above, minlength=self.num).astype(np.int64)

    def selections(
        self, t: list[float], totals: list[float], nodes: list[int],
        probes: list[int],
    ) -> SelectionBatch:
        """Every query's block set ``B(t_i)``: one mask over the leaves.

        ``totals`` are the probe sums at ``t``: ``.sum()`` over the very
        arrays the batch holds, so no second sum is taken.
        """
        t = np.array(t, dtype=np.float64)
        leaves = self.leaves
        keep = leaves.path_min > t.take(leaves.q)
        return SelectionBatch(
            prefixes=leaves.prefix[keep],
            probabilities=leaves.mass[keep],
            counts=self._count(leaves.q, keep),
            depth=self.tree.depth,
            thresholds=t,
            totals=np.array(totals, dtype=np.float64),
            nodes=np.array(nodes, dtype=np.int64),
            probes=np.array(probes, dtype=np.int64),
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
) -> SelectionBatch:
    """One :func:`_threshold_search` per query, all on one `_Descent`.

    The descent starts at floor ``first_probes * reach``; a search that
    shrinks under its floor resumes it, together with every other query in
    that position.  Probes and the nodes they cover are counted as if each
    probe had been its own descent.  A query's answer is the last probe
    that succeeded (or its last probe), with that probe's total.
    """
    num, n = queries.shape
    limits = (refine_steps, grow_steps, max_descents)
    step = max(1, _TABLE_ENTRIES // (n * ((1 << -(-depth // n)) + 1)))
    if num == 0 or num > step:  # bound the CDF table: chunks are independent
        return SelectionBatch.of([
            sel for rows in (slice(i, i + step) for i in range(0, num, step))
            for sel in _search(
                queries[rows], model, curve, depth, alpha, first_probes[rows],
                reach, shrink, *limits,
            )
        ], depth)
    descent = _Descent(queries, model, curve, depth)
    targets = (alpha * descent.grid).tolist()
    searches = [
        _threshold_search(t, shrink, *limits) for t in first_probes.tolist()
    ]
    probes = [next(search) for search in searches]
    best = [(0.0, False, 0.0)] * num  # (answer so far, did it succeed, total)
    nodes, counts = [0] * num, [0] * num  # nodes covered, probes
    active = list(range(num))
    t = np.array(probes)
    descent.lower(t * reach)
    while active:
        missing = t < descent.floor
        if missing.any():
            descent.lower(
                np.where(missing, t * shrink**_RESUME_REACH, descent.floor)
            )
        still = []
        for i, total, covered in zip(active, *descent.probe(t, active)):
            success = total >= targets[i]
            nodes[i] += covered
            counts[i] += 1
            if success or not best[i][1]:
                best[i] = (probes[i], success, total)
            try:
                probes[i] = searches[i].send(success)
                still.append(i)
            except StopIteration:
                probes[i] = np.inf
        active = still
        t = np.array(probes)
    thresholds, _, totals = zip(*best)
    return descent.selections(thresholds, totals, nodes, counts)


def select_blocks_threshold_multi(
    queries: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    thresholds: np.ndarray,
) -> SelectionBatch:
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
    shrink: float = 0.25,
    refine_steps: int = 1,
    grow_steps: int = 2,
    max_descents: int = 40,
) -> SelectionBatch:
    """Statistical query block sets of expectation *alpha* for B queries.

    Searches, per query, ``t_max`` of eq. (4): the largest threshold whose
    block set ``B(t)`` still carries probability mass at least *alpha*.
    ``P_sup(t)`` is monotone non-increasing in ``t``, so the search
    (:func:`_threshold_search`) shrinks ``t`` by *shrink* from
    ``(1 - alpha) / 4``, grows it up to *grow_steps* times if the first
    probe succeeds, and bisects *refine_steps* times.  The search reads
    nothing but its arguments, so a selection is a pure function of the
    query, the model, the depth and *alpha*.

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
    _check_depth(depth, curve)
    t0 = max((1.0 - alpha) / 4.0, 1e-12)
    return _search(
        queries, model, curve, depth, alpha, np.full(queries.shape[0], t0),
        shrink**_FIRST_REACH, shrink, refine_steps, grow_steps, max_descents,
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
    """:func:`statistical_blocks_multi` for one query (B = 1)."""
    query = _check_query(query, curve)
    return statistical_blocks_multi(
        query[None, :], model, curve, depth, alpha,
        shrink, refine_steps, grow_steps, max_descents,
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
    if not epsilon >= 0:
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
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ConfigurationError("window bounds must be finite")
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
    if not np.isfinite(queries).all():
        raise ConfigurationError("queries must be finite")
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
    return _left_product(model.cdf_multi(dims, float(curve.side) - queries) - (
        model.cdf_multi(dims, 0.0 - queries)
    ))


def _left_product(intervals: np.ndarray) -> np.ndarray:
    """Each row's product, multiplied left to right."""
    mass = np.ones(intervals.shape[0])
    for j in range(intervals.shape[1]):
        mass = mass * intervals[:, j]
    return mass


def _check_query(query: np.ndarray, curve: HilbertCurve) -> np.ndarray:
    query = np.asarray(query, dtype=np.float64).ravel()
    if query.size != curve.ndims:
        raise ConfigurationError(
            f"query has {query.size} components, curve expects {curve.ndims}"
        )
    if not np.isfinite(query).all():
        raise ConfigurationError("query must be finite")
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

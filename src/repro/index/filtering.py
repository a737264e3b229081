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

The first two (and their ``_multi`` forms) are one kernel,
:class:`_Descent`: the partition tree is descended **once** per batch of
queries and eq. (4)'s probes are answered from the retained leaves.  A
batch costs a fixed handful of numpy calls per pass of the descent and
per probe round, whatever its size: the head levels are resolved
:data:`_PASS_LEVELS` at a time, the searches are arrays (:func:`_search`),
and each round's sums are one segmented ``np.add.reduceat``, with the
pairwise sum deciding near ties.  The batch forms return one
:class:`SelectionBatch` — every query's blocks concatenated, with
per-query counts, thresholds, totals and costs — which the scan
(:func:`repro.index.batch.scan`) reads as it is; indexing it yields a
query's :class:`BlockSelection`.

For the ε-range baseline, :func:`range_blocks` runs a descent with the
probabilistic rule replaced by the geometric one (keep blocks whose
minimal distance to ``Q`` is at most ε) — the classical filtering the paper
compares against.

Every descent is level-synchronous and numpy-vectorised: the frontier of
surviving nodes is held in flat arrays and the children of every node are
produced by one batched step.  The statistical walk has two phases: in the
first ``D`` levels every node of a query splits the same axis at the same
cut, so several levels are a handful of array operations on per-query
constants; deeper levels run :class:`~repro.hilbert.walk.PartitionWalk`'s
per-node geometry.  The geometry matches :class:`repro.hilbert.partition.PartitionNode`
bit for bit (cross-checked in the tests).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

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
# Queries per descent: it keeps ~37 KB a query at p = 16, D = 20
# (measured), so this bounds one descent near 40 MB.
_DESCENT_QUERIES = 1024
# Node entries one descent may retain, counted over its head passes
# (2^W per node a pass expands) and deep splits (2 per node split): a
# selection whose frontier would outgrow this is refused before the
# arrays are allocated.  The largest descent of the tests retains ~3.1M
# (1,024 queries at D = 20, p = 20).  An entry costs ~25 bytes in the
# head levels and 80-165 bytes past them (3-D curves, p = 21-23), so
# the cap holds a descent near 0.4 GB and 2.8 GB respectively.
_DESCENT_ENTRIES = 1 << 24
# Shrink steps a descent answers below the probe it was started for: the
# first probe, (1 - alpha) / 4, sits ~4 steps above t_max, and a resume is
# for stragglers.  A step too few costs a resume (one more pass of the
# level loop and a probe round), a step too many ~1.5x the nodes.  A
# reach derived from alpha measured no better, but at alpha = 0.95 with
# 32 queries (a step more: -5 %), so it is one constant.
_FIRST_REACH, _RESUME_REACH = 3, 2
# Head levels resolved per pass: a pass is a fixed handful of numpy calls
# whatever its width, and computes all 2^W descendants of each node it
# expands, pruned or not, so wider passes trade dispatch for arithmetic.
_PASS_LEVELS = 4
# A probe is decided on `np.add.reduceat`'s sum R unless R lies within
# this many n * eps * R of the target (n the query's retained leaves, at
# least the masses summed): any two summation orders of n masses >= 0
# differ by at most 2 * gamma_{n-1} times their sum, ~n * eps * R, so
# outside the slack R and the pairwise sum fall on the same side.
# Inside, the pairwise sum decides.
_TIE_SLACK = 4.0
_EPS = float(np.finfo(np.float64).eps)


@dataclass
class _Nodes(WalkNodes):
    """Tree nodes with their box mass: the levels past ``D``, and the
    leaves."""

    mass: np.ndarray | None = None
    path_min: np.ndarray | None = None  # min mass below the root, self included


@dataclass
class _Split:
    """The nodes expanded at a level past ``D`` and the masses of their
    children, in `curve_order`: child ``k`` is flat entry ``k``."""

    parents: _Nodes
    q: np.ndarray
    mass: np.ndarray
    path_min: np.ndarray
    dims: np.ndarray
    upper_first: np.ndarray


class _Pass(NamedTuple):
    """The nodes one head pass expanded and all it met.

    ``mass`` / ``path_min`` are ``(2, ..., 2, N)``, one axis per level:
    entry ``(s_1, ..., s_w, i)`` belongs to node ``i``'s descendant down
    side path ``s_1 ... s_w``.  ``inner`` is every path minimum above the
    last level, flat: the nodes' own, then those one level down, ...
    """

    q: np.ndarray
    side: np.ndarray  # side path (int64), see `side_prefixes`
    mass: np.ndarray
    path_min: np.ndarray
    inner: np.ndarray
    width: int


class _Descent:
    """One batch's statistical descent, kept so that probes are masks.

    The walk has two phases.  In the first ``min(p, D)`` levels all nodes
    of a level split the same axis at its middle, from cut 0, so the
    interval ratios of both halves depend only on the query: they come
    from a ``(levels, 3, B)`` table of per-query constants, and a node
    carries just its query, side path, mass and path minimum.  These
    head levels are walked :data:`_PASS_LEVELS` at a time: a pass takes
    the constants of its levels for all its nodes at once and computes
    every descendant a pass deep, level by level, with the very
    expressions (``mass * num``, ``/= den``, ``np.minimum(mass,
    path_min)``) a level-at-a-time walk evaluates; one floor mask on the
    last level picks the nodes the next pass expands.  A child's path
    minimum never exceeds its parent's, so a node on the last level that
    clears the floor has every ancestor clear it too; the levels between
    are kept for ``nodes_visited``, and a pass's last level for a resume.
    The leaves are sorted once, on one packed ``(query, prefix)`` key
    where it fits.

    Deeper levels (``p > D``) convert the frontier once — curve prefix,
    Hamilton state and per-axis cells from the side path — and continue
    on :class:`~repro.hilbert.walk.PartitionWalk`'s per-node path, whose
    cell indices address one ``(B, D, cuts)`` table of the model CDF at
    every dyadic cut the depth can reach.  One ``cdf_multi`` call builds
    both tables; the level loop evaluates no CDF.  Every floating-point
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
        # The head levels split one axis each at its middle, from cut 0:
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
        self.entries = 0
        self.passes = [
            (level, min(_PASS_LEVELS, self.head - level))
            for level in range(0, self.head, _PASS_LEVELS)
        ]
        self.heads: list[list[_Pass]] = [[] for _ in self.passes]
        self.splits: list[list[_Split]] = [[] for _ in range(self.head, depth)]
        self.leaves = _Nodes(
            np.empty(0, np.int64), np.empty(0, _U64),
            mass=np.empty(0), path_min=np.empty(0),
        )

    def _pass(self, q, side, mass, path_min, level: int, width: int, floor):
        """Every descendant, *width* levels down, of the nodes given: the
        pass's record, the nodes on its last level above *floor* (the
        next pass expands them) and its nodes above *floor* that count
        as internal ``(q, path_min)``."""
        self._retain(q.size << width)
        ratios = self.ratios[level:level + width].take(q, axis=2)
        inner = [path_min]
        for num in ratios:
            mass = mass[..., None, :] * num[:2]
            mass /= num[2]
            path_min = np.minimum(mass, path_min[..., None, :])
            inner.append(path_min)
        inner.pop()
        p = _Pass(
            q, side, mass, path_min, np.concatenate(inner, axis=None), width
        )
        low = floor.take(q)
        return p, _expanded(p, low), _above(p, low)

    def _retain(self, entries: int) -> None:
        """Count *entries* more retained nodes; refuse a descent that
        would retain more than :data:`_DESCENT_ENTRIES`."""
        self.entries += entries
        if self.entries > _DESCENT_ENTRIES:
            raise ConfigurationError(
                f"block selection at depth {self.tree.depth} on a "
                f"{self.tree.ndims}-D curve would retain {self.entries} "
                f"nodes (cap {_DESCENT_ENTRIES}); choose a shallower depth"
            )

    def _deep_split(self, nodes: _Nodes, level: int) -> _Split:
        """Masses of both children of *nodes*, past the head levels."""
        self._retain(2 * nodes.q.size)
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

    def _deep_children(self, split: _Split, level: int, at: np.ndarray) -> _Nodes:
        """The children at flat positions *at* of *split*."""
        kids = self.tree.children(
            split.parents, level, split.dims, split.upper_first, at
        )
        kids.mass, kids.path_min = split.mass.take(at), split.path_min.take(at)
        return kids

    def lower(self, floor: np.ndarray) -> None:
        """Expand every retained node whose path minimum exceeds *floor*.

        The first call is the descent; a later call with lower floors
        resumes the pruned frontier — nodes computed but not expanded —
        of the queries that moved, pass by pass for all of them.  The
        leaves are kept sorted by ``(query, prefix)``.
        """
        old, self.floor = self.floor, floor
        first = not self.heads[0]
        front = None
        if first:
            front = (
                np.arange(self.num), np.zeros(self.num, dtype=np.int64),
                self.root_mass,
                np.full(self.num, np.inf),  # the root is never pruned
            )
        inner = []  # the expanded nodes above the floor, while they are hot
        for (level, width), passes in zip(self.passes, self.heads):
            kids = [
                _expanded(p, floor.take(p.q), old.take(p.q)) for p in passes
            ]
            if front is not None:
                p, expanded, above = self._pass(*front, level, width, floor)
                passes.append(p)
                kids.append(expanded)
                inner.append(above)
            kids = [k for k in kids if k[0].size]
            front = None
            if len(kids) == 1:
                front = kids[0]
            elif kids:
                front = tuple(np.concatenate(column) for column in zip(*kids))
        if self.head < self.tree.depth:
            found = self._lower_deep(front, floor, old)
        elif front is None:
            found = []
        else:
            q, side, mass, path_min = front
            found = [_Nodes(
                q, side_prefixes(side), mass=mass, path_min=path_min
            )]
        if found:
            leaves = _Nodes.concat(found if first else [self.leaves, *found])
            order = _sort_order(leaves.q, leaves.prefix, self.tree.depth)
            self.leaves = _Nodes(
                leaves.q.take(order), leaves.prefix.take(order),
                mass=leaves.mass.take(order),
                path_min=leaves.path_min.take(order),
            )
        counts = np.bincount(self.leaves.q, minlength=self.num)
        self.bounds = [0, *itertools.accumulate(counts.tolist())]
        self.filled = np.flatnonzero(counts)
        self.starts = np.array(self.bounds[:-1]).take(self.filled)
        # A probe sums at most a query's retained leaves.
        self.slack = counts * (_TIE_SLACK * _EPS)
        # The expanded nodes a probe t >= floor can count: those above it
        # (every node the levels past D expanded is).
        if not first:
            inner = [
                _above(p, floor.take(p.q)) for passes in self.heads for p in passes
            ]
        inner += [
            (s.parents.q, s.parents.path_min)
            for splits in self.splits for s in splits
        ]
        self.inner_q, self.inner_min = (np.concatenate(c) for c in zip(*inner))

    def _lower_deep(self, front, floor, old) -> list[_Nodes]:
        """The levels past ``D`` of :meth:`lower`, one at a time."""
        nodes = []
        if front is not None:
            q, side, mass, path_min = front
            nodes = [self.tree.from_sides(
                _Nodes(q, side, mass=mass, path_min=path_min)
            )]
        for level, splits in zip(range(self.head, self.tree.depth), self.splits):
            kids = [
                self._deep_children(split, level, np.flatnonzero(
                    (split.path_min <= old[split.q])
                    & (split.path_min > floor[split.q])
                ))
                for split in splits
            ]
            if nodes:
                split = self._deep_split(_Nodes.concat(nodes), level)
                splits.append(split)
                kids.append(self._deep_children(
                    split, level, np.flatnonzero(split.path_min > floor[split.q])
                ))
            nodes = [k for k in kids if k.q.size]
        return nodes

    def probe(
        self, t: np.ndarray, targets: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """Whether ``P_sup(t[r, i]) >= targets[i]``, for a ``(rows, B)``
        array of probes ``t`` (or ``(rows, 1)``: every query's the same).

        What a descent pruned at ``t >= floor_i`` returns: its leaves are
        the retained leaves with ``path_min > t`` and its
        ``total_probability`` the pairwise sum of their masses as one
        prefix-ordered array.  One ``np.add.reduceat`` sums every probe's
        kept masses; where that sum lies within the rounding slack of the
        target (counted for all the query's retained leaves, at least the
        masses summed), and the probe is *valid*, the pairwise sum decides.
        """
        leaves, filled = self.leaves, self.filled
        sums = np.zeros((t.shape[0], self.num))
        if t.shape[1] > 1:  # else one probe per row, for every query
            t = t.take(leaves.q, axis=1)
        keep = leaves.path_min > t
        if filled.size:
            sums[:, filled] = np.add.reduceat(
                np.where(keep, leaves.mass, 0.0), self.starts, axis=1
            )
        success = sums >= targets
        near = np.abs(sums - targets) <= self.slack * sums
        for r, i in zip(*np.nonzero(near & valid)):
            at = slice(self.bounds[i], self.bounds[i + 1])
            total = np.add.reduce(leaves.mass[at][keep[r, at]])
            success[r, i] = total >= targets[i]
        return success

    def visited(self, probes: list[np.ndarray]) -> np.ndarray:
        """Each query's ``nodes_visited``: over every row of *probes*,
        the nodes a descent pruned at its probe expands — the internal
        nodes with ``path_min > t`` (``t = inf`` where it made none).

        Counted once, over the final descent: a node a resume expanded
        has ``path_min`` at most the floor before it, so no earlier probe
        counts it.
        """
        above = self.inner_min > np.vstack(probes).take(self.inner_q, axis=1)
        return np.bincount(
            self.inner_q, weights=above.sum(axis=0), minlength=self.num
        ).astype(np.int64)

    def selections(
        self, t: np.ndarray, nodes: np.ndarray, probes: np.ndarray
    ) -> SelectionBatch:
        """Every query's block set ``B(t_i)``: one mask over the leaves.

        ``totals`` are taken here, once per query: ``.sum()`` of its
        blocks, the very array the batch holds.
        """
        leaves = self.leaves
        at = np.flatnonzero(leaves.path_min > t.take(leaves.q))
        mass = leaves.mass.take(at)
        counts = np.bincount(leaves.q.take(at), minlength=self.num)
        ends = counts.cumsum().tolist()
        add = np.add.reduce  # what `.sum()` runs, without its Python frame
        return SelectionBatch(
            prefixes=leaves.prefix.take(at),
            probabilities=mass,
            counts=counts,
            depth=self.tree.depth,
            thresholds=t,
            totals=np.array([
                add(mass[a:b]) for a, b in zip([0, *ends], ends)
            ], dtype=np.float64),
            nodes=nodes,
            probes=probes,
        )


def _expanded(p: _Pass, floor: np.ndarray, old: np.ndarray | None = None):
    """``(q, side, mass, path_min)`` of the nodes on *p*'s last level
    with ``old >= path_min > floor`` (per node of *p*): the next pass
    expands them."""
    low = p.path_min
    above = low > floor
    if old is not None:
        above &= low <= old
    at = np.flatnonzero(above)
    side, par = np.divmod(at, p.q.size)
    return (
        p.q[par], (p.side[par] << p.width) | side, p.mass.take(at), low.take(at)
    )


def _above(p: _Pass, floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(q, path_min)`` of the nodes *p* expanded or passed through
    whose path minimum is above *floor* (per node of *p*)."""
    n = p.q.size
    at = np.flatnonzero(p.inner.reshape(-1, n) > floor)
    return p.q.take(at % n), p.inner.take(at)


def _sort_order(q: np.ndarray, prefix: np.ndarray, depth: int) -> np.ndarray:
    """The order sorting nodes by ``(q, prefix)``: one packed key when
    both fit in 64 bits."""
    if int(q.max(initial=0)).bit_length() + depth <= 64:
        return np.argsort((q.astype(_U64) << _U64(depth)) | prefix)
    return np.lexsort((prefix, q))


def _chunked(queries: np.ndarray, depth: int, select) -> SelectionBatch:
    """``select(rows)`` over *queries* in chunks that bound the CDF table
    and the descent (the chunks are independent), as one batch."""
    num, n = queries.shape
    step = max(1, min(
        _DESCENT_QUERIES, _TABLE_ENTRIES // (n * ((1 << -(-depth // n)) + 1))
    ))
    if num == 0:
        return SelectionBatch.of([], depth)
    if num <= step:
        return select(slice(None))
    return SelectionBatch.concat([
        select(slice(i, i + step)) for i in range(0, num, step)
    ])


def _search(
    queries: np.ndarray,
    model: IndependentDistortionModel,
    curve: HilbertCurve,
    depth: int,
    alpha: float,
    t: float,
    reach: float,
    shrink: float,
    refine_steps: int,
    grow_steps: int,
    max_descents: int,
) -> SelectionBatch:
    """Eq. (4)'s threshold search for every query, all on one `_Descent`.

    Each query shrinks ``t`` geometrically from the first probe *t* until
    a probe succeeds; if the very first one does, grows it instead (up to
    *grow_steps* times, so an over-generous start does not inflate the
    block set); then bisects *refine_steps* times inside whatever bracket
    exists.  The answer is the last probe that succeeded — or, when
    ``t`` bottoms out (below ``1e-12`` or after *max_descents* probes)
    first, the last probe: the closest achievable set.

    The searches are arrays, one entry per query.  Until its first
    success a search's probes follow one ladder — *t*, its shrink steps
    and its grow steps — that every search still on it shares, and the
    first bisection of any bracket the ladder can leave is one of a few
    shared midpoints too.  So one probe round answers every rung and
    midpoint the descent covers, and each search reads off the probes it
    would have made one by one: shrink rungs up to its first success or
    grow rungs up to its first failure, then its bracket's midpoint.
    The descent starts at floor ``t * reach``; a search that fails every
    rung down to its floor resumes it, together with the others in that
    position.  Each further bisection is one more probe round.  Probes
    and the nodes they cover are counted as if each probe had been its
    own descent.
    """
    num = queries.shape[0]
    cols = np.arange(num)
    descent = _Descent(queries, model, curve, depth)
    targets = alpha * descent.grid
    t_fail = np.full(num, np.inf)  # the last probe that failed; inf: none
    best = base = np.zeros(num)  # the answer so far, the last success
    probes = np.zeros(num, dtype=np.int64)
    searching = np.ones(num, dtype=bool)  # no probe has succeeded yet
    found = ~searching
    made = []  # the probes made, a row per rung; inf: none
    # The searching queries' floor, probes so far and last failed rung.
    floor, shared, failed_at = t * reach, 0, np.inf
    descent.lower(np.full(num, floor))
    while True:
        if t < floor:
            floor = t * shrink**_RESUME_REACH
            descent.lower(np.where(searching, floor, descent.floor))
        # The rungs: t, the shrink steps under it the descent covers,
        # and — while no probe has failed — the grow steps over it.
        low, rungs = max(floor, 1e-12), [t]
        while shared + len(rungs) < max_descents and rungs[-1] * shrink >= low:
            rungs.append(rungs[-1] * shrink)
        down = len(rungs)
        for k in range(1, grow_steps + 1 if shared == 0 else 1):
            if rungs[-1 if k > 1 else 0] * 4.0 >= 1.0 or k >= max_descents:
                break
            rungs.append(rungs[-1 if k > 1 else 0] * 4.0)
        upward = [rungs[0], *rungs[down:]]
        # Midpoints: a shrink rung's bracket is the rung above it (the
        # first rung's, the rung failed before it); a grow rung's, the
        # rung after it.
        mids = [] if refine_steps < 1 else [
            0.5 * (lo + hi) for lo, hi in zip(
                rungs[:down] + upward[:-1],
                [failed_at, *rungs[:down - 1]] + upward[1:],
            )
        ]
        ladder = np.array(rungs + mids)
        success = descent.probe(
            ladder[:, None], targets, searching[None]
        ) & searching
        # A search makes shrink rungs up to its first success or, when
        # the first rung succeeded, grow rungs up to its first failure.
        hit = success[:down].any(axis=0)
        first = success[:down].argmax(axis=0)
        up = success[0]
        missed = ~success[down:len(rungs)]
        over = missed.any(axis=0)
        top = missed.argmax(axis=0) if missed.size else np.zeros(num, np.intp)
        top = np.where(over, top, missed.shape[0])  # grow rungs that held
        count = np.where(up, top + over + 1, np.where(hit, first + 1, down))
        # Each search's own ladder, the probes it made in order.
        ladders = np.full((max(down, len(upward)) + 1, 2), np.inf)
        ladders[:down, 0], ladders[:len(upward), 1] = rungs[:down], upward
        path = ladders[:, up.astype(np.intp)]
        rung = np.arange(ladders.shape[0] - 1)[:, None]
        made.append(np.where(searching & (rung < count), path[:-1], np.inf))
        succeeded = path[np.where(up, top, first), cols]
        failed = path[np.where(up, np.where(over, top + 1, -1), count - 1 - hit), cols]
        probes = probes + np.where(searching, count, 0)
        base = np.where(searching & hit, succeeded, base)
        best = np.where(searching, np.where(hit, succeeded, failed), best)
        t_fail = np.where(searching & (~up | over), failed, t_fail)
        found = found | (searching & hit)
        # A search that found its bracket bisects it once: the midpoint's
        # probe was in the round.
        if mids:
            at = len(rungs) + np.where(up, np.where(over, down + top, 0), first)
            bisect = searching & hit & (t_fail < np.inf)
            mid = np.where(bisect, ladder.take(at), np.inf)
            below = success[at, cols] & bisect
            made.append(mid)
            probes = probes + bisect
            base = np.where(below, mid, base)
            t_fail = np.where(bisect & ~below, mid, t_fail)
        # The rest failed every rung: they shrink on, unless t bottoms out.
        searching = searching & ~hit
        shared += down
        failed_at = rungs[down - 1]
        t = failed_at * shrink
        if t < 1e-12 or shared >= max_descents or not searching.any():
            break
    # Bisect every bracket the rest of refine_steps times: a round each.
    bracket = found & (t_fail < np.inf)
    for _ in range(refine_steps - 1 if bracket.any() else 0):
        mid = np.where(bracket, 0.5 * (base + t_fail), np.inf)
        success = descent.probe(mid[None], targets, bracket[None])[0] & bracket
        made.append(mid)
        probes = probes + bracket
        base = np.where(success, mid, base)
        t_fail = np.where(bracket & ~success, mid, t_fail)
    best = np.where(found, base, best)
    return descent.selections(best, descent.visited(made), probes)


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

    def select(rows: slice) -> SelectionBatch:
        descent = _Descent(queries[rows], model, curve, depth)
        t = thresholds[rows]
        descent.lower(t)
        return descent.selections(
            t, descent.visited([t]), np.ones(t.size, dtype=np.int64)
        )

    return _chunked(queries, depth, select)


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
    (:func:`_search`) shrinks ``t`` by *shrink* from ``(1 - alpha) / 4``,
    grows it up to *grow_steps* times if the first probe succeeds, and
    bisects *refine_steps* times.  The search reads nothing but its
    arguments, so a selection is a pure function of the query, the model,
    the depth and *alpha*.

    The tree is descended **once** for the whole batch, to a floor a few
    shrink steps under the first probe, and every probe is answered from
    the retained leaves.  The searches run as arrays: one probe round
    answers every search's shrink and grow steps down to the floor, and
    each bisection is one more round; a round sums every probe with one
    ``np.add.reduceat`` and lets the pairwise sum decide a near tie.
    ``descents`` counts the probes (at most *max_descents* before
    refinement), ``total_probability`` is the pairwise sum of the
    selection's masses, and each query's selection is bit-identical to a
    batch of one.

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
    return _chunked(queries, depth, lambda rows: _search(
        queries[rows], model, curve, depth, alpha, t0,
        shrink**_FIRST_REACH, shrink, refine_steps, grow_steps, max_descents,
    ))


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
    """Each row's product, multiplied left to right (an accumulation is
    sequential)."""
    return np.multiply.accumulate(intervals, axis=1)[:, -1]


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

"""Level-synchronous walk of the p-block partition on node arrays.

:class:`~repro.hilbert.partition.PartitionNode` is the readable scalar
tree; this is the same tree walked one level at a time for whole arrays of
nodes, which is what block selection (:mod:`repro.index.filtering`) runs.
It holds geometry only — which axis each node splits, where its box starts
on that axis, the curve prefix and Hamilton state of its children — and
leaves what to keep, and any per-node payload, to the caller.  In the
first ``D`` levels that geometry depends on the level alone, so a caller
may walk them on side paths instead (:meth:`PartitionWalk.first_axes`,
:func:`side_prefixes`) and convert its frontier once
(:meth:`PartitionWalk.from_sides`).

Box bounds are integers: with ``bits = ceil(p / D)`` splits per axis at
most, every bound is one of the ``2^bits + 1`` dyadic *cuts* of the side,
and a node stores the index of its lower cut per axis.  The split rule
mirrors :meth:`PartitionNode.split_info` bit for bit (cross-checked in the
tests through the selectors).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .butz import HilbertCurve
from .vectorized import update_state_batch

_U64 = np.uint64


@dataclass
class WalkNodes:
    """Columns of partition-tree nodes, one row per (root, node).

    Callers that carry a payload per node subclass this with more
    (optional) columns; :meth:`concat` and :meth:`PartitionWalk.children`
    keep the subclass.
    """

    q: np.ndarray  # index of the root (query) the node descends from
    prefix: np.ndarray
    # Hamilton state: None through the first D levels (the root's (0, 0))
    # and on leaves.
    entry: np.ndarray | None = None
    direction: np.ndarray | None = None
    # (N, D) lower cut index of the box per axis; None when depth <= D,
    # where an axis splits once and so always from cut 0.
    cell: np.ndarray | None = None

    @staticmethod
    def concat(parts: list) -> WalkNodes:
        if len(parts) == 1:
            return parts[0]
        return type(parts[0])(*(
            None if getattr(parts[0], f.name) is None
            else np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(parts[0])
        ))


def side_prefixes(side: np.ndarray) -> np.ndarray:
    """Curve prefixes (``uint64``) of paths through the first ``D`` levels
    given as *side paths*: bit ``l`` (first level highest) is 1 where the
    path took the upper half of the box split at level ``l``.

    In the first group a node's curve bit is its side bit XOR the
    previous curve bit (:meth:`PartitionWalk.axis`'s ``upper_first``), so
    the prefix is the running XOR of the side path from its first bit:
    the inverse Gray code.
    """
    prefix = side.view(_U64)
    for shift in (1, 2, 4, 8, 16, 32):
        prefix = prefix ^ (prefix >> _U64(shift))
    return prefix


def curve_order(
    low: np.ndarray, high: np.ndarray, upper_first: np.ndarray
) -> np.ndarray:
    """A value per child, curve-child ``b`` of node ``i`` at ``2 * i + b``.

    *low* / *high* belong to each node's lower / upper half, so the
    children of curve-ordered nodes come out curve-ordered.
    """
    out = np.empty(2 * upper_first.size, dtype=np.asarray(low).dtype)
    low_at = 2 * np.arange(upper_first.size) + upper_first
    out[low_at] = low
    out[low_at ^ 1] = high
    return out


class PartitionWalk:
    """The depth-``p`` partition of *curve*, walked level by level."""

    def __init__(self, curve: HilbertCurve, depth: int):
        self.ndims, self.depth = curve.ndims, depth
        self.bits = -(-depth // curve.ndims)
        self.unit = curve.side / (1 << self.bits)  # cut spacing, a power of two
        self.cell_dtype = np.min_scalar_type((1 << self.bits) - 1)

    def roots(self, num: int) -> WalkNodes:
        """*num* root nodes (one per query)."""
        cell = None
        if self.bits > 1:
            cell = np.zeros((num, self.ndims), dtype=self.cell_dtype)
        return WalkNodes(np.arange(num), np.zeros(num, dtype=_U64), cell=cell)

    def first_axes(self) -> np.ndarray:
        """The axis split at each of the first ``min(p, D)`` levels.

        No node has a Hamilton state yet and each level cuts a new axis,
        at its middle from cut 0, so every node of a level splits the
        same axis at the same cut (:meth:`axis`).
        """
        n = self.ndims
        return (n - np.arange(min(self.depth, n))) % n

    def from_sides(self, nodes: WalkNodes) -> WalkNodes:
        """Depth-``D`` *nodes* whose ``prefix`` holds side paths (see
        :func:`side_prefixes`), with the curve prefix, Hamilton state and
        per-axis cells the walk would have given them."""
        n = self.ndims
        side = nodes.prefix.view(_U64)
        nodes.prefix = side_prefixes(side)
        zeros = np.zeros(side.size, dtype=_U64)
        nodes.entry, nodes.direction = update_state_batch(
            zeros, zeros, nodes.prefix, n
        )
        # Axis a was split at level (D - a) mod D: its side bit is bit
        # (a - 1) mod D of the path, and its upper half starts half-way.
        upper = (side[:, None] >> ((np.arange(n) - 1) % n).astype(_U64)) & _U64(1)
        nodes.cell = (upper << _U64(self.bits - 1)).astype(self.cell_dtype)
        return nodes

    def half(self, level: int) -> int:
        """Cuts from the lower bound to the middle of a box split at *level*."""
        return 1 << (self.bits - 1 - level // self.ndims)

    def bounds(
        self, lower_cut: np.ndarray | int, level: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, mid, hi)`` coordinates of boxes split at *level* (exact)."""
        lo = lower_cut * self.unit
        reach = self.half(level) * self.unit
        return lo, lo + reach, lo + 2 * reach

    def axis(
        self, nodes: WalkNodes, level: int
    ) -> tuple[np.ndarray | int, np.ndarray, np.ndarray | int]:
        """``(dims, upper_first, lower_cut)`` of the split at *level*.

        *dims* is the axis each node splits, *upper_first* whether
        curve-child 0 takes the upper half, *lower_cut* the cut index its
        box starts at on that axis.
        """
        n = self.ndims
        # Within a group of D levels the prefix's low bits are the
        # Hamilton partial word, so its last bit is the previous curve bit.
        upper_first = nodes.prefix & _U64(1)
        if nodes.entry is None:
            return (n - level % n) % n, upper_first.astype(np.int64), 0
        dims = ((_U64(n - level % n) + nodes.direction) % _U64(n)).astype(np.int64)
        entry_bit = (nodes.entry >> dims.astype(_U64)) & _U64(1)
        upper_first = entry_bit ^ upper_first if level % n else entry_bit
        lower_cut = nodes.cell[np.arange(dims.size), dims]
        return dims, upper_first.astype(np.int64), lower_cut

    def children(
        self,
        nodes: WalkNodes,
        level: int,
        dims: np.ndarray | int,
        upper_first: np.ndarray,
        at: np.ndarray,
    ) -> WalkNodes:
        """The children of *nodes* at flat positions *at* (see `curve_order`)."""
        n = self.ndims
        par = at >> 1
        kids = type(nodes)(
            q=nodes.q[par],
            prefix=(nodes.prefix[par] << _U64(1)) | (at & 1).astype(_U64),
        )
        if level + 1 == self.depth:
            return kids
        if nodes.cell is not None:
            upper = ((at & 1) ^ upper_first[par]) * self.half(level)
            kids.cell = nodes.cell[par]
            kids.cell[
                np.arange(at.size), dims if nodes.entry is None else dims[par]
            ] += upper.astype(kids.cell.dtype)
        if nodes.entry is not None:
            kids.entry, kids.direction = nodes.entry[par], nodes.direction[par]
        if level % n + 1 == n:  # a group of D levels is complete
            if kids.entry is None:
                kids.entry = kids.direction = np.zeros(at.size, dtype=_U64)
            kids.entry, kids.direction = update_state_batch(
                kids.entry, kids.direction, kids.prefix & _U64((1 << n) - 1), n
            )
        return kids

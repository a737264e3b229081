"""The p-block partition induced by the Hilbert curve (paper §IV-A).

Splitting the K-th order Hilbert curve of ``[0, 2^K - 1]^D`` into ``2^p``
equal intervals partitions the grid into ``2^p`` hyper-rectangular
*p-blocks* of identical volume (Fig. 2 of the paper): a ``p = i*D + q`` bit
prefix of the curve position fixes the ``i`` most significant bits of every
coordinate plus one additional bit in ``q`` specific dimensions.

This module exposes the partition as a lazily-explored binary tree.  Each
:class:`PartitionNode` knows

* its curve interval (``prefix`` of ``depth`` bits — the interval is
  ``[prefix << (K*D - depth), (prefix + 1) << (K*D - depth))``);
* its exact box ``[lo_j, hi_j)`` in cell units;
* the Hamilton state ``(entry, direction)`` needed to split it further.

Descending one level fixes the next curve-index bit, which — through the
Gray code and the frame transform of the Butz algorithm — halves the box
along one dimension.  The split dimension and which child takes the lower
half are derived in :meth:`PartitionNode.split_info`.

The scalar tree here is the readable reference used by the tests and the
exact best-first block selection; the throughput-critical statistical
filtering walks the same tree on node arrays (:mod:`repro.hilbert.walk`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from .butz import HilbertCurve
from .gray import update_state


@dataclass
class PartitionNode:
    """One node of the Hilbert partition tree (a curve-interval / box pair).

    Attributes
    ----------
    curve:
        The :class:`HilbertCurve` the partition belongs to.
    depth:
        Number of fixed curve-index bits ``p`` (0 for the root).
    prefix:
        The fixed bits, as an integer in ``[0, 2^depth)``; nodes at equal
        depth are ordered along the curve by ``prefix``.
    level:
        Completed curve levels ``i = depth // D``.
    entry, direction:
        Hamilton state at the entry of level ``level``.
    partial_w:
        The ``depth % D`` already-fixed (most significant) bits of the
        current level's byte ``w``.
    lo, hi:
        Box bounds per dimension, in cell units, half-open ``[lo, hi)``.
    """

    curve: HilbertCurve
    depth: int
    prefix: int
    level: int
    entry: int
    direction: int
    partial_w: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    @classmethod
    def root(cls, curve: HilbertCurve) -> "PartitionNode":
        """Return the tree root: the whole grid, empty prefix."""
        side = curve.side
        n = curve.ndims
        return cls(
            curve=curve,
            depth=0,
            prefix=0,
            level=0,
            entry=0,
            direction=0,
            partial_w=0,
            lo=(0,) * n,
            hi=(side,) * n,
        )

    # ------------------------------------------------------------------
    def split_info(self) -> tuple[int, int]:
        """Return ``(dim, value_of_child0)`` for the next split.

        The next curve-index bit is bit ``D - 1 - q`` of the current byte
        ``w`` (``q = depth % D`` bits already fixed).  Through the Gray code
        ``g = b ^ w_{D-q}`` and the inverse frame transform
        ``l' = rol(l, direction + 1) ^ entry``, appending bit ``b`` fixes the
        level bit of dimension ``dim = (D - q + direction) % D`` to
        ``v = b ^ w_{D-q} ^ entry_bit(dim)``.

        ``value_of_child0`` is ``v`` for ``b = 0``; child 1 takes ``1 - v``.
        """
        n = self.curve.ndims
        q = self.depth - self.level * n
        dim = (n - q + self.direction) % n
        prev_w_bit = (self.partial_w & 1) if q > 0 else 0
        value_child0 = prev_w_bit ^ ((self.entry >> dim) & 1)
        return dim, value_child0

    def children(self) -> tuple["PartitionNode", "PartitionNode"]:
        """Return the two children (curve order: child 0 first)."""
        if self.depth >= self.curve.total_bits:
            raise GeometryError("cannot split a single-cell node further")
        n = self.curve.ndims
        q = self.depth - self.level * n
        dim, value_child0 = self.split_info()
        half = (self.hi[dim] - self.lo[dim]) // 2
        mid = self.lo[dim] + half

        kids = []
        for b in (0, 1):
            value = value_child0 ^ b
            lo = list(self.lo)
            hi = list(self.hi)
            if value == 0:
                hi[dim] = mid
            else:
                lo[dim] = mid
            partial_w = (self.partial_w << 1) | b
            level, entry, direction = self.level, self.entry, self.direction
            if q + 1 == n:
                entry, direction = update_state(entry, direction, partial_w, n)
                level += 1
                partial_w = 0
            kids.append(
                PartitionNode(
                    curve=self.curve,
                    depth=self.depth + 1,
                    prefix=(self.prefix << 1) | b,
                    level=level,
                    entry=entry,
                    direction=direction,
                    partial_w=partial_w,
                    lo=tuple(lo),
                    hi=tuple(hi),
                )
            )
        return kids[0], kids[1]

    # ------------------------------------------------------------------
    def curve_interval(self) -> tuple[int, int]:
        """Return the half-open curve-index interval ``[start, stop)``."""
        shift = self.curve.total_bits - self.depth
        return self.prefix << shift, (self.prefix + 1) << shift

    def volume(self) -> int:
        """Return the number of grid cells in the box."""
        v = 1
        for lo_j, hi_j in zip(self.lo, self.hi):
            v *= hi_j - lo_j
        return v

    def contains(self, point) -> bool:
        """Return whether grid cell *point* lies inside the box."""
        return all(
            lo_j <= c < hi_j for c, lo_j, hi_j in zip(point, self.lo, self.hi)
        )

    def min_sq_distance(self, query) -> float:
        """Return the squared L2 distance from *query* to the closed box."""
        total = 0.0
        for c, lo_j, hi_j in zip(query, self.lo, self.hi):
            gap = max(lo_j - c, 0.0, c - hi_j)
            total += gap * gap
        return total


def blocks_at_depth(curve: HilbertCurve, depth: int) -> list[PartitionNode]:
    """Materialise every p-block of the partition of given *depth*.

    Exponential in *depth*; intended for tests, illustrations (Fig. 2) and
    small dimensions.
    """
    if not 0 <= depth <= curve.total_bits:
        raise GeometryError(
            f"depth must be in [0, {curve.total_bits}], got {depth}"
        )
    frontier = [PartitionNode.root(curve)]
    for _ in range(depth):
        nxt: list[PartitionNode] = []
        for node in frontier:
            nxt.extend(node.children())
        frontier = nxt
    return frontier


def partition_grid_2d(curve: HilbertCurve, depth: int) -> np.ndarray:
    """Return a 2-D array labelling each cell with its p-block prefix.

    Only defined for ``curve.ndims == 2``; reproduces the space partitions
    of the paper's Fig. 2.  Cell ``(x, y)`` maps to ``grid[y, x]``.
    """
    if curve.ndims != 2:
        raise GeometryError("partition_grid_2d requires a 2-D curve")
    side = curve.side
    grid = np.empty((side, side), dtype=np.int64)
    for node in blocks_at_depth(curve, depth):
        grid[node.lo[1]:node.hi[1], node.lo[0]:node.hi[0]] = node.prefix
    return grid

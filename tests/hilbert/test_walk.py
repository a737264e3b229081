"""The array walk of the partition against the scalar tree it mirrors."""

import numpy as np
import pytest

from repro.hilbert import HilbertCurve, blocks_at_depth
from repro.hilbert.walk import PartitionWalk, curve_order


@pytest.mark.parametrize(
    "ndims, order, depth",
    [(1, 4, 4), (2, 3, 6), (2, 4, 5), (3, 3, 9), (3, 4, 7), (5, 2, 8), (6, 2, 5)],
)
def test_unpruned_walk_enumerates_the_partition(ndims, order, depth):
    curve = HilbertCurve(ndims, order)
    walk = PartitionWalk(curve, depth)
    nodes = walk.roots(2)  # two roots walk the same tree side by side
    lo = np.zeros((2, ndims))
    hi = np.full((2, ndims), float(curve.side))
    for level in range(depth):
        dims, upper_first, lower_cut = walk.axis(nodes, level)
        box_lo, mid, box_hi = walk.bounds(lower_cut, level)
        rows = np.arange(nodes.q.size)
        # What the walk says about the axis it splits is the box so far.
        assert np.array_equal(lo[rows, dims], np.broadcast_to(box_lo, rows.shape))
        assert np.array_equal(hi[rows, dims], np.broadcast_to(box_hi, rows.shape))
        every = np.arange(2 * nodes.q.size)
        is_upper = curve_order(
            np.zeros(rows.size, dtype=bool), np.ones(rows.size, dtype=bool),
            upper_first,
        )
        lo, hi = lo[every >> 1], hi[every >> 1]
        axis = np.broadcast_to(dims, rows.shape)[every >> 1]
        middle = np.broadcast_to(mid, rows.shape)[every >> 1]
        lo[every[is_upper], axis[is_upper]] = middle[is_upper]
        hi[every[~is_upper], axis[~is_upper]] = middle[~is_upper]
        nodes = walk.children(nodes, level, dims, upper_first, every)

    blocks = blocks_at_depth(curve, depth)
    for root in (0, 1):
        mine = nodes.q == root
        assert nodes.prefix[mine].tolist() == [b.prefix for b in blocks]
        assert np.array_equal(lo[mine], np.array([b.lo for b in blocks], dtype=float))
        assert np.array_equal(hi[mine], np.array([b.hi for b in blocks], dtype=float))


@pytest.mark.parametrize("ndims, depth", [(1, 3), (2, 5), (3, 4), (5, 7)])
def test_side_paths_convert_to_the_walked_nodes(ndims, depth):
    """Walking the first D levels on side paths — one axis per level, a
    bit per half — and converting once gives the nodes the walk itself
    reaches at depth D, in the walk's own order."""
    curve = HilbertCurve(ndims, 4)
    walk = PartitionWalk(curve, depth)
    nodes, sides = walk.roots(1), np.zeros(1, dtype=np.int64)
    for level in range(ndims):
        dims, upper_first, _ = walk.axis(nodes, level)
        assert np.all(dims == walk.first_axes()[level])
        every = np.arange(2 * nodes.q.size)
        upper = (every & 1) ^ upper_first[every >> 1]  # curve child -> half
        sides = (sides[every >> 1] << 1) | upper
        nodes = walk.children(nodes, level, dims, upper_first, every)
    got = walk.from_sides(type(nodes)(nodes.q, sides))
    for name in ("prefix", "entry", "direction", "cell"):
        a, b = getattr(got, name), getattr(nodes, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name

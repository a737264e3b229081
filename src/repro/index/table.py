"""Physical layout of the fingerprint database along the Hilbert curve.

The S³ index stores the database *physically ordered by curve position*
(paper §IV): once the filtering step has selected a set of p-blocks, each
block is a contiguous row range, located with two binary searches in the
sorted key column — the paper's "simple index table".  The Hilbert curve's
clustering property keeps the number of distinct ranges ("curve sections")
small, which is what bounds the memory-access dispersion of the refinement
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError
from ..hilbert.butz import HilbertCurve
from ..hilbert.vectorized import encode_batch


class RangeBatch(NamedTuple):
    """The merged row ranges of several prefix lists, flattened.

    List ``i`` owns ``starts[bounds[i]:bounds[i + 1]]`` and the same slice
    of ``ends``: sorted, disjoint, non-touching ``[start, end)`` ranges —
    the curve sections of one query.
    """

    starts: np.ndarray
    ends: np.ndarray
    bounds: np.ndarray


def merge_ranges(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Join touching or overlapping ranges of sorted *starts*; drop empties.

    A range opens a new section where its start lies beyond every end
    before it (``maximum.accumulate``), so each input range ends up inside
    exactly one output range.
    """
    keep = starts < ends
    starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return starts, ends
    running = np.maximum.accumulate(ends)
    first = np.flatnonzero(np.append(True, starts[1:] > running[:-1]))
    return starts[first], running[np.append(first[1:], starts.size) - 1]


def expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Every position of the ranges ``[s, e)``, concatenated in order.

    One ``repeat`` of each range's start-minus-offset over its length plus
    one ``arange`` of the total: no ``arange`` per range.
    """
    lengths = ends - starts
    heads = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum(), dtype=np.int64) + np.repeat(
        starts - heads, lengths
    )


def block_bounds(
    prefixes: np.ndarray, key_bits: int, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first key of each block *prefix* at *depth*, and the first
    key past it, for keys of *key_bits* bits.

    ``(prefix + 1) << shift`` wraps to 0 only for the partition's very
    last block when ``key_bits == 64``: that block ends at the end of
    the keys.
    """
    if depth > key_bits:
        raise ConfigurationError(
            f"depth {depth} exceeds key resolution {key_bits}"
        )
    prefixes = np.asarray(prefixes, dtype=np.uint64)
    shift = np.uint64(key_bits - depth)
    return prefixes << shift, (prefixes + np.uint64(1)) << shift


def merge_lists(
    starts: np.ndarray, ends: np.ndarray, counts: np.ndarray, size: int
) -> RangeBatch:
    """Merge the block ranges of several lists, each list on its own.

    List ``i`` owns the next ``counts[i]`` ranges, sorted, within rows
    ``[0, size)``.  It is lifted by ``i * (size + 1)`` rows, so a single
    :func:`merge_ranges` pass merges adjacent blocks within a list and
    never across two.
    """
    if counts.size == 1:
        starts, ends = merge_ranges(starts, ends)
        return RangeBatch(starts, ends, np.array([0, starts.size]))
    base = np.arange(counts.size + 1, dtype=np.int64) * (size + 1)
    lift = np.repeat(base[:-1], counts)
    starts, ends = merge_ranges(starts + lift, ends + lift)
    bounds = np.searchsorted(starts, base)
    lift = np.repeat(base[:-1], np.diff(bounds))
    return RangeBatch(starts - lift, ends - lift, bounds)


def key_row_ranges(
    keys: np.ndarray,
    key_bits: int,
    prefixes: np.ndarray,
    counts,
    depth: int,
) -> RangeBatch:
    """Row ranges of the blocks of several prefix lists, merged per list.

    *keys* are a store's sorted curve keys (*key_bits* significant bits).
    *prefixes* are the lists concatenated: list ``i`` is the next
    ``counts[i]`` block prefixes at *depth*, in curve order.  One
    ``searchsorted`` pair locates every block of every list, and one
    :func:`merge_lists` pass merges them.
    """
    lo, hi = block_bounds(prefixes, key_bits, depth)
    starts = np.searchsorted(keys, lo, side="left")
    ends = np.where(hi == 0, keys.size, np.searchsorted(keys, hi, side="left"))
    return merge_lists(
        starts, ends, np.asarray(counts, dtype=np.int64), keys.size
    )


@dataclass
class HilbertLayout:
    """Sorted-key layout of a fingerprint column along the Hilbert curve.

    Attributes
    ----------
    curve:
        The Hilbert curve the keys belong to.
    key_levels:
        Number of curve levels resolved by the keys; keys hold the top
        ``key_levels * D`` bits of the curve position.
    keys:
        ``(N,)`` ``uint64`` sorted truncated curve keys.
    permutation:
        ``(N,)`` row permutation that sorted the original store
        (``sorted_column = original_column[permutation]``).
    """

    curve: HilbertCurve
    key_levels: int
    keys: np.ndarray
    permutation: np.ndarray

    @property
    def key_bits(self) -> int:
        """Number of significant bits in each key."""
        return self.key_levels * self.curve.ndims

    @property
    def max_depth(self) -> int:
        """Deepest partition the keys can resolve block ranges for."""
        return self.key_bits

    @classmethod
    def build(
        cls,
        fingerprints: np.ndarray,
        order: int = 8,
        key_levels: int = 2,
    ) -> "HilbertLayout":
        """Compute keys for *fingerprints* and the sorting permutation.

        *fingerprints* is the ``(N, D)`` byte array of an (unsorted) store;
        the caller reorders its columns with :attr:`permutation`.
        """
        fingerprints = np.asarray(fingerprints)
        if fingerprints.ndim != 2:
            raise ConfigurationError(
                f"fingerprints must be 2-D, got shape {fingerprints.shape}"
            )
        curve = HilbertCurve(fingerprints.shape[1], order)
        keys = encode_batch(fingerprints, order, key_levels)
        permutation = np.argsort(keys, kind="stable")
        return cls(
            curve=curve,
            key_levels=key_levels,
            keys=keys[permutation],
            permutation=permutation,
        )

    # ------------------------------------------------------------------
    def row_ranges(
        self, prefixes: np.ndarray, counts, depth: int
    ) -> RangeBatch:
        """Merged row ranges of concatenated prefix lists (see
        :func:`key_row_ranges`)."""
        return key_row_ranges(self.keys, self.key_bits, prefixes, counts, depth)

    def block_row_ranges(
        self, prefixes: np.ndarray, depth: int
    ) -> list[tuple[int, int]]:
        """Return merged contiguous row ranges covering the given blocks.

        *prefixes* must be sorted in curve order (as produced by the
        filtering step).  Blocks adjacent on the curve merge into a single
        section — the Hilbert clustering property at work.
        """
        prefixes = np.asarray(prefixes, dtype=np.uint64)
        starts, ends, _ = self.row_ranges(prefixes, [prefixes.size], depth)
        return list(zip(starts.tolist(), ends.tolist()))

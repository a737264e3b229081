"""The parts of one read view as one key space: what a scan locates
every part's rows with, in one pass per batch.

A segmented index answers a query from every sealed segment of its
view, and each segment is sorted on its own.  Locating a batch's blocks
segment by segment repeats a dozen small numpy calls per segment and
batch — the per-section cost the paper's pseudo-disk (§IV-B, eq. 5)
amortises over its queries.  A :class:`ViewPlan` is built once, when a
segment set is published, and lays the segments side by side:

* **layout** — the parts' own sorted keys, searched with one
  ``searchsorted`` pair per part, and every (part, query) pair's block
  ranges merged in one call as rows of the view (segments number their
  rows one after another); exact at every key width, with no copy of a
  key;
* **occupancy** — each sketch's ``occupied`` prefixes tagged
  ``(p << depth) | prefix`` and concatenated, so one ``searchsorted``
  runs the occupancy test of every (part, prefix) pair.

A view of one part (every :class:`~repro.index.s3.S3Index`) uses the
part's own layout and occupancy: no tag and no copy.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .table import RangeBatch, block_bounds, merge_lists

_U64 = np.uint64


class PartsLayout:
    """The sorted keys of several parts as one layout.

    :meth:`row_ranges` has :class:`~repro.index.table.HilbertLayout`'s
    signature: list ``i`` of ``len(counts)`` lists belongs to part
    ``i // (len(counts) // parts)`` — (part, query) pairs in part-major
    order — and its ranges are rows of the parts' concatenation.
    """

    def __init__(self, layouts: Sequence, offsets: np.ndarray):
        self.parts = len(layouts)
        self.key_bits = layouts[0].key_bits
        self.offsets = offsets
        self.part_keys = [layout.keys for layout in layouts]

    def row_ranges(self, prefixes: np.ndarray, counts, depth: int) -> RangeBatch:
        """Merged row ranges of concatenated prefix lists, one list per
        (part, query) pair, in the parts' concatenated rows.

        One ``searchsorted`` per part that has blocks to find locates
        their first and end keys together; the parts' bases are added
        in one call after.
        """
        counts = np.asarray(counts, dtype=np.int64)
        # Row i holds block i's first key and the first key past it:
        # one list's needles stay sorted for each part's search.
        bounds = np.column_stack(block_bounds(prefixes, self.key_bits, depth))
        at = np.append(0, np.cumsum(counts))[:: counts.size // self.parts]
        rows = np.empty(bounds.shape, dtype=np.int64)
        for keys, a, b in zip(self.part_keys, at[:-1], at[1:]):
            if a < b:
                rows[a:b] = np.searchsorted(keys, bounds[a:b])
        per_part = np.diff(at)
        rows += np.repeat(self.offsets[:-1], per_part)[:, None]
        # A wrapped end key (64-bit keys only) is the end of its part.
        wrapped = bounds[:, 1] == 0
        if wrapped.any():
            rows[wrapped, 1] = np.repeat(self.offsets[1:], per_part)[wrapped]
        return merge_lists(rows[:, 0], rows[:, 1], counts, int(self.offsets[-1]))


class ViewPlan(NamedTuple):
    """What a scan needs of a view's segments before it reads a row.

    ``layout`` is the one part's own layout, or a :class:`PartsLayout`;
    ``offsets`` where each part's rows start in the view, and the total.
    ``occupied`` holds the sketches' populated prefixes, part ``p``'s
    lifted by its ``tags[p]``.  ``depths`` is each part's sketch depth,
    and ``sketched`` which parts have a sketch at all; these three are
    ``(parts, 1)`` columns.
    """

    layout: object
    offsets: np.ndarray
    occupied: np.ndarray
    tags: np.ndarray
    depths: np.ndarray
    sketched: np.ndarray

    @classmethod
    def build(cls, segments: Sequence) -> "ViewPlan":
        """The plan of *segments*, in view order."""
        offsets = np.append(
            0, np.cumsum([s.meta.count for s in segments], dtype=np.int64)
        )
        sketches = [s.sketch for s in segments]
        sketched = np.array(
            [s is not None for s in sketches], dtype=bool
        ).reshape(-1, 1)
        depths = np.array(
            [0 if s is None else s.depth for s in sketches], dtype=np.int64
        ).reshape(-1, 1)
        # Tag each part in the bits above its deepest prefix; a part's
        # end prefix, 1 << depth, then equals the next part's start.
        shift = int(depths.max(initial=0))
        tags = np.arange(len(segments), dtype=_U64)[:, None] << _U64(shift)
        if len(segments) <= 1:
            layout = segments[0].layout if segments else None
            occupied = (
                sketches[0].occupied if sketched.any() else np.empty(0, _U64)
            )
        else:
            layout = PartsLayout([s.layout for s in segments], offsets)
            tagged = [
                s.occupied + tag
                for tag, s in zip(tags[:, 0], sketches) if s is not None
            ]
            occupied = np.concatenate([np.empty(0, _U64), *tagged])
        return cls(layout, offsets, occupied, tags, depths, sketched)

    def nbytes(self) -> int:
        """Bytes of the tagged occupancy: what the plan holds beyond its
        parts (0 for one part)."""
        if not isinstance(self.layout, PartsLayout):
            return 0
        return int(self.occupied.nbytes)

    def occupancy(self, prefixes: np.ndarray, depth: int) -> np.ndarray:
        """``(parts, prefixes)`` keep-mask: which selected *prefixes*
        each part holds rows in, by its sketch's occupancy.

        Exact in both directions of the depth mismatch, as
        :func:`~repro.index.segmented.sketch.occupancy_keep`: a deeper
        prefix is shifted down to its ancestor at the sketch's depth, a
        shallower one is tested for any occupied descendant.  A part
        without a sketch keeps every prefix.
        """
        down = np.maximum(depth - self.depths, 0).astype(_U64)
        up = np.maximum(self.depths - depth, 0).astype(_U64)
        tags = self.tags
        ancestors = np.asarray(prefixes, dtype=_U64) >> down
        occupied = self.occupied
        if occupied.size == 0:
            keep = np.zeros(ancestors.shape, dtype=bool)
        elif not up.any():
            # Every sketch is at most as deep as the selection: one
            # membership test of each ancestor.
            needles = ancestors + tags
            pos = np.searchsorted(occupied, needles)
            keep = occupied[np.minimum(pos, occupied.size - 1)] == needles
        else:
            keep = np.searchsorted(occupied, (ancestors << up) + tags) < (
                np.searchsorted(occupied, ((ancestors + _U64(1)) << up) + tags)
            )
        if not self.sketched.all():
            keep |= ~self.sketched
        return keep


"""Compaction policy of the segmented index.

Every flush seals one small segment, and every live segment adds one
block scan to every query, so query latency degrades linearly with the
segment count.  Compaction merges segments back into one Hilbert-ordered
segment; the policy below is **size-tiered with a segment-count cap**:

* nothing happens while the directory holds at most ``max_segments``
  segments (merging is deferred — writes stay cheap);
* past the cap, the smallest segments are merged first (they are the
  cheapest to rewrite and the likeliest to be recent flushes of similar
  size), taking just enough of them to land back at ``max_segments`` —
  at least two, so every rewrite reduces the segment count.

The policy is a per-open setting of the index; it is not persisted.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ConfigurationError


@dataclass
class CompactionPolicy:
    """Size-tiered merge policy with a maximum live-segment count."""

    max_segments: int = 8

    def __post_init__(self) -> None:
        if self.max_segments < 1:
            raise ConfigurationError(
                f"max_segments must be >= 1, got {self.max_segments}"
            )

    def plan(self, counts: list[int]) -> list[int]:
        """Indices of the segments to merge (empty = nothing to do).

        *counts* is the record count of each live segment, in manifest
        order.  The returned indices are sorted in manifest order so the
        merged segment preserves the arrival order of its inputs.
        """
        n = len(counts)
        if n <= self.max_segments:
            return []
        # Merging k segments into one reduces the count by k - 1; to land
        # at max_segments we need k = n - max_segments + 1, which is at
        # least 2 because n > max_segments >= 1.
        k = n - self.max_segments + 1
        smallest = sorted(range(n), key=lambda i: (counts[i], i))[:k]
        return sorted(smallest)


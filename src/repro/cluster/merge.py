"""Reassemble shard-local results into single-node result order.

A single :class:`~repro.index.segmented.lsm.SegmentedS3Index` answers a
query by concatenating per-segment matches **in manifest order** (each
segment's rows offset by its base in the virtual concatenation), with
memtable matches last.  A shard server does exactly the same over its
own manifest — which lists a *subset* of the source's segments, in
source order.  So a shard's result is a stable-order selection of the
single-node result's parts, just with shard-local row numbering.

The merge therefore never re-sorts matches (sorting by row would be
wrong anyway: rows within one segment part are emitted in probe order,
not ascending).  Instead it

1. splits each shard's flat result at the shard's cumulative
   segment-count boundaries (a ``searchsorted`` over the shard-local
   row ranges — valid because shard-local rows are ``local_base +
   in-segment row`` and parts arrive in shard-manifest order, so row
   ranges of consecutive parts are disjoint and ascending);
2. renumbers each part's rows ``local - local_base + global_base``;
3. emits sealed parts ordered by the segment's ``source_pos`` — the
   interleaving the single node would have produced — then any
   memtable parts (rows past the shard's sealed total), renumbered past
   the source's sealed total.

Every step is a numpy operation on whole columns: the ``searchsorted``
split, one renumbering add, and one ``np.concatenate`` per column.  The
merged columns hold exactly the values the shards sent, and go back on
the wire as raw bytes, as the single node's would.

Memtable caveat: rows ingested *after* planning exist only on their
owning shard, and the merged row numbers for those rows depend on the
shard layout (they are appended after all sealed rows, per shard in
shard order).  Sealed data — everything at plan time — merges bit
for bit; see ``docs/cluster.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plan import ClusterManifest, ShardSpec


# Columns of a per-query wire result and the dtype each travels as.
_WIRE_COLUMNS = (
    ("rows", np.int64),
    ("ids", np.uint32),
    ("timecodes", np.float64),
    ("fingerprints", np.uint8),
)

#: Source position of memtable rows: after every sealed segment.
_MEMTABLE_POS = np.iinfo(np.int64).max


@dataclass(frozen=True)
class _Part:
    """One segment's slice of a shard-local wire result."""

    source_pos: int  # position in the source manifest; memtable = +inf
    shard: int
    columns: tuple  # renumbered rows, ids, timecodes, fingerprints|None


@dataclass(frozen=True)
class ShardMap:
    """Precomputed per-shard row geometry for the merge hot path."""

    shard: int
    local_bases: np.ndarray  # (S,) first shard-local row of each segment
    local_ends: np.ndarray  # (S,) one past the last shard-local row
    global_bases: np.ndarray  # (S,) segment base row in the source index
    source_pos: np.ndarray  # (S,) segment position in the source manifest
    sealed_rows: int  # shard-local rows below this are sealed

    @classmethod
    def from_spec(cls, spec: ShardSpec) -> "ShardMap":
        counts = np.asarray([a.count for a in spec.segments], dtype=np.int64)
        ends = np.cumsum(counts)
        return cls(
            shard=spec.shard,
            local_bases=ends - counts,
            local_ends=ends,
            global_bases=np.asarray(
                [a.global_base for a in spec.segments], dtype=np.int64
            ),
            source_pos=np.asarray(
                [a.source_pos for a in spec.segments], dtype=np.int64
            ),
            sealed_rows=int(ends[-1]) if counts.size else 0,
        )

    def split(self, wire: dict, total_sealed: int) -> list[_Part]:
        """Decompose one shard-local wire result into renumbered parts.

        *total_sealed* is the source index's sealed row count — the
        global base for memtable rows.
        """
        rows, *columns = _wire_columns(wire)
        if rows.size == 0:
            return []
        # Parts arrive concatenated in shard-manifest order, so the
        # segment of each match is found by bisecting its local row
        # range (index S: the memtable); one pass collects contiguous
        # runs of equal segment.
        seg_of = np.searchsorted(self.local_ends, rows, side="right")
        shifts = np.append(
            self.global_bases - self.local_bases,
            total_sealed - self.sealed_rows,
        )
        positions = np.append(self.source_pos, _MEMTABLE_POS)
        renumbered = rows + shifts[seg_of]
        cuts = np.flatnonzero(np.diff(seg_of)) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [rows.size]))
        return [
            _Part(
                source_pos=int(positions[seg_of[start]]),
                shard=self.shard,
                columns=tuple(
                    None if c is None else c[start:end]
                    for c in (renumbered, *columns)
                ),
            )
            for start, end in zip(starts, ends)
        ]


def _wire_columns(wire: dict) -> tuple:
    """A per-query wire result as its columns in their wire dtypes.

    Takes the columns as a reply decodes them (arrays over the received
    frame, not copied; lists convert too).
    """
    return tuple(
        None if wire.get(name) is None else np.asarray(wire[name], dtype=dtype)
        for name, dtype in _WIRE_COLUMNS
    )


def build_shard_maps(manifest: ClusterManifest) -> list[ShardMap]:
    return [ShardMap.from_spec(spec) for spec in manifest.shards]


def merge_query_wires(
    per_shard: list[tuple[ShardMap, dict]],
    total_sealed: int,
    include_fingerprints: bool = False,
) -> dict:
    """Merge one query's shard-local wire results into single-node form.

    *per_shard* pairs each responding shard's :class:`ShardMap` with the
    wire-format result dict the shard returned for this query.  Shards
    that were skipped (proven empty) are simply absent.  Returns, as
    columns, the wire result a single node would have produced.
    """
    parts = [
        part
        for shard_map, wire in per_shard
        for part in shard_map.split(wire, total_sealed)
    ]
    # Sealed parts interleave across shards by source position — the
    # order the single node's fan-out emits them.  Memtable parts (max
    # source_pos) come last, grouped by shard.  The sort is total:
    # source_pos is unique among sealed parts (a segment lives in
    # exactly one shard), and (pos, shard) disambiguates memtables.
    parts.sort(key=lambda part: (part.source_pos, part.shard))
    merged = {"count": sum(len(part.columns[0]) for part in parts)}
    for k, (name, dtype) in enumerate(_WIRE_COLUMNS):
        if name == "fingerprints" and not include_fingerprints:
            break
        chunks = [p.columns[k] for p in parts if p.columns[k] is not None]
        merged[name] = (
            np.concatenate(chunks) if chunks
            else np.zeros((0, 0) if name == "fingerprints" else 0, dtype)
        )
    return merged

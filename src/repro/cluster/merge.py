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

Byte-level equality of the re-encoded JSON follows from Python's
shortest-repr float round-trip: the values the shard serialised are the
values we re-serialise.

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


@dataclass(frozen=True)
class _Part:
    """One segment's slice of a shard-local wire result."""

    source_pos: int  # position in the source manifest; memtable = +inf
    rows: list
    ids: list
    timecodes: list
    fingerprints: list | None


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
        rows = np.asarray(wire["rows"], dtype=np.int64)
        if rows.size == 0:
            return []
        ids = wire["ids"]
        timecodes = wire["timecodes"]
        fps = wire.get("fingerprints")
        # Parts arrive concatenated in shard-manifest order, so the
        # segment of each match is found by bisecting its local row
        # range; one pass collects contiguous runs of equal segment.
        seg_of = np.searchsorted(self.local_ends, rows, side="right")
        cuts = np.flatnonzero(np.diff(seg_of)) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [rows.size]))
        parts = []
        for start, end in zip(starts, ends):
            seg = int(seg_of[start])
            chunk = rows[start:end]
            if seg >= self.local_bases.size:  # memtable rows
                shifted = chunk - self.sealed_rows + total_sealed
                pos = np.iinfo(np.int64).max
            else:
                shifted = (
                    chunk
                    - self.local_bases[seg]
                    + self.global_bases[seg]
                )
                pos = int(self.source_pos[seg])
            parts.append(_Part(
                source_pos=pos,
                rows=[int(r) for r in shifted],
                ids=ids[start:end],
                timecodes=timecodes[start:end],
                fingerprints=None if fps is None else fps[start:end],
            ))
        return parts


# Columns of a per-query wire result and the dtype each packs to.
_WIRE_COLUMNS = (
    ("rows", np.int64),
    ("ids", np.int64),
    ("timecodes", np.float64),
    ("fingerprints", np.uint8),
)


def pack_wire(wire: dict) -> tuple:
    """A per-query wire result as numpy columns — what a cache should hold.

    Parsed JSON is lists of boxed numbers, several times the bytes of the
    columns they spell; :func:`unpack_wire` gives back an equal dict.
    """
    return tuple(
        None if wire.get(name) is None else np.asarray(wire[name], dtype=dtype)
        for name, dtype in _WIRE_COLUMNS
    )


def unpack_wire(columns: tuple) -> dict:
    """The wire result :func:`pack_wire` was given."""
    wire = {"count": int(columns[0].shape[0])}
    for (name, _), column in zip(_WIRE_COLUMNS, columns):
        if column is not None:
            wire[name] = column.tolist()
    return wire


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
    that were skipped (proven empty) are simply absent.  Returns a wire
    result dict identical to what a single node would have produced.
    """
    parts: list[tuple[int, int, _Part]] = []
    for shard_map, wire in per_shard:
        for part in shard_map.split(wire, total_sealed):
            parts.append((part.source_pos, shard_map.shard, part))
    # Sealed parts interleave across shards by source position — the
    # order the single node's fan-out emits them.  Memtable parts (max
    # source_pos) come last, grouped by shard.  The sort is total:
    # source_pos is unique among sealed parts (a segment lives in
    # exactly one shard), and (pos, shard) disambiguates memtables.
    parts.sort(key=lambda item: (item[0], item[1]))
    rows: list[int] = []
    ids: list = []
    timecodes: list = []
    fingerprints: list = []
    for _, _, part in parts:
        rows.extend(part.rows)
        ids.extend(part.ids)
        timecodes.extend(part.timecodes)
        if part.fingerprints is not None:
            fingerprints.extend(part.fingerprints)
    merged = {
        "count": len(rows),
        "rows": rows,
        "ids": ids,
        "timecodes": timecodes,
    }
    if include_fingerprints:
        merged["fingerprints"] = fingerprints
    return merged

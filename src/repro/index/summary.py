"""Machine-readable summaries of stores and indexes.

One schema, three producers: ``repro-s3 info --json`` (files and
directories on disk), the detection service's ``health`` handler (the
live index object it serves), and tests/CI smoke that consume either.
Keeping the construction here ensures the CLI and the service report
the same fields for the same index.
"""

from __future__ import annotations

from pathlib import Path

from .s3 import S3Index
from .store import PathLike, read_header


def store_file_summary(path: PathLike) -> dict:
    """Describe a fingerprint store file (count, dimension, bytes)."""
    path = Path(path)
    count, ndims = read_header(path)
    return {
        "kind": "store",
        "path": str(path),
        "rows": count,
        "ndims": ndims,
        "bytes": path.stat().st_size,
    }


def index_summary(index) -> dict:
    """Describe a live :class:`S3Index` or ``SegmentedS3Index``.

    The dict is JSON-safe and stable: the service's ``health`` payload
    and ``repro-s3 info --json`` both embed it verbatim.
    """
    if isinstance(index, S3Index):
        return {
            "kind": "monolithic",
            "rows": len(index),
            "ndims": index.ndims,
            "order": index.order,
            "key_levels": index.key_levels,
            "depth": index.depth,
            "sigma": getattr(index.model, "sigma", None),
        }
    manifest = index.manifest
    return {
        "kind": "segmented",
        "rows": len(index),
        "ndims": index.ndims,
        "order": manifest.order,
        "key_levels": manifest.key_levels,
        "depth": index.depth,
        "sigma": manifest.sigma,
        "wal": manifest.wal,
        "pending_rows": index.pending_rows,
        "num_segments": index.num_segments,
        "segments": [
            {"name": seg.name, "count": seg.count, "tier": seg.tier}
            for seg in index.segments
        ],
        "storage": index.storage_info(),
        # Ingest-pipeline pressure: durability mode, WAL bytes, unsealed
        # memtables, compaction debt and maintenance-worker activity —
        # the operator's view of whether background seal/compaction is
        # keeping up with the write rate.
        "ingest": index.ingest_info(),
    }

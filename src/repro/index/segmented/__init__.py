"""Segmented live index: WAL-backed ingestion over sealed Hilbert segments.

An LSM-style extension of the paper's static S³ structure for the
continuous-monitoring deployment of §V-D: durable online ``add`` (write-
ahead log + memtable, with per-append / group / async fsync), immutable
Hilbert-ordered segments sealed by flushes, size-tiered compaction —
inline, or the same ``flush()``/``compact()`` on a background
:class:`MaintenanceThread` with backpressure-shedding ingest — and a
query path that fans the
statistical / ε-range block selection out across a pinned snapshot of
all segments and memtables and merges the results — byte-for-byte the
same answers as a monolithic :class:`~repro.index.s3.S3Index` over the
union of the records.
"""

from .compaction import CompactionPolicy
from .lsm import (
    CompactionResult,
    ReadView,
    Segment,
    SegmentedQueryStats,
    SegmentedS3Index,
)
from .maintenance import MaintenanceThread
from .manifest import Manifest, SegmentMeta
from .memtable import MemTable
from .sketch import SegmentSketch, SketchConfig, sketch_filename
from .wal import WriteAheadLog, replay

__all__ = [
    "CompactionPolicy",
    "CompactionResult",
    "MaintenanceThread",
    "Manifest",
    "MemTable",
    "ReadView",
    "Segment",
    "SegmentMeta",
    "SegmentSketch",
    "SegmentedQueryStats",
    "SegmentedS3Index",
    "SketchConfig",
    "WriteAheadLog",
    "replay",
    "sketch_filename",
]

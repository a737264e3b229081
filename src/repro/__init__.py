"""Statistical Similarity Search (S³) for content-based video copy detection.

A complete reproduction of Joly, Buisson & Frélicot (ICDE 2005): the
statistical query paradigm and its Hilbert-curve index
(:mod:`repro.index`, :mod:`repro.hilbert`, :mod:`repro.distortion`), the
local video fingerprints (:mod:`repro.fingerprint`, :mod:`repro.video`) and
the voting-based copy detector (:mod:`repro.cbcd`) — plus the corpus and
experiment machinery regenerating every table and figure of the paper's
evaluation (:mod:`repro.corpus`, :mod:`repro.experiments`).

Quickstart::

    from repro import (FingerprintStore, NormalDistortionModel, S3Index)

    index = S3Index(store, model=NormalDistortionModel(20, sigma=20.0))
    result = index.statistical_query(query, alpha=0.8)
"""

from .cbcd import CopyDetector, Detection, DetectorConfig
from .distortion import (
    NormalDistortionModel,
    PerComponentNormalModel,
    estimate_distortion,
    radius_for_expectation,
)
from .errors import (
    ConfigurationError,
    ExtractionError,
    GeometryError,
    IndexError_,
    ReproError,
    StoreError,
    WALError,
)
from .fingerprint import ExtractorConfig, FingerprintExtractor
from .hilbert import HilbertCurve
from .index import (
    CompactionPolicy,
    FingerprintStore,
    S3Index,
    SearchResult,
    SegmentedS3Index,
    SequentialScanIndex,
    StoreBuilder,
    tune_depth,
)
from .video import VideoClip, generate_clip, generate_corpus

__version__ = "1.0.0"

__all__ = [
    "CompactionPolicy",
    "ConfigurationError",
    "CopyDetector",
    "Detection",
    "DetectorConfig",
    "ExtractionError",
    "ExtractorConfig",
    "FingerprintExtractor",
    "FingerprintStore",
    "GeometryError",
    "HilbertCurve",
    "IndexError_",
    "NormalDistortionModel",
    "PerComponentNormalModel",
    "ReproError",
    "S3Index",
    "SearchResult",
    "SegmentedS3Index",
    "SequentialScanIndex",
    "StoreBuilder",
    "StoreError",
    "VideoClip",
    "WALError",
    "estimate_distortion",
    "generate_clip",
    "generate_corpus",
    "radius_for_expectation",
    "tune_depth",
    "__version__",
]

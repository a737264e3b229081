"""The complete content-based copy detector (paper §III + §IV).

Wires the pieces together: candidate fingerprints (extracted from a clip or
supplied directly) are searched in an :class:`~repro.index.s3.S3Index` with
statistical queries of expectation α; the per-query matches are buffered
and merged by the voting strategy; identifiers whose similarity measure
``n_sim`` reaches the decision threshold are reported as copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..distortion.model import IndependentDistortionModel
from ..errors import ConfigurationError
from ..fingerprint.extractor import ExtractorConfig, FingerprintExtractor
from ..index.batch import BatchQueryExecutor
from ..index.options import QueryOptions, config_options
from ..index.s3 import S3Index
from ..video.synthetic import VideoClip
from .voting import MIN_MATCHES, TUKEY_C, VOTE_TOLERANCE
from .voting import Vote, check_vote_parameters, vote


@dataclass(frozen=True)
class Detection:
    """A reported copy: candidate material matches a referenced video."""

    video_id: int
    offset: float
    nsim: int
    num_candidates: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Detection(id={self.video_id}, b={self.offset:.1f}, "
            f"nsim={self.nsim})"
        )


@dataclass
class DetectorConfig:
    """Decision-layer parameters.

    Engine tuning (batching, prefilter mode) lives in ``options``, the
    unified :class:`~repro.index.options.QueryOptions`; when given, its
    ``alpha`` wins.  After construction ``options`` is always populated.
    """

    alpha: float = QueryOptions.alpha
    vote_tolerance: float = VOTE_TOLERANCE
    tukey_c: float = TUKEY_C
    decision_threshold: int = 5
    min_matches: int = MIN_MATCHES
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    options: Optional[QueryOptions] = None

    def __post_init__(self) -> None:
        check_vote_parameters(self.vote_tolerance, self.tukey_c, self.min_matches)
        if self.decision_threshold < 1:
            raise ConfigurationError(
                f"decision_threshold must be >= 1, got {self.decision_threshold}"
            )
        self.options = config_options(self.alpha, self.options)
        self.alpha = self.options.alpha


@dataclass
class DetectionReport:
    """Everything a detection run produced (decisions + diagnostics)."""

    detections: list[Detection]
    votes: list[Vote]
    num_queries: int
    rows_scanned: int
    search_seconds: float

    def best(self) -> Optional[Detection]:
        """The strongest detection, or ``None``."""
        return self.detections[0] if self.detections else None


class CopyDetector:
    """Statistical-search copy detector over a reference index."""

    def __init__(
        self,
        index: S3Index,
        config: DetectorConfig | None = None,
        model: Optional[IndependentDistortionModel] = None,
    ):
        self.index = index
        self.config = config or DetectorConfig()
        self.model = model
        self._extractor = FingerprintExtractor(self.config.extractor)

    # ------------------------------------------------------------------
    def detect_fingerprints(
        self,
        fingerprints: np.ndarray,
        timecodes: np.ndarray,
    ) -> DetectionReport:
        """Detect copies given pre-extracted candidate fingerprints.

        *timecodes* are the candidate time-codes ``tc'_j`` (frames from the
        start of the candidate material).
        """
        fingerprints = np.asarray(fingerprints)
        timecodes = np.asarray(timecodes, dtype=np.float64)
        if fingerprints.ndim != 2 or fingerprints.shape[0] != timecodes.shape[0]:
            raise ConfigurationError(
                "fingerprints must be (N, D) aligned with (N,) timecodes"
            )
        cfg = self.config
        executor = BatchQueryExecutor(
            self.index, model=self.model, options=cfg.options,
        )
        results = executor.query_all(fingerprints.astype(np.float64))
        votes = vote(
            ((tc, r.ids, r.timecodes) for tc, r in zip(timecodes, results)),
            tolerance=cfg.vote_tolerance,
            tukey_c=cfg.tukey_c,
            min_matches=cfg.min_matches,
        )
        detections = [
            Detection(
                video_id=v.video_id,
                offset=v.offset,
                nsim=v.nsim,
                num_candidates=v.num_candidates,
            )
            for v in votes
            if v.nsim >= cfg.decision_threshold
        ]
        return DetectionReport(
            detections=detections,
            votes=votes,
            num_queries=int(fingerprints.shape[0]),
            rows_scanned=sum(r.stats.rows_scanned for r in results),
            search_seconds=sum((r.stats.total_seconds for r in results), 0.0),
        )

    def detect_clip(self, clip: VideoClip) -> DetectionReport:
        """Extract fingerprints from *clip* and detect copies."""
        extraction = self._extractor.extract(clip, video_id=0)
        return self.detect_fingerprints(
            extraction.store.fingerprints, extraction.store.timecodes
        )

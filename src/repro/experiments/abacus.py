"""Shared machinery for the detection-rate abacuses (Figs. 8 & 9).

Both figures run the complete CBCD pipeline — extraction, statistical
search, voting — over candidate clips transformed with the five kinds of
transformations at a grid of severities, and report the good-detection
rate.  Fig. 8 varies the database size at fixed α; Fig. 9 varies α at
fixed database size.  The per-configuration mean single-fingerprint search
time feeds the small tables below each figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..cbcd.detector import CopyDetector, DetectorConfig
from ..cbcd.evaluation import (
    DetectionRateResult,
    GroundTruth,
    evaluate_extracted,
    extract_candidates,
)
from ..corpus.builder import ReferenceCorpus, build_reference_corpus
from ..corpus.filler import scale_store
from ..distortion.model import NormalDistortionModel
from ..index.s3 import S3Index
from ..rng import SeedLike, resolve_rng
from ..video.synthetic import VideoClip
from ..video.transforms import (
    Contrast,
    Gamma,
    GaussianNoise,
    Resize,
    Transform,
    VerticalShift,
)

#: The paper's five transformation families, with the abacus grids of
#: Figs. 8/9 condensed to three severities each (mild → severe).
DEFAULT_TRANSFORM_GRIDS: dict[str, list[Callable[[], Transform]]] = {
    "shift": [
        lambda: VerticalShift(0.05),
        lambda: VerticalShift(0.15),
        lambda: VerticalShift(0.30),
    ],
    "scale": [
        lambda: Resize(0.95),
        lambda: Resize(0.85),
        lambda: Resize(0.70),
    ],
    "gamma": [
        lambda: Gamma(1.2),
        lambda: Gamma(1.8),
        lambda: Gamma(2.5),
    ],
    "contrast": [
        lambda: Contrast(1.2),
        lambda: Contrast(1.8),
        lambda: Contrast(2.5),
    ],
    "noise": [
        lambda: GaussianNoise(5.0, seed=101),
        lambda: GaussianNoise(15.0, seed=102),
        lambda: GaussianNoise(30.0, seed=103),
    ],
}


@dataclass
class AbacusCell:
    """One (transform family, severity, configuration) measurement."""

    family: str
    severity: float
    config_label: str
    detection_rate: float
    mean_search_seconds: float
    num_trials: int


@dataclass
class AbacusSetup:
    """Reusable fixtures shared across the abacus sweeps."""

    corpus: ReferenceCorpus
    candidates: list[tuple[VideoClip, GroundTruth]]
    sigma: float
    rng: np.random.Generator


def build_setup(
    num_videos: int = 12,
    frames_per_video: int = 150,
    num_candidates: int = 10,
    candidate_frames: int = 80,
    sigma: float = 20.0,
    seed: SeedLike = 0,
) -> AbacusSetup:
    """Build the reference corpus and candidate clips once."""
    rng = resolve_rng(seed)
    corpus = build_reference_corpus(num_videos, frames_per_video, seed=rng)
    candidates = corpus.random_candidates(num_candidates, candidate_frames, rng=rng)
    return AbacusSetup(corpus=corpus, candidates=candidates, sigma=sigma, rng=rng)


def make_detector(
    setup: AbacusSetup,
    db_rows: int,
    alpha: float,
    decision_threshold: int = 5,
    depth: int = 20,
) -> CopyDetector:
    """Index the corpus scaled to *db_rows* rows; wrap it in a detector.

    The partition depth defaults deeper than the index's own heuristic:
    detection precision benefits from tight blocks (fewer coincidental
    votes), and the batched threshold search keeps the filtering cost
    moderate.
    """
    store = scale_store(setup.corpus.store, db_rows, rng=setup.rng)
    model = NormalDistortionModel(store.ndims, setup.sigma)
    index = S3Index(store, model=model, depth=min(depth, 2 * store.ndims))
    config = DetectorConfig(alpha=alpha, decision_threshold=decision_threshold)
    return CopyDetector(index, config)


def severity_of(transform: Transform) -> float:
    """The single numeric knob of a grid transform (for table axes)."""
    params = transform.params()
    return float(next(iter(params.values()))) if params else 0.0


def sweep_transforms_shared(
    detectors: dict[str, CopyDetector],
    candidates: Sequence[tuple[VideoClip, GroundTruth]],
    grids: dict[str, list[Callable[[], Transform]]] | None = None,
) -> list[AbacusCell]:
    """Run every (family, severity) cell against several detectors.

    Transforming and fingerprinting the candidates is detector-independent,
    so each cell is extracted **once** and evaluated against every
    configuration — the big cost saver for the Fig. 8/9 sweeps.
    """
    grids = grids if grids is not None else DEFAULT_TRANSFORM_GRIDS
    cells: list[AbacusCell] = []
    for family, factories in grids.items():
        for factory in factories:
            transform = factory()
            extracted = extract_candidates(candidates, transform=transform)
            for label, detector in detectors.items():
                result: DetectionRateResult = evaluate_extracted(
                    detector, extracted
                )
                cells.append(
                    AbacusCell(
                        family=family,
                        severity=severity_of(transform),
                        config_label=label,
                        detection_rate=result.detection_rate,
                        mean_search_seconds=result.mean_search_seconds,
                        num_trials=result.num_trials,
                    )
                )
    return cells


def sweep_transforms(
    detector: CopyDetector,
    candidates: Sequence[tuple[VideoClip, GroundTruth]],
    config_label: str,
    grids: dict[str, list[Callable[[], Transform]]] | None = None,
) -> list[AbacusCell]:
    """Run every (family, severity) cell against one detector."""
    return sweep_transforms_shared({config_label: detector}, candidates, grids)


@dataclass
class AbacusResult:
    """Cells plus the per-configuration search-time table."""

    title: str
    cells: list[AbacusCell] = field(default_factory=list)
    search_times: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        from .common import format_table

        families = sorted({c.family for c in self.cells})
        blocks = [self.title]
        for family in families:
            rows = [
                (c.severity, c.config_label, c.detection_rate, c.num_trials)
                for c in self.cells
                if c.family == family
            ]
            rows.sort(key=lambda r: (r[0], r[1]))
            blocks.append(
                format_table(
                    ["severity", "config", "detection rate", "trials"],
                    rows,
                    title=f"\ntransform family: {family}",
                )
            )
        time_rows = [(k, v * 1e3) for k, v in self.search_times.items()]
        blocks.append(
            format_table(
                ["config", "search time (ms/fingerprint)"],
                time_rows,
                title="\nmean single-fingerprint search time",
            )
        )
        return "\n".join(blocks)

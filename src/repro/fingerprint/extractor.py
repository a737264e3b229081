"""End-to-end local fingerprint extraction (paper §III).

``video → key-frames → interest points → 20-byte fingerprints`` with, for
each fingerprint, the video identifier ``Id`` and the time-code ``tc`` the
voting strategy needs.  Time-codes are expressed in *frames* of the source
clip (converted to seconds by the frame rate where needed), matching the
paper's key-image tolerance of "2 frames".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ExtractionError
from ..index.store import FingerprintStore
from ..video.synthetic import VideoClip
from .descriptor import DescriptorConfig, DescriptorExtractor
from .harris import HarrisConfig, detect_interest_points_many
from .motion import detect_keyframes


@dataclass(frozen=True)
class ExtractorConfig:
    """All extraction parameters in one bundle."""

    motion_sigma: float = 2.0
    max_keyframes: int | None = None
    harris: HarrisConfig = field(default_factory=HarrisConfig)
    descriptor: DescriptorConfig = field(default_factory=DescriptorConfig)

    def keyframe_margin(self) -> int:
        """Temporal margin key-frames must keep from the clip ends."""
        return max(self.descriptor.temporal_offset, 1)


@dataclass
class ExtractionResult:
    """Fingerprints plus the point metadata calibration needs.

    ``positions`` is ``(N, 3)`` of ``(t, y, x)``: the key-frame index and
    pixel position each fingerprint was computed at.
    """

    store: FingerprintStore
    positions: np.ndarray
    keyframes: np.ndarray

    def __len__(self) -> int:
        return len(self.store)


class FingerprintExtractor:
    """The paper's three-step extraction pipeline."""

    def __init__(self, config: ExtractorConfig | None = None):
        self.config = config or ExtractorConfig()

    def extract(
        self,
        clip: VideoClip,
        video_id: int,
        timecode_offset: float = 0.0,
    ) -> ExtractionResult:
        """Extract every local fingerprint of *clip*.

        *video_id* becomes the stored identifier; *timecode_offset* shifts
        the stored time-codes (useful when a clip is a segment of a longer
        referenced programme).
        """
        cfg = self.config
        keyframes = detect_keyframes(
            clip,
            sigma=cfg.motion_sigma,
            margin=cfg.keyframe_margin(),
            max_keyframes=cfg.max_keyframes,
        )
        detections = detect_interest_points_many(clip.frames[keyframes], cfg.harris)
        candidates = np.array(
            [(t, y, x) for t, points in zip(keyframes, detections) for y, x in points],
            dtype=np.int64,
        ).reshape(-1, 3)
        fingerprints, kept = DescriptorExtractor(
            clip, cfg.descriptor
        ).describe_many(candidates)
        positions = candidates[kept]
        if not len(positions):
            raise ExtractionError(
                "no fingerprints extracted; clip too small or featureless"
            )
        store = FingerprintStore(
            fingerprints=fingerprints,
            ids=np.full(len(fingerprints), video_id, dtype=np.uint32),
            timecodes=timecode_offset + positions[:, 0].astype(np.float64),
        )
        return ExtractionResult(
            store=store,
            positions=positions,
            keyframes=keyframes,
        )

    def extract_at(
        self, clip: VideoClip, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Describe explicit ``(t, y, x)`` positions ("perfect detector").

        Used by the distortion calibration of §IV-C: positions in a
        transformed clip are *computed* from the original detections rather
        than re-detected.  Returns ``(fingerprints, kept_mask)``.
        """
        descriptor = DescriptorExtractor(clip, self.config.descriptor)
        return descriptor.describe_many(positions)

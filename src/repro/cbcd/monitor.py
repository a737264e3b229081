"""Stateful TV-stream monitoring (paper §III buffer + §V-D deployment).

The paper's production system continuously monitors a channel: search
results "are stored in a buffer for a fixed number of key-frames in order
to estimate the best sequences".  :class:`StreamMonitor` implements that
stateful loop:

* frames are *fed* incrementally (any chunk size);
* extraction runs over a sliding analysis window every ``hop_frames``;
* per-key-frame matches accumulate in a bounded buffer of the most recent
  ``buffer_keyframes`` key-frames — so a copy straddling two analysis
  windows still accumulates a single coherent vote;
* the voting strategy runs on the buffer after every analysis step, and
  newly confirmed detections are emitted exactly once (identifier +
  aligned offset de-duplication).

With ``ingest_new=True`` (and a :class:`~repro.index.segmented.SegmentedS3Index`,
or any index exposing ``add``), the monitor also *references* detected-new
material on the fly — the paper's operational loop at INA, where each
day's broadcast extends the reference database: key-frames that match
nothing in the archive are inserted under ``ingest_video_id``, so later
re-broadcasts of the same material are detected.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..index.segmented import SegmentedS3Index

from ..errors import ConfigurationError, ExtractionError
from ..fingerprint.extractor import ExtractorConfig, FingerprintExtractor
from ..index.batch import BatchQueryExecutor
from ..index.options import QueryOptions, config_options
from ..index.s3 import S3Index
from ..video.synthetic import VideoClip
from .detector import Detection
from .voting import vote


@dataclass
class MonitorConfig:
    """Knobs of the continuous monitor.

    Engine tuning (batching, prefilter mode) lives in ``options``, the
    unified :class:`~repro.index.options.QueryOptions`; when given, its
    ``alpha`` wins.  After construction ``options`` is always populated.
    The buffer is voted with :func:`~repro.cbcd.voting.vote`'s default
    parameters.
    """

    alpha: float = QueryOptions.alpha
    window_frames: int = 80
    hop_frames: int = 40
    buffer_keyframes: int = 64
    decision_threshold: int = 10
    dedupe_offset_tolerance: float = 4.0
    ingest_new: bool = False
    ingest_video_id: int = 1_000_000
    ingest_match_threshold: int = 0
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    options: Optional[QueryOptions] = None

    def __post_init__(self) -> None:
        self.options = config_options(self.alpha, self.options)
        self.alpha = self.options.alpha
        if self.window_frames < 8:
            raise ConfigurationError(
                f"window_frames must be >= 8, got {self.window_frames}"
            )
        if not 1 <= self.hop_frames <= self.window_frames:
            raise ConfigurationError(
                "hop_frames must be in [1, window_frames], got "
                f"{self.hop_frames}"
            )
        if self.buffer_keyframes < 2:
            raise ConfigurationError(
                f"buffer_keyframes must be >= 2, got {self.buffer_keyframes}"
            )
        if self.ingest_video_id < 0:
            raise ConfigurationError(
                f"ingest_video_id must be >= 0, got {self.ingest_video_id}"
            )
        if self.ingest_match_threshold < 0:
            raise ConfigurationError(
                "ingest_match_threshold must be >= 0, got "
                f"{self.ingest_match_threshold}"
            )


@dataclass(frozen=True)
class StreamDetection:
    """A detection anchored on the stream's absolute time axis."""

    video_id: int
    stream_offset: float
    nsim: int
    first_seen_frame: int

    def as_detection(self) -> Detection:
        """The plain :class:`~repro.cbcd.detector.Detection` view."""
        return Detection(
            video_id=self.video_id,
            offset=self.stream_offset,
            nsim=self.nsim,
            num_candidates=0,
        )


class StreamMonitor:
    """Incremental copy detector over a continuous frame stream.

    *index* is usually a static :class:`~repro.index.s3.S3Index`; with
    ``config.ingest_new`` it must support online inserts (an index
    exposing ``add``, e.g.
    :class:`~repro.index.segmented.SegmentedS3Index`).
    """

    def __init__(
        self,
        index: "S3Index | SegmentedS3Index",
        config: MonitorConfig | None = None,
    ):
        self.index = index
        self.config = config or MonitorConfig()
        if self.config.ingest_new and not hasattr(index, "add"):
            raise ConfigurationError(
                "ingest_new requires an index with online inserts "
                "(e.g. SegmentedS3Index); got "
                f"{type(index).__name__}"
            )
        self._extractor = FingerprintExtractor(self.config.extractor)
        self._frames: np.ndarray | None = None
        self._stream_pos = 0          # absolute index of buffer start
        self._next_analysis = 0       # absolute frame where next window ends
        # Matches of the most recent key-frames, on the stream's time axis.
        self._matches: deque[tuple] = deque(maxlen=self.config.buffer_keyframes)
        self._reported: list[StreamDetection] = []
        self._frames_seen = 0
        self._horizon = 0.0           # stream time already voted/referenced
        self._ingested_rows = 0

    # ------------------------------------------------------------------
    @property
    def frames_seen(self) -> int:
        """Total frames fed so far."""
        return self._frames_seen

    @property
    def detections(self) -> list[StreamDetection]:
        """Everything reported so far, in order of first confirmation."""
        return list(self._reported)

    @property
    def ingested_rows(self) -> int:
        """Fingerprints referenced on the fly (``ingest_new`` mode)."""
        return self._ingested_rows

    def feed(self, frames: np.ndarray) -> list[StreamDetection]:
        """Consume a chunk of frames; return detections confirmed by it.

        *frames* is ``(T, H, W)`` uint8 (any ``T >= 1``); chunks may be
        single frames or whole minutes of material.
        """
        frames = np.asarray(frames, dtype=np.uint8)
        if frames.ndim != 3:
            raise ConfigurationError(
                f"frames must be (T, H, W), got shape {frames.shape}"
            )
        if self._frames is None:
            self._frames = frames.copy()
        else:
            if frames.shape[1:] != self._frames.shape[1:]:
                raise ConfigurationError(
                    "frame geometry changed mid-stream: "
                    f"{frames.shape[1:]} vs {self._frames.shape[1:]}"
                )
            self._frames = np.concatenate([self._frames, frames])
        self._frames_seen += frames.shape[0]

        new_detections: list[StreamDetection] = []
        cfg = self.config
        while self._buffer_end() >= self._next_analysis + cfg.window_frames:
            window_start = self._next_analysis
            new_detections.extend(self._analyse(window_start))
            self._next_analysis = window_start + cfg.hop_frames
            self._trim_frames()
        return new_detections

    # ------------------------------------------------------------------
    def _buffer_end(self) -> int:
        return self._stream_pos + (
            0 if self._frames is None else self._frames.shape[0]
        )

    def _trim_frames(self) -> None:
        """Drop frames no future analysis window can need."""
        keep_from = self._next_analysis
        if self._frames is None or keep_from <= self._stream_pos:
            return
        drop = min(keep_from - self._stream_pos, self._frames.shape[0])
        self._frames = self._frames[drop:]
        self._stream_pos += drop

    def _analyse(self, window_start: int) -> list[StreamDetection]:
        cfg = self.config
        rel = window_start - self._stream_pos
        window = VideoClip(self._frames[rel:rel + cfg.window_frames])
        try:
            extraction = self._extractor.extract(window, video_id=0)
        except ExtractionError:
            return []

        executor = BatchQueryExecutor(self.index, options=cfg.options)
        results = executor.query_all(
            extraction.store.fingerprints.astype(np.float64)
        )
        # Only the slice of stream time the next window will not revisit,
        # ``[horizon, window_start + hop)``, is voted and ingested, so a
        # key-frame seen by two overlapping windows counts once.
        upper = float(window_start + cfg.hop_frames)
        unmatched_rows: list[int] = []
        for row, (result, tc) in enumerate(zip(
            results, extraction.store.timecodes
        )):
            stream_tc = float(tc) + window_start
            if not self._horizon <= stream_tc < upper:
                continue
            if len(result):
                self._matches.append((stream_tc, result.ids, result.timecodes))
            if len(result) <= cfg.ingest_match_threshold:
                unmatched_rows.append(row)
        self._horizon = upper
        if cfg.ingest_new and unmatched_rows:
            self._ingest_unmatched(
                extraction.store, unmatched_rows, window_start
            )

        votes = vote(self._matches)
        fresh: list[StreamDetection] = []
        for v in votes:
            if v.nsim < cfg.decision_threshold:
                continue
            if self._already_reported(v.video_id, v.offset):
                continue
            detection = StreamDetection(
                video_id=v.video_id,
                stream_offset=v.offset,
                nsim=v.nsim,
                first_seen_frame=window_start,
            )
            self._reported.append(detection)
            fresh.append(detection)
        return fresh

    def _ingest_unmatched(
        self,
        store,
        rows: list[int],
        window_start: int,
    ) -> None:
        """Reference this window's new material in the live index.

        *rows* are already limited to the window's unrevisited slice of
        stream time; key-frames with more than ``ingest_match_threshold``
        archive matches were skipped — they are copies, not new material.
        """
        cfg = self.config
        idx = np.asarray(rows, dtype=np.int64)
        self._ingested_rows += int(idx.size)
        self.index.add(
            store.fingerprints[idx],
            np.full(idx.size, cfg.ingest_video_id, dtype=np.uint32),
            store.timecodes[idx] + float(window_start),
        )

    def _already_reported(self, video_id: int, offset: float) -> bool:
        tol = self.config.dedupe_offset_tolerance
        return any(
            d.video_id == video_id and abs(d.stream_offset - offset) <= tol
            for d in self._reported
        )

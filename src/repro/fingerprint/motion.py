"""Key-frame detection on the intensity of motion (paper §III, step 1).

The intensity of motion of a video is the mean absolute frame difference.
A Gaussian filter is applied to this 1-D signal and the key-frames are
selected at the *extrema* (both maxima and minima) of the smoothed signal:
maxima sit on bursts of activity (cuts, fast motion), minima on stable
moments — both are reproducible anchors under the paper's transformations,
which act frame-wise and therefore preserve the motion profile's shape.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ExtractionError
from ..video.synthetic import VideoClip
from .gaussian import filter_axis


def intensity_of_motion(clip: VideoClip) -> np.ndarray:
    """Return the mean absolute frame difference, one value per frame.

    Index ``t`` holds ``mean |I_t − I_{t−1}|``; index 0 repeats index 1 so
    the signal has the clip's length.  The differences are summed as
    integers, which is exact, so the float mean does not depend on the
    summation order.
    """
    frames = clip.frames.astype(np.int16)
    if frames.shape[0] < 2:
        raise ExtractionError("need at least 2 frames for a motion signal")
    _, h, w = frames.shape
    diffs = np.abs(np.diff(frames, axis=0)).sum(axis=(1, 2)) / (h * w)
    return np.concatenate(([diffs[0]], diffs))


def smooth_signal(signal: np.ndarray, sigma: float = 2.0) -> np.ndarray:
    """Gaussian smoothing of the motion signal."""
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be > 0, got {sigma}")
    return filter_axis(np.asarray(signal, dtype=np.float64), sigma, 0, axis=0)


def local_extrema(signal: np.ndarray, margin: int = 0) -> np.ndarray:
    """Return indices of strict local extrema of *signal*.

    Plateau points are skipped (a strict comparison on both sides), which
    keeps the selection stable under the small numeric perturbations the
    transformations introduce.  Indices closer than *margin* to either end
    are dropped (descriptors need a temporal neighbourhood).
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.size < 3:
        return np.empty(0, dtype=np.int64)
    left = signal[1:-1] - signal[:-2]
    right = signal[1:-1] - signal[2:]
    is_max = (left > 0) & (right > 0)
    is_min = (left < 0) & (right < 0)
    idx = np.nonzero(is_max | is_min)[0] + 1
    if margin > 0:
        idx = idx[(idx >= margin) & (idx < signal.size - margin)]
    return idx


def detect_keyframes(
    clip: VideoClip,
    sigma: float = 2.0,
    margin: int = 3,
    max_keyframes: int | None = None,
) -> np.ndarray:
    """Detect key-frame indices of *clip* (paper §III, step 1).

    With *max_keyframes*, the extrema with the largest smoothed-signal
    curvature are kept (most salient first), then returned in time order.
    """
    signal = smooth_signal(intensity_of_motion(clip), sigma)
    idx = local_extrema(signal, margin=margin)
    if idx.size == 0:
        # Degenerate (static or monotone) clips: fall back to the centre.
        centre = clip.num_frames // 2
        if margin <= centre < clip.num_frames - margin:
            return np.array([centre], dtype=np.int64)
        raise ExtractionError(
            f"clip of {clip.num_frames} frames too short for margin {margin}"
        )
    if max_keyframes is not None and idx.size > max_keyframes:
        curvature = np.abs(
            signal[idx - 1] - 2.0 * signal[idx] + signal[idx + 1]
        )
        keep = np.argsort(curvature, kind="stable")[::-1][:max_keyframes]
        idx = np.sort(idx[keep])
    return idx

"""Full-map extraction, kept verbatim as the oracle of the sparse kernels.

``harris_response`` and ``derivative_stack`` are the per-frame 2-D
``ndimage.gaussian_filter`` passes the extractor used before derivatives
were evaluated at the sampled pixels only; ``detect_keyframes`` runs on
the float-mean motion signal smoothed by ``gaussian_filter1d``;
``ReferenceDescriptor`` is the
per-point ``describe`` loop over memoised per-frame stacks, and
``extract`` the per-key-frame pipeline around them.  The property tests
assert the production code reproduces every byte of them.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.errors import ConfigurationError, ExtractionError
from repro.fingerprint.descriptor import (
    _DERIVATIVE_ORDERS,
    FINGERPRINT_DIM,
    DescriptorConfig,
    quantize,
)
from repro.fingerprint.extractor import ExtractorConfig
from repro.fingerprint.harris import HarrisConfig
from repro.fingerprint.motion import local_extrema


def intensity_of_motion(clip) -> np.ndarray:
    """Return the mean absolute frame difference, one value per frame.

    Index ``t`` holds ``mean |I_t − I_{t−1}|``; index 0 repeats index 1 so
    the signal has the clip's length.
    """
    frames = clip.frames.astype(np.float64)
    if frames.shape[0] < 2:
        raise ExtractionError("need at least 2 frames for a motion signal")
    diffs = np.abs(np.diff(frames, axis=0)).mean(axis=(1, 2))
    return np.concatenate(([diffs[0]], diffs))


def smooth_signal(signal: np.ndarray, sigma: float = 2.0) -> np.ndarray:
    """Gaussian smoothing of the motion signal."""
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be > 0, got {sigma}")
    return ndimage.gaussian_filter1d(np.asarray(signal, dtype=np.float64), sigma)


def detect_keyframes(
    clip,
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


def harris_response(frame: np.ndarray, config: HarrisConfig | None = None) -> np.ndarray:
    """Return the Harris corner response map of *frame*."""
    cfg = config or HarrisConfig()
    img = np.asarray(frame, dtype=np.float64)
    if img.ndim != 2:
        raise ConfigurationError(f"frame must be 2-D, got shape {img.shape}")
    ix = ndimage.gaussian_filter(img, cfg.sigma_d, order=(0, 1))
    iy = ndimage.gaussian_filter(img, cfg.sigma_d, order=(1, 0))
    ixx = ndimage.gaussian_filter(ix * ix, cfg.sigma_i)
    iyy = ndimage.gaussian_filter(iy * iy, cfg.sigma_i)
    ixy = ndimage.gaussian_filter(ix * iy, cfg.sigma_i)
    det = ixx * iyy - ixy * ixy
    trace = ixx + iyy
    return det - cfg.k * trace * trace


def detect_interest_points(
    frame: np.ndarray, config: HarrisConfig | None = None
) -> np.ndarray:
    """Detect up to ``max_points`` interest points in *frame*.

    Returns an ``(N, 2)`` integer array of ``(y, x)`` positions, strongest
    response first.  Points within ``border`` pixels of the frame edge are
    excluded.
    """
    cfg = config or HarrisConfig()
    response = harris_response(frame, cfg)
    h, w = response.shape
    if h <= 2 * cfg.border or w <= 2 * cfg.border:
        return np.empty((0, 2), dtype=np.int64)

    size = 2 * cfg.nms_radius + 1
    local_max = ndimage.maximum_filter(response, size=size, mode="nearest")
    peak = response >= local_max
    peak[:cfg.border] = False
    peak[-cfg.border:] = False
    peak[:, :cfg.border] = False
    peak[:, -cfg.border:] = False

    max_response = response[peak].max(initial=0.0)
    if max_response <= 0:
        return np.empty((0, 2), dtype=np.int64)
    peak &= response > cfg.relative_threshold * max_response

    ys, xs = np.nonzero(peak)
    if ys.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    order = np.argsort(response[ys, xs], kind="stable")[::-1][: cfg.max_points]
    return np.column_stack([ys[order], xs[order]]).astype(np.int64)


def derivative_stack(frame: np.ndarray, sigma: float) -> np.ndarray:
    """Return the five Gaussian-derivative response maps of *frame*.

    Shape ``(5, H, W)`` in the order (Ix, Iy, Ixy, Ixx, Iyy).
    """
    img = np.asarray(frame, dtype=np.float64)
    if img.ndim != 2:
        raise ConfigurationError(f"frame must be 2-D, got shape {img.shape}")
    return np.stack(
        [ndimage.gaussian_filter(img, sigma, order=order) for order in _DERIVATIVE_ORDERS]
    )


class ReferenceDescriptor:
    """Computes 20-byte fingerprints at given positions of a clip.

    Derivative stacks are cached per frame, so computing many descriptors
    on the same key-frame costs five filters once.
    """

    def __init__(self, clip, config: DescriptorConfig | None = None):
        self.clip = clip
        self.config = config or DescriptorConfig()
        self._cache: dict[int, np.ndarray] = {}

    def _stack(self, t: int) -> np.ndarray:
        if t not in self._cache:
            self._cache[t] = derivative_stack(
                self.clip.frames[t], self.config.derivative_sigma
            )
        return self._cache[t]

    def valid_position(self, t: int, y: float, x: float) -> bool:
        """Return whether a descriptor at ``(t, y, x)`` has full support."""
        cfg = self.config
        m = cfg.margin
        h, w = self.clip.height, self.clip.width
        if not (m <= y < h - m and m <= x < w - m):
            return False
        return cfg.temporal_offset <= t < self.clip.num_frames - cfg.temporal_offset

    def describe(self, t: int, y: int, x: int) -> np.ndarray:
        """Return the 20-byte fingerprint of the point ``(y, x)`` at frame *t*.

        The caller must have checked :meth:`valid_position`.
        """
        cfg = self.config
        parts = []
        for dt, dy, dx in cfg.positions():
            stack = self._stack(t + dt)
            sub = stack[:, y + dy, x + dx]
            norm = np.linalg.norm(sub)
            if norm > 1e-12:
                sub = sub / norm
            else:
                sub = np.zeros(5)
            parts.append(sub)
        return quantize(np.concatenate(parts))

    def describe_many(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Describe a batch of ``(t, y, x)`` positions.

        Invalid positions (insufficient support) are dropped; returns
        ``(fingerprints, kept_mask)`` where *kept_mask* flags the surviving
        input rows.
        """
        positions = np.asarray(positions)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ConfigurationError(
                f"positions must be (N, 3) of (t, y, x), got {positions.shape}"
            )
        fingerprints = []
        kept = np.zeros(positions.shape[0], dtype=bool)
        for i, (t, y, x) in enumerate(positions):
            t_i, y_i, x_i = int(t), int(round(float(y))), int(round(float(x)))
            if not self.valid_position(t_i, y_i, x_i):
                continue
            fingerprints.append(self.describe(t_i, y_i, x_i))
            kept[i] = True
        if fingerprints:
            return np.stack(fingerprints), kept
        return np.empty((0, FINGERPRINT_DIM), dtype=np.uint8), kept


def extract(clip, config: ExtractorConfig | None = None):
    """The per-key-frame extraction loop: ``(fingerprints, positions, keyframes)``."""
    cfg = config or ExtractorConfig()
    keyframes = detect_keyframes(
        clip,
        sigma=cfg.motion_sigma,
        margin=cfg.keyframe_margin(),
        max_keyframes=cfg.max_keyframes,
    )
    descriptor = ReferenceDescriptor(clip, cfg.descriptor)

    fingerprints: list[np.ndarray] = []
    positions: list[tuple[int, int, int]] = []
    for t in keyframes:
        points = detect_interest_points(clip.frames[t], cfg.harris)
        for y, x in points:
            if not descriptor.valid_position(int(t), int(y), int(x)):
                continue
            fingerprints.append(descriptor.describe(int(t), int(y), int(x)))
            positions.append((int(t), int(y), int(x)))

    if not fingerprints:
        raise ExtractionError(
            "no fingerprints extracted; clip too small or featureless"
        )
    return (
        np.stack(fingerprints),
        np.array(positions, dtype=np.int64),
        keyframes,
    )

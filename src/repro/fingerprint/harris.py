"""Harris interest point detection (paper §III, step 2).

The paper uses "an improved version of the Harris detector" in the spirit
of Schmid & Mohr: image derivatives are computed with Gaussian derivative
filters (scale ``sigma_d``), the structure tensor is integrated at scale
``sigma_i``, and the corner response is

``R = det(M) − k · trace(M)²``.

Detection is non-maximum suppression on ``R`` followed by a relative
threshold and a top-``N`` selection, with a border margin.  A clip's
key-frames are detected as one ``(K, H, W)`` stack
(:func:`detect_interest_points_many`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..errors import ConfigurationError
from .gaussian import filter_axis


#: Key-frames whose response maps are filtered in one stacked pass;
#: bounds the scratch at ``_FRAME_CHUNK · H · W`` float64 values per map.
_FRAME_CHUNK = 8


@dataclass(frozen=True)
class HarrisConfig:
    """Parameters of the Harris detector.

    The detector and the descriptor share no filter pass at the defaults:
    Harris differentiates at ``sigma_d = 1`` while the descriptor's
    derivatives are at ``DescriptorConfig.derivative_sigma = 3``.
    """

    sigma_d: float = 1.0
    sigma_i: float = 2.0
    k: float = 0.06
    relative_threshold: float = 0.01
    nms_radius: int = 3
    border: int = 8
    max_points: int = 20

    def __post_init__(self) -> None:
        if self.sigma_d <= 0 or self.sigma_i <= 0:
            raise ConfigurationError("sigma_d and sigma_i must be > 0")
        if not 0 <= self.relative_threshold < 1:
            raise ConfigurationError(
                f"relative_threshold must be in [0, 1), got {self.relative_threshold}"
            )
        if self.nms_radius < 1:
            raise ConfigurationError(f"nms_radius must be >= 1, got {self.nms_radius}")
        if self.max_points < 1:
            raise ConfigurationError(f"max_points must be >= 1, got {self.max_points}")


def harris_responses(frames: np.ndarray, config: HarrisConfig | None = None) -> np.ndarray:
    """Return the Harris corner response maps of a ``(K, H, W)`` stack.

    Each 1-D pass filters the whole stack at once: two vertical and two
    horizontal derivative passes, then one vertical and one horizontal
    smoothing pass over the three stacked structure-tensor products.
    Every map equals the per-frame 2-D ``ndimage.gaussian_filter``
    computation bit for bit (each frame's lines are filtered alone).
    """
    cfg = config or HarrisConfig()
    img = np.asarray(frames, dtype=np.float64)
    if img.ndim != 3:
        raise ConfigurationError(f"frames must be (K, H, W), got shape {img.shape}")
    smooth_y = filter_axis(img, cfg.sigma_d, 0, axis=1)
    deriv_y = filter_axis(img, cfg.sigma_d, 1, axis=1)
    ix = filter_axis(smooth_y, cfg.sigma_d, 1, axis=2)
    iy = filter_axis(deriv_y, cfg.sigma_d, 0, axis=2)
    products = np.stack([ix * ix, iy * iy, ix * iy])
    ixx, iyy, ixy = filter_axis(
        filter_axis(products, cfg.sigma_i, 0, axis=2), cfg.sigma_i, 0, axis=3
    )
    det = ixx * iyy - ixy * ixy
    trace = ixx + iyy
    return det - cfg.k * trace * trace


def harris_response(frame: np.ndarray, config: HarrisConfig | None = None) -> np.ndarray:
    """Return the Harris corner response map of *frame*."""
    img = np.asarray(frame)
    if img.ndim != 2:
        raise ConfigurationError(f"frame must be 2-D, got shape {img.shape}")
    return harris_responses(img[None], config)[0]


def detect_interest_points(
    frame: np.ndarray, config: HarrisConfig | None = None
) -> np.ndarray:
    """Detect up to ``max_points`` interest points in *frame*.

    Returns an ``(N, 2)`` integer array of ``(y, x)`` positions, strongest
    response first.  Points within ``border`` pixels of the frame edge are
    excluded.
    """
    img = np.asarray(frame)
    if img.ndim != 2:
        raise ConfigurationError(f"frame must be 2-D, got shape {img.shape}")
    return detect_interest_points_many(img[None], config)[0]


def detect_interest_points_many(
    frames: np.ndarray, config: HarrisConfig | None = None
) -> list[np.ndarray]:
    """:func:`detect_interest_points` of each frame of a ``(K, H, W)`` stack."""
    cfg = config or HarrisConfig()
    frames = np.asarray(frames)
    if frames.ndim != 3:
        raise ConfigurationError(f"frames must be (K, H, W), got shape {frames.shape}")
    k, h, w = frames.shape
    if h <= 2 * cfg.border or w <= 2 * cfg.border:
        return [np.empty((0, 2), dtype=np.int64) for _ in range(k)]
    size = 2 * cfg.nms_radius + 1
    points = []
    for lo in range(0, k, _FRAME_CHUNK):
        responses = harris_responses(frames[lo:lo + _FRAME_CHUNK], cfg)
        local_max = ndimage.maximum_filter(
            responses, size=(1, size, size), mode="nearest"
        )
        points.extend(
            _strongest_peaks(response, response >= peak_floor, cfg)
            for response, peak_floor in zip(responses, local_max)
        )
    return points


def _strongest_peaks(
    response: np.ndarray, peak: np.ndarray, cfg: HarrisConfig
) -> np.ndarray:
    """Thresholded local maxima of one response map, strongest first."""
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

"""The 20-dimensional local differential fingerprint (paper §III, step 3).

Around each interest point, five-dimensional *sub-fingerprints*

``s_i = (∂I/∂x, ∂I/∂y, ∂²I/∂x∂y, ∂²I/∂x², ∂²I/∂y²)``

are computed (Gaussian derivative filters) at **four spatio-temporal
positions distributed around the point** — two spatial offsets at the frame
``δ_t`` before the key-frame and two at the frame ``δ_t`` after.  Each
``s_i`` is L2-normalised (making the descriptor invariant to affine
illumination changes in the local patch) and the concatenation

``S = (s1/‖s1‖, s2/‖s2‖, s3/‖s3‖, s4/‖s4‖) ∈ [−1, 1]^20``

is quantised to one byte per component, giving the paper's
``[0, 255]^20`` fingerprint space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigurationError
from ..video.synthetic import VideoClip
from .gaussian import correlate_centre, filter_axis, gaussian_radius

#: Dimension of the fingerprint space.
FINGERPRINT_DIM = 20

#: Derivative orders of one sub-fingerprint: (dy, dx) filter orders for
#: (Ix, Iy, Ixy, Ixx, Iyy).
_DERIVATIVE_ORDERS = ((0, 1), (1, 0), (1, 1), (0, 2), (2, 0))


@dataclass(frozen=True)
class DescriptorConfig:
    """Geometry and scale of the differential descriptor."""

    spatial_offset: int = 4
    temporal_offset: int = 2
    derivative_sigma: float = 3.0

    def __post_init__(self) -> None:
        if self.spatial_offset < 1:
            raise ConfigurationError(
                f"spatial_offset must be >= 1, got {self.spatial_offset}"
            )
        if self.temporal_offset < 0:
            raise ConfigurationError(
                f"temporal_offset must be >= 0, got {self.temporal_offset}"
            )
        if self.derivative_sigma <= 0:
            raise ConfigurationError(
                f"derivative_sigma must be > 0, got {self.derivative_sigma}"
            )

    def positions(self) -> tuple[tuple[int, int, int], ...]:
        """The four ``(dt, dy, dx)`` offsets around an interest point."""
        d = self.spatial_offset
        dt = self.temporal_offset
        return (
            (-dt, -d, -d),
            (-dt, +d, +d),
            (+dt, +d, -d),
            (+dt, -d, +d),
        )

    @property
    def margin(self) -> int:
        """Minimum distance to the frame border a point needs.

        It keeps the four sampled positions ``ceil(3σ) + 1`` pixels inside
        the frame, not the whole ``int(4σ + 0.5)``-pixel filter radius:
        at the default σ = 3 the 12-pixel radius reaches up to two pixels
        past the border of a point at exactly this margin, where the frame
        is reflected (``ndimage``'s ``reflect`` boundary).  The value is
        kept as it is, since changing it would move fingerprints.
        """
        return self.spatial_offset + int(np.ceil(3 * self.derivative_sigma)) + 1


#: Sample positions filtered together; bounds the patch scratch of
#: :func:`sample_derivatives` at ``_PATCH_CHUNK · (2r+1)²`` float64
#: values (1.3 MB at σ = 3), plus one padded copy of each distinct frame
#: the chunk samples (a key-frame's points share three).
_PATCH_CHUNK = 256


def derivative_stack(frame: np.ndarray, sigma: float) -> np.ndarray:
    """Return the five Gaussian-derivative response maps of *frame*.

    Shape ``(5, H, W)`` in the order (Ix, Iy, Ixy, Ixx, Iyy).  The three
    vertical passes (orders 0, 1, 2) are shared by the five horizontal
    ones; each map equals ``ndimage.gaussian_filter(frame, sigma,
    order=(dy, dx))`` bit for bit.
    """
    img = np.asarray(frame, dtype=np.float64)
    if img.ndim != 2:
        raise ConfigurationError(f"frame must be 2-D, got shape {img.shape}")
    vertical = [filter_axis(img, sigma, order, axis=0) for order in range(3)]
    return np.stack([
        filter_axis(vertical[dy], sigma, dx, axis=1)
        for dy, dx in _DERIVATIVE_ORDERS
    ])


def sample_derivatives(
    frames: np.ndarray, samples: np.ndarray, sigma: float
) -> np.ndarray:
    """The five derivative responses of *frames* at ``(t, y, x)`` *samples*.

    Returns ``(S, 5)``, row ``s`` equal bit for bit to
    ``derivative_stack(frames[t], sigma)[:, y, x]`` while filtering only
    the ``(2r+1)²`` patch around each sample: the needed frames are
    padded by ``r`` with ``np.pad(mode="symmetric")`` (``ndimage``'s
    ``reflect`` boundary), each patch gets the three vertical passes
    (orders 0, 1, 2) at its centre row, and each of the five derivatives
    one horizontal pass at its centre pixel, all through
    :func:`~repro.fingerprint.gaussian.correlate_centre`.
    """
    r = gaussian_radius(sigma)
    samples = np.asarray(samples, dtype=np.int64).reshape(-1, 3)
    out = np.empty((samples.shape[0], len(_DERIVATIVE_ORDERS)))
    for lo in range(0, samples.shape[0], _PATCH_CHUNK):
        chunk = samples[lo:lo + _PATCH_CHUNK]
        times, frame_of = np.unique(chunk[:, 0], return_inverse=True)
        padded = np.pad(
            np.asarray(frames[times], dtype=np.float64),
            ((0, 0), (r, r), (r, r)),
            mode="symmetric",
        )
        # (2r+1, S, 2r+1) patches, patch row first: a vertical line of
        # every patch is one index of the first axis.
        segments = sliding_window_view(padded, 2 * r + 1, axis=2)
        patch_rows = np.arange(2 * r + 1)[:, None]
        patches = segments[frame_of, chunk[:, 1] + patch_rows, chunk[:, 2]]
        # Each vertical pass leaves its centre row, (x, S) once transposed.
        rows = [correlate_centre(patches, sigma, order).T for order in range(3)]
        for k, (dy, dx) in enumerate(_DERIVATIVE_ORDERS):
            out[lo:lo + len(chunk), k] = correlate_centre(rows[dy], sigma, dx)
    return out


def quantize(values: np.ndarray) -> np.ndarray:
    """Quantise unit-normalised components from ``[−1, 1]`` to bytes."""
    values = np.asarray(values, dtype=np.float64)
    return np.clip(np.round((values + 1.0) * 127.5), 0, 255).astype(np.uint8)


def dequantize(fingerprints: np.ndarray) -> np.ndarray:
    """Map byte fingerprints back to ``[−1, 1]`` floats."""
    return np.asarray(fingerprints, dtype=np.float64) / 127.5 - 1.0


class DescriptorExtractor:
    """Computes 20-byte fingerprints at given positions of a clip.

    Derivatives are evaluated at the sampled pixels only
    (:func:`sample_derivatives`), so a batch of points costs one pass
    over their patches, not full-frame filtering of every frame touched.
    """

    def __init__(self, clip: VideoClip, config: DescriptorConfig | None = None):
        self.clip = clip
        self.config = config or DescriptorConfig()

    def valid_position(self, t: int, y: float, x: float) -> bool:
        """Return whether a descriptor at ``(t, y, x)`` is inside the margins."""
        return bool(self._valid(np.array([[t, y, x]]))[0])

    def _valid(self, points: np.ndarray) -> np.ndarray:
        cfg = self.config
        m, dt = cfg.margin, cfg.temporal_offset
        t, y, x = points.T
        return (
            (m <= y) & (y < self.clip.height - m)
            & (m <= x) & (x < self.clip.width - m)
            & (dt <= t) & (t < self.clip.num_frames - dt)
        )

    def describe(self, t: int, y: int, x: int) -> np.ndarray:
        """Return the 20-byte fingerprint of the point ``(y, x)`` at frame *t*.

        The caller must have checked :meth:`valid_position`.
        """
        return self._describe(np.array([[t, y, x]], dtype=np.int64))[0]

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
        points = np.column_stack([
            positions[:, 0].astype(np.int64),
            np.round(positions[:, 1:].astype(np.float64)).astype(np.int64),
        ])
        kept = self._valid(points)
        return self._describe(points[kept]), kept

    def _describe(self, points: np.ndarray) -> np.ndarray:
        """Fingerprints of valid ``(N, 3)`` int points, ``(N, 20)`` uint8."""
        offsets = np.array(self.config.positions(), dtype=np.int64)
        samples = (points[:, None, :] + offsets).reshape(-1, 3)
        subs = sample_derivatives(
            self.clip.frames, samples, self.config.derivative_sigma
        ).reshape(len(points), len(offsets), len(_DERIVATIVE_ORDERS))
        # ``vecdot`` runs the same dot per sub-fingerprint as
        # ``np.linalg.norm`` of a 5-vector, so the norms agree bit for bit;
        # a plain sum of squares differs from it in the last bit.
        norms = np.sqrt(np.vecdot(subs, subs))
        nonzero = norms > 1e-12
        unit = np.where(
            nonzero[..., None], subs / np.where(nonzero, norms, 1.0)[..., None], 0.0
        )
        return quantize(unit.reshape(len(points), FINGERPRINT_DIM))

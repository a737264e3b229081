"""Sparse extraction against the full-map code it replaced
(``reference_extract``): identical key-frames and interest points, and
byte-identical quantised fingerprints, on seeded synthetic clips under
every transformation family of ``video/transforms.py``.

``PROPERTY_EXAMPLES`` raises the example count (CI's ``property-long`` job).
"""

import os

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.errors import ExtractionError
from repro.fingerprint.descriptor import DescriptorConfig, DescriptorExtractor
from repro.fingerprint.extractor import ExtractorConfig, FingerprintExtractor
from repro.fingerprint.gaussian import (
    correlate_centre,
    filter_axis,
    gaussian_radius,
    gaussian_taps,
)
from repro.fingerprint.harris import (
    HarrisConfig,
    detect_interest_points,
    harris_response,
)
from repro.video import transforms
from repro.video.synthetic import SceneConfig, VideoClip, generate_clip

from . import reference_extract

EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "25"))

#: One member of every transformation family, the identity included.
FAMILIES = {
    "identity": lambda seed: transforms.Identity(),
    "scale": lambda seed: transforms.Resize(0.8),
    "shift": lambda seed: transforms.VerticalShift(0.1),
    "gamma": lambda seed: transforms.Gamma(1.6),
    "contrast": lambda seed: transforms.Contrast(1.4),
    "noise": lambda seed: transforms.GaussianNoise(8.0, seed=seed),
    "logo": lambda seed: transforms.LogoInsertion(),
}

#: The default σ, a small one, a large one (whose radius reaches furthest
#: past the margin) and one whose radius ``int(4σ + 0.5)`` rounds up.
SIGMAS = [3.0, 1.5, 5.0, 2.2]


@st.composite
def clips(draw):
    seed = draw(st.integers(0, 2**16))
    scene = SceneConfig(
        height=draw(st.sampled_from([48, 60, 72])),
        width=draw(st.sampled_from([56, 88])),
    )
    clip = generate_clip(draw(st.integers(30, 70)), scene, seed=seed)
    if draw(st.sampled_from(range(10))) == 0:  # featureless: flat grey
        clip = VideoClip(np.full_like(clip.frames, seed % 256))
    family = draw(st.sampled_from(sorted(FAMILIES)))
    return FAMILIES[family](seed).apply_clip(clip)


@st.composite
def configs(draw):
    sigma = draw(st.sampled_from(SIGMAS))
    descriptor = DescriptorConfig(
        temporal_offset=draw(st.sampled_from([0, 1, 2])),
        derivative_sigma=sigma,
    )
    # ``sigma_d == derivative_sigma`` is the one setting where Harris and
    # the descriptor filter at the same scale.
    sigma_d = draw(st.sampled_from([1.0, sigma]))
    return ExtractorConfig(
        harris=HarrisConfig(sigma_d=sigma_d), descriptor=descriptor
    )


def extract_both(clip, cfg):
    try:
        want = reference_extract.extract(clip, cfg)
    except ExtractionError:
        with pytest.raises(ExtractionError):
            FingerprintExtractor(cfg).extract(clip, 0)
        return None
    got = FingerprintExtractor(cfg).extract(clip, 0)
    return got, want


@given(clips(), configs())
@settings(max_examples=EXAMPLES, deadline=None)
def test_extraction_matches_reference(clip, cfg):
    pair = extract_both(clip, cfg)
    event("featureless" if pair is None else "extracted")
    if pair is None:
        return
    got, (fingerprints, positions, keyframes) = pair
    assert np.array_equal(got.keyframes, keyframes)
    assert np.array_equal(got.positions, positions)
    assert got.store.fingerprints.dtype == np.uint8
    assert got.store.fingerprints.tobytes() == fingerprints.tobytes()
    assert np.array_equal(got.store.timecodes, positions[:, 0].astype(np.float64))


@given(clips(), st.sampled_from(SIGMAS), st.sampled_from([0, 2]),
       st.integers(0, 2**16))
@settings(max_examples=EXAMPLES, deadline=None)
def test_points_at_the_margin_match_reference(clip, sigma, dt, seed):
    """Points on and next to the margin, where the filter radius reaches
    into the reflected border, plus out-of-range ones that are dropped."""
    cfg = DescriptorConfig(temporal_offset=dt, derivative_sigma=sigma)
    m = cfg.margin
    h, w, t_count = clip.height, clip.width, clip.num_frames
    rng = np.random.default_rng(seed)
    n = 40
    positions = np.column_stack([
        rng.integers(0, t_count, n),
        rng.choice([m - 1, m, m + 1, h - m - 1, h - m, h // 2], n),
        rng.choice([m - 1, m, m + 1, w - m - 1, w - m, w // 2], n),
    ])
    got, kept = DescriptorExtractor(clip, cfg).describe_many(positions)
    want, want_kept = reference_extract.ReferenceDescriptor(
        clip, cfg
    ).describe_many(positions)
    assert np.array_equal(kept, want_kept)
    assert got.tobytes() == want.tobytes()


@given(clips(), st.sampled_from([1.0, 1.5, 3.0]))
@settings(max_examples=EXAMPLES, deadline=None)
def test_harris_matches_reference(clip, sigma_d):
    cfg = HarrisConfig(sigma_d=sigma_d)
    frame = clip.frames[clip.num_frames // 2]
    got = harris_response(frame, cfg)
    assert got.tobytes() == reference_extract.harris_response(frame, cfg).tobytes()
    assert np.array_equal(
        detect_interest_points(frame, cfg),
        reference_extract.detect_interest_points(frame, cfg),
    )


@pytest.mark.parametrize("level", [0, 128])
def test_featureless_clip_fails_on_both_sides(level):
    flat = VideoClip(np.full((40, 60, 70), level, dtype=np.uint8))
    assert extract_both(flat, ExtractorConfig()) is None


@pytest.mark.parametrize("sigma", SIGMAS + [1.0, 2.0])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_centre_tap_equals_correlate1d(sigma, order):
    """The centre-tap kernel reproduces ``ndimage.correlate1d`` bit for bit.

    If this fails after a SciPy upgrade, ``NI_Correlate1D``'s summation
    order changed: follow it in ``correlate_centre``; do not loosen the
    comparison, since one flipped bit can flip a quantised byte.
    """
    r = gaussian_radius(sigma)
    rng = np.random.default_rng(order * 100 + int(10 * sigma))
    # Each column is one line; byte images and wide-range floats.
    lines = np.concatenate([
        rng.integers(0, 256, (2 * r + 1, 300)).astype(np.float64),
        rng.normal(0.0, 1e3, (2 * r + 1, 300)),
    ], axis=1)
    taps = gaussian_taps(sigma, order)
    want = ndimage.correlate1d(lines, taps, axis=0, mode="reflect")[r]
    assert correlate_centre(lines, sigma, order).tobytes() == want.tobytes()
    filtered = ndimage.gaussian_filter1d(lines, sigma, axis=0, order=order)
    assert filter_axis(lines, sigma, order, axis=0).tobytes() == filtered.tobytes()

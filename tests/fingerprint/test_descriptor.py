"""Tests for the 20-byte differential descriptor."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fingerprint.descriptor import (
    FINGERPRINT_DIM,
    DescriptorConfig,
    DescriptorExtractor,
    dequantize,
    derivative_stack,
    quantize,
)
from repro.video.synthetic import generate_clip


class TestQuantization:
    def test_roundtrip_error_bounded(self):
        values = np.linspace(-1, 1, 101)
        recovered = dequantize(quantize(values))
        assert np.max(np.abs(recovered - values)) <= 1.0 / 255.0 + 1e-9

    def test_extremes(self):
        assert quantize(np.array([-1.0]))[0] == 0
        assert quantize(np.array([1.0]))[0] == 255
        assert quantize(np.array([0.0]))[0] in (127, 128)

    def test_clips_out_of_range(self):
        assert quantize(np.array([-2.0]))[0] == 0
        assert quantize(np.array([2.0]))[0] == 255


class TestDerivativeStack:
    def test_shape_and_order(self):
        frame = np.zeros((32, 40), dtype=np.uint8)
        stack = derivative_stack(frame, 2.0)
        assert stack.shape == (5, 32, 40)

    def test_horizontal_ramp_activates_ix_only(self):
        ramp = np.tile(np.arange(64, dtype=np.float64) * 2, (64, 1))
        stack = derivative_stack(ramp, 2.0)
        centre = (32, 32)
        ix, iy, ixy, ixx, iyy = (stack[k][centre] for k in range(5))
        assert abs(ix) > 1.0
        assert abs(iy) < 1e-6
        assert abs(ixx) < 0.05  # only boundary leakage of the finite ramp

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            derivative_stack(np.zeros(10), 2.0)


class TestConfig:
    def test_four_positions_two_per_temporal_side(self):
        cfg = DescriptorConfig()
        positions = cfg.positions()
        assert len(positions) == 4
        before = [p for p in positions if p[0] < 0]
        after = [p for p in positions if p[0] > 0]
        assert len(before) == 2 and len(after) == 2

    def test_margin_covers_offsets(self):
        cfg = DescriptorConfig(spatial_offset=4, derivative_sigma=3.0)
        assert cfg.margin >= 4 + 9

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            DescriptorConfig(spatial_offset=0)
        with pytest.raises(ConfigurationError):
            DescriptorConfig(temporal_offset=-1)
        with pytest.raises(ConfigurationError):
            DescriptorConfig(derivative_sigma=0.0)


class TestExtractor:
    @pytest.fixture(scope="class")
    def clip(self):
        return generate_clip(40, seed=0)

    def test_descriptor_shape_and_dtype(self, clip):
        ex = DescriptorExtractor(clip)
        t = 10
        y = x = 30
        fp = ex.describe(t, y, x)
        assert fp.shape == (FINGERPRINT_DIM,)
        assert fp.dtype == np.uint8

    def test_subvectors_unit_norm(self, clip):
        """Each 5-D sub-fingerprint is L2-normalised before quantisation."""
        ex = DescriptorExtractor(clip)
        fp = dequantize(ex.describe(10, 30, 30))
        for i in range(4):
            sub = fp[5 * i:5 * i + 5]
            norm = np.linalg.norm(sub)
            # Quantisation noise allows ~0.02 deviation; zero vectors allowed.
            assert norm == pytest.approx(1.0, abs=0.05) or norm < 0.05

    def test_deterministic(self, clip):
        a = DescriptorExtractor(clip).describe(10, 30, 30)
        b = DescriptorExtractor(clip).describe(10, 30, 30)
        assert np.array_equal(a, b)

    def test_valid_position_boundaries(self, clip):
        ex = DescriptorExtractor(clip)
        m = ex.config.margin
        dt = ex.config.temporal_offset
        assert ex.valid_position(dt, m, m)
        assert not ex.valid_position(dt - 1, m, m)
        assert not ex.valid_position(dt, m - 1, m)
        assert not ex.valid_position(clip.num_frames - dt, m, m)
        assert not ex.valid_position(dt, clip.height - m, m)

    def test_describe_many_drops_invalid(self, clip):
        ex = DescriptorExtractor(clip)
        m = ex.config.margin
        positions = np.array(
            [[10, m + 2, m + 2], [0, 1, 1], [12, m + 5, m + 7]]
        )
        fps, kept = ex.describe_many(positions)
        assert kept.tolist() == [True, False, True]
        assert fps.shape == (2, FINGERPRINT_DIM)

    def test_describe_many_rejects_bad_shape(self, clip):
        ex = DescriptorExtractor(clip)
        with pytest.raises(ConfigurationError):
            ex.describe_many(np.zeros((3, 2)))

    def test_describe_calls_match_one_describe_many(self, clip):
        ex = DescriptorExtractor(clip)
        one_by_one = np.stack([ex.describe(10, 30, 30), ex.describe(10, 32, 28)])
        batch, kept = ex.describe_many(np.array([[10, 30, 30], [10, 32, 28]]))
        assert kept.all()
        assert np.array_equal(one_by_one, batch)

    def test_illumination_offset_invariance(self):
        """Adding a constant to the image leaves derivatives unchanged."""
        clip = generate_clip(30, seed=5)
        brighter_frames = np.clip(clip.frames.astype(int) + 20, 0, 235)
        # Use a range where no clipping occurs.
        from repro.video.synthetic import VideoClip

        safe = VideoClip(np.clip(clip.frames, 20, 215))
        shifted = VideoClip(np.clip(safe.frames.astype(int) + 20, 0, 255))
        a = DescriptorExtractor(safe).describe(10, 30, 40)
        b = DescriptorExtractor(shifted).describe(10, 30, 40)
        assert np.max(np.abs(a.astype(int) - b.astype(int))) <= 2

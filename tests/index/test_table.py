"""Tests for the Hilbert-sorted layout and block→row-range lookup."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hilbert.butz import HilbertCurve
from repro.index.table import HilbertLayout

from .reference_query import gather_rows


@pytest.fixture(scope="module")
def layout_and_points():
    rng = np.random.default_rng(0)
    points = rng.integers(0, 256, size=(5000, 5), dtype=np.uint8)
    layout = HilbertLayout.build(points, order=8, key_levels=3)
    return layout, points


class TestBuild:
    def test_keys_sorted(self, layout_and_points):
        layout, _ = layout_and_points
        assert np.all(np.diff(layout.keys.astype(np.int64)) >= 0)

    def test_permutation_is_a_permutation(self, layout_and_points):
        layout, points = layout_and_points
        assert sorted(layout.permutation.tolist()) == list(range(len(points)))

    def test_keys_match_scalar_curve(self, layout_and_points):
        layout, points = layout_and_points
        hc = HilbertCurve(5, 8)
        for i in range(0, 5000, 517):
            row = layout.permutation[i]
            assert int(layout.keys[i]) == hc.prefix_key(points[row], 3)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            HilbertLayout.build(np.zeros(10), order=8, key_levels=2)

    def test_key_bits(self, layout_and_points):
        layout, _ = layout_and_points
        assert layout.key_bits == 15
        assert layout.max_depth == 15


class TestBlockRowRanges:
    def test_ranges_cover_exactly_the_block_members(self, layout_and_points):
        layout, points = layout_and_points
        depth = 6
        shift = layout.key_bits - depth
        # Pick a few blocks that actually contain points.
        populated = np.unique(layout.keys >> np.uint64(shift))[:5]
        ranges = layout.block_row_ranges(populated, depth)
        rows = gather_rows(layout, ranges)
        got = set(rows.tolist())
        expected = {
            i
            for i in range(len(points))
            if (int(layout.keys[i]) >> shift) in set(populated.tolist())
        }
        assert got == expected

    def test_adjacent_blocks_merge(self, layout_and_points):
        layout, _ = layout_and_points
        prefixes = np.array([4, 5, 6], dtype=np.uint64)  # contiguous on curve
        ranges = layout.block_row_ranges(prefixes, 5)
        assert len(ranges) <= 1 or all(
            ranges[i][1] < ranges[i + 1][0] for i in range(len(ranges) - 1)
        )

    def test_empty_selection(self, layout_and_points):
        layout, _ = layout_and_points
        assert layout.block_row_ranges(np.array([], dtype=np.uint64), 5) == []
        assert gather_rows(layout, []).size == 0

    def test_rejects_depth_beyond_keys(self, layout_and_points):
        layout, _ = layout_and_points
        with pytest.raises(ConfigurationError):
            layout.block_row_ranges(np.array([0], dtype=np.uint64), 16)

    def test_full_coverage_at_depth_zero_equivalent(self, layout_and_points):
        layout, points = layout_and_points
        # All 2 blocks of depth 1 cover every row.
        ranges = layout.block_row_ranges(np.array([0, 1], dtype=np.uint64), 1)
        assert gather_rows(layout, ranges).size == len(points)


class TestCurveSections:
    def test_sections_partition_rows(self, layout_and_points):
        layout, points = layout_and_points
        for r in (0, 2, 4):
            sections = layout.curve_sections(r)
            assert len(sections) == 1 << r
            assert sections[0][0] == 0
            assert sections[-1][1] == len(points)
            for (s0, e0), (s1, e1) in zip(sections, sections[1:]):
                assert e0 == s1

    def test_section_split_for_memory(self, layout_and_points):
        layout, points = layout_and_points
        r = layout.section_split_for_memory(len(points) // 4)
        fullest = max(e - s for s, e in layout.curve_sections(r))
        assert fullest <= len(points) // 4
        if r > 0:
            prev_fullest = max(
                e - s for s, e in layout.curve_sections(r - 1)
            )
            assert prev_fullest > len(points) // 4

    def test_r_zero_when_everything_fits(self, layout_and_points):
        layout, points = layout_and_points
        assert layout.section_split_for_memory(len(points)) == 0

    def test_rejects_impossible_budget(self, layout_and_points):
        layout, _ = layout_and_points
        with pytest.raises(ConfigurationError):
            layout.section_split_for_memory(0)

    def test_rejects_bad_r(self, layout_and_points):
        layout, _ = layout_and_points
        with pytest.raises(ConfigurationError):
            layout.curve_sections(-1)
        with pytest.raises(ConfigurationError):
            layout.curve_sections(layout.key_bits + 1)

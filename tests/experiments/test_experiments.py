"""Smoke and shape tests for the experiment modules (tiny workloads).

Each experiment runs here at a drastically reduced scale: the point is to
verify the plumbing and the *direction* of each claim, not the full paper
sweep (that is what ``benchmarks/`` is for).
"""

import pytest

from repro.experiments import (
    build_setup,
    format_table,
    make_detector,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig56,
    run_fig7,
    run_table1,
    sweep_transforms,
)
from repro.experiments.common import Series


class TestCommon:
    def test_series_accumulates(self):
        s = Series("x")
        s.add(1, 2)
        s.add(3, 4)
        assert len(s) == 2
        assert s.x == [1.0, 3.0]

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text


class TestFig2:
    def test_partitions_verified(self):
        result = run_fig2(order=4, depths=(3, 4, 5))
        for summary in result.summaries:
            assert summary.covers_grid
            assert summary.disjoint
            assert summary.num_blocks == 1 << summary.depth
            assert len(summary.distinct_shapes) == 1
        assert "depth p=3" in result.render()

    def test_block_volume_halves_per_depth(self):
        result = run_fig2(order=4, depths=(3, 4))
        volumes = [s.block_volume for s in result.summaries]
        assert volumes[0] == 2 * volumes[1]


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig1(num_clips=2, frames_per_clip=60, num_bins=12, seed=0)

    def test_normal_model_beats_uniform(self, result):
        """The paper's headline comparison of Fig. 1."""
        assert result.ks_normal < result.ks_uniform

    def test_sigma_positive(self, result):
        assert result.sigma_hat > 1.0

    def test_series_aligned(self, result):
        assert len(result.real) == len(result.normal_model)
        assert len(result.real) == len(result.spherical_uniform)

    def test_render(self, result):
        text = result.render()
        assert "KS" in text and "normal" in text


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(
            alphas=(0.5, 0.8, 0.95),
            num_clips=2,
            frames_per_clip=60,
            db_rows=5_000,
            max_queries=60,
            seed=0,
        )

    def test_retrieval_increases_with_alpha(self, result):
        rates = result.retrieval.y
        assert rates[-1] >= rates[0]

    def test_retrieval_tracks_alpha_loosely(self, result):
        assert result.max_error <= 0.25

    def test_render(self, result):
        assert "alpha" in result.render()


class TestTable1:
    def test_severity_ladder_shape(self):
        from repro.video.transforms import Gamma, GaussianNoise, Resize

        ladder = [
            (Resize(0.84), 1.0),
            (Gamma(2.08), 1.0),
            (GaussianNoise(10.0, seed=7), 0.0),
        ]
        result = run_table1(
            num_clips=2,
            frames_per_clip=60,
            db_rows=5_000,
            max_queries=60,
            transforms=ladder,
            seed=0,
        )
        sigmas = [r.sigma_hat for r in result.rows]
        assert sigmas == sorted(sigmas, reverse=True)
        # Mildest transformation retrieves at least as well as the severest.
        assert result.rows[-1].retrieval >= result.rows[0].retrieval - 0.05
        assert result.reference_sigma == pytest.approx(max(sigmas))


class TestFig56:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig56(
            alphas=(0.5, 0.8),
            db_rows=20_000,
            num_queries=40,
            num_range_queries=10,
            depth=24,
            seed=0,
        )

    def test_statistical_faster_than_range(self, result):
        # The gap widens with alpha (bigger equal-expectation sphere); at
        # this tiny scale only the top alpha shows a solid margin.
        assert result.rows[-1].speedup > 1.0

    def test_retrieval_comparable(self, result):
        for row in result.rows:
            assert abs(row.stat_retrieval - row.range_retrieval) < 0.35

    def test_epsilon_grows_with_alpha(self, result):
        eps = [r.epsilon for r in result.rows]
        assert eps == sorted(eps)


class TestFig7:
    def test_scan_linear_s3_sublinear(self):
        result = run_fig7(
            db_sizes=(5_000, 20_000, 80_000),
            num_queries=20,
            num_scan_queries=4,
            seed=0,
        )
        s3_slope, scan_slope = result.loglog_slopes()
        assert scan_slope > 0.6  # essentially linear
        assert s3_slope < scan_slope
        gains = [r.gain for r in result.rows]
        assert gains[-1] > gains[0]  # gain grows with DB size


class TestAbacusMachinery:
    def test_sweep_produces_cells(self):
        setup = build_setup(
            num_videos=4,
            frames_per_video=80,
            num_candidates=2,
            candidate_frames=60,
            seed=0,
        )
        detector = make_detector(setup, db_rows=8_000, alpha=0.8)
        grids = {
            "gamma": [lambda: __import__("repro.video.transforms", fromlist=["Gamma"]).Gamma(1.3)],
        }
        cells = sweep_transforms(detector, setup.candidates, "test", grids=grids)
        assert len(cells) == 1
        assert 0.0 <= cells[0].detection_rate <= 1.0
        assert cells[0].config_label == "test"


class TestFig10:
    def test_monitoring_run_scores_correctly(self):
        from repro.experiments import run_fig10

        result = run_fig10(
            num_videos=4,
            frames_per_video=130,
            db_rows=10_000,
            num_copies=2,
            decision_threshold=20,
            seed=1,
        )
        assert 0.0 <= result.recall <= 1.0
        assert result.recall >= 0.5
        assert result.stream_seconds > 0
        assert result.realtime_factor > 0
        assert "monitoring" in result.render()


class TestRenderings:
    def test_fig56_render_includes_ascii_figures(self):
        from repro.experiments import run_fig56

        result = run_fig56(
            alphas=(0.5, 0.8), db_rows=5_000, num_queries=10,
            num_range_queries=5, depth=16, seed=0,
        )
        text = result.render()
        assert "Fig. 5 — retrieval rate vs alpha" in text
        assert "Fig. 6 — mean search time" in text
        assert "o statistical query" in text

    def test_fig7_render_includes_loglog_plot(self):
        from repro.experiments import run_fig7

        result = run_fig7(
            db_sizes=(2_000, 8_000), num_queries=5, num_scan_queries=2, seed=0
        )
        text = result.render()
        assert "log-log" in text
        assert "o statistical method" in text
        assert "x sequential scan" in text

"""Integration tests of the complete copy detector."""

import numpy as np
import pytest

from repro.cbcd.detector import CopyDetector, DetectorConfig
from repro.cbcd.evaluation import (
    GroundTruth,
    calibrate_decision_threshold,
    evaluate_candidates,
    is_good_detection,
)
from repro.corpus.builder import build_reference_corpus
from repro.corpus.filler import scale_store
from repro.distortion.model import NormalDistortionModel
from repro.errors import ConfigurationError
from repro.index.s3 import S3Index
from repro.video.synthetic import generate_corpus
from repro.video.transforms import Gamma


@pytest.fixture(scope="module")
def corpus():
    return build_reference_corpus(num_videos=6, frames_per_video=120, seed=11)


@pytest.fixture(scope="module")
def detector(corpus):
    store = scale_store(corpus.store, 15_000, rng=3)
    index = S3Index(store, model=NormalDistortionModel(20, 20.0), depth=20)
    return CopyDetector(index, DetectorConfig(alpha=0.8, decision_threshold=5))


class TestDetectClip:
    def test_detects_verbatim_copy(self, corpus, detector):
        clip, truth = corpus.candidate(2, 20, 70)
        report = detector.detect_clip(clip)
        assert is_good_detection(report, truth)
        best = report.best()
        assert best is not None
        assert best.video_id == 2
        assert best.offset == pytest.approx(truth.true_offset, abs=2.0)

    def test_detects_transformed_copy(self, corpus, detector):
        clip, truth = corpus.candidate(4, 10, 70)
        transformed = Gamma(1.6).apply_clip(clip)
        report = detector.detect_clip(transformed)
        assert is_good_detection(report, truth)

    def test_true_copies_separate_from_unrelated_clips(self, corpus, detector):
        """The property the n_sim threshold calibration relies on: genuine
        copies score far above the coincidental votes of foreign clips."""
        worst_negative = 0
        for seed in (12345, 54321):
            foreign = generate_corpus(1, 80, seed=seed)[0]
            report = detector.detect_clip(foreign)
            best = max((v.nsim for v in report.votes), default=0)
            worst_negative = max(worst_negative, best)
        best_positive = None
        for vid in (2, 4):
            clip, truth = corpus.candidate(vid, 20, 70)
            report = detector.detect_clip(clip)
            scores = [v.nsim for v in report.votes if v.video_id == vid]
            score = max(scores, default=0)
            best_positive = score if best_positive is None else min(
                best_positive, score
            )
        assert best_positive > 2 * worst_negative

    def test_report_accounting(self, corpus, detector):
        clip, _ = corpus.candidate(0, 0, 60)
        report = detector.detect_clip(clip)
        assert report.num_queries > 0
        assert report.rows_scanned > 0
        assert report.search_seconds > 0


class TestDetectFingerprints:
    def test_matches_detect_clip(self, corpus, detector):
        clip, truth = corpus.candidate(1, 15, 70)
        extraction = corpus.extractor.extract(clip, video_id=0)
        report = detector.detect_fingerprints(
            extraction.store.fingerprints, extraction.store.timecodes
        )
        assert is_good_detection(report, truth)

    def test_rejects_misaligned_inputs(self, detector):
        with pytest.raises(ConfigurationError):
            detector.detect_fingerprints(np.zeros((4, 20)), np.zeros(3))


class TestEvaluation:
    def test_detection_rate_on_identity(self, corpus, detector):
        candidates = corpus.random_candidates(6, 70, rng=5)
        result = evaluate_candidates(detector, candidates)
        assert result.detection_rate >= 0.8
        assert result.num_trials == 6
        assert result.mean_search_seconds > 0

    def test_wrong_offset_is_not_good_detection(self, corpus, detector):
        clip, truth = corpus.candidate(3, 30, 70)
        report = detector.detect_clip(clip)
        shifted_truth = GroundTruth(video_id=3, start_frame=truth.start_frame + 50)
        assert not is_good_detection(report, shifted_truth)

    def test_wrong_id_is_not_good_detection(self, corpus, detector):
        clip, truth = corpus.candidate(3, 30, 70)
        report = detector.detect_clip(clip)
        wrong_truth = GroundTruth(video_id=5, start_frame=truth.start_frame)
        assert not is_good_detection(report, wrong_truth)


class TestCalibration:
    def test_threshold_clears_negatives(self, detector):
        negatives = generate_corpus(3, 70, seed=777)
        threshold = calibrate_decision_threshold(detector, negatives)
        from repro.cbcd.evaluation import false_alarm_nsim_distribution

        scores = false_alarm_nsim_distribution(detector, negatives)
        assert threshold > scores.max()  # deterministic per-clip detection
        assert detector.config.decision_threshold == threshold

    def test_rejects_empty_negatives(self, detector):
        with pytest.raises(ConfigurationError):
            calibrate_decision_threshold(detector, [])


class TestExtractedEvaluation:
    def test_extracted_matches_direct_evaluation(self, corpus, detector):
        from repro.cbcd.evaluation import (
            evaluate_candidates,
            evaluate_extracted,
            extract_candidates,
        )

        candidates = corpus.random_candidates(3, 70, rng=77)
        direct = evaluate_candidates(detector, candidates, transform=None)
        extracted = extract_candidates(candidates, transform=None)
        shared = evaluate_extracted(detector, extracted)
        assert [o.detected for o in direct.outcomes] == [
            o.detected for o in shared.outcomes
        ]

    def test_empty_extraction_counts_as_miss(self, detector):
        from repro.cbcd.evaluation import ExtractedCandidate, evaluate_extracted

        empty = ExtractedCandidate(
            fingerprints=np.empty((0, 20), dtype=np.uint8),
            timecodes=np.empty(0),
            truth=GroundTruth(video_id=0, start_frame=0.0),
        )
        result = evaluate_extracted(detector, [empty])
        assert result.detection_rate == 0.0

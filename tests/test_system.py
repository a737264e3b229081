"""System test: the whole pipeline, end to end, one scenario.

Builds an archive from procedural video, persists and reloads it, runs
detection on a transformed candidate and on foreign material, and
cross-checks every path for consistency.  This is the "does the product actually work" test.
"""

import numpy as np
import pytest

from repro import (
    CopyDetector,
    DetectorConfig,
    NormalDistortionModel,
    S3Index,
    SequentialScanIndex,
)
from repro.cbcd import calibrate_decision_threshold, is_good_detection
from repro.corpus import build_reference_corpus, scale_store
from repro.distortion import radius_for_expectation
from repro.index import VAFile
from repro.video import Gamma, generate_corpus


@pytest.fixture(scope="module")
def system(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("system")
    corpus = build_reference_corpus(num_videos=6, frames_per_video=130, seed=77)
    store = scale_store(corpus.store, 20_000, rng=77)
    model = NormalDistortionModel(20, 20.0)
    index = S3Index(store, model=model, depth=20)
    prefix = tmp / "archive"
    index.save(prefix)
    detector = CopyDetector(index, DetectorConfig(alpha=0.8))
    negatives = generate_corpus(3, 90, seed=4040)
    threshold = calibrate_decision_threshold(detector, negatives)
    return {
        "corpus": corpus,
        "index": index,
        "model": model,
        "detector": detector,
        "threshold": threshold,
        "prefix": prefix,
    }


class TestEndToEnd:
    def test_transformed_copy_detected_after_calibration(self, system):
        corpus = system["corpus"]
        detector = system["detector"]
        clip, truth = corpus.candidate(3, 25, 80)
        report = detector.detect_clip(Gamma(1.7).apply_clip(clip))
        assert is_good_detection(report, truth)
        best = report.best()
        assert best.nsim >= system["threshold"]

    def test_foreign_material_rejected(self, system):
        detector = system["detector"]
        foreign = generate_corpus(2, 80, seed=606060)
        for clip in foreign:
            report = detector.detect_clip(clip)
            assert report.detections == []

    def test_reloaded_index_identical(self, system):
        index = system["index"]
        loaded = S3Index.load(system["prefix"])
        query = index.store.fingerprints[100].astype(float)
        a = index.statistical_query(query, 0.8)
        b = loaded.statistical_query(query, 0.8)
        assert np.array_equal(np.sort(a.rows), np.sort(b.rows))

    def test_three_exact_range_methods_agree(self, system):
        index = system["index"]
        scan = SequentialScanIndex(index.store)
        vafile = VAFile(index.store, bits=4)
        eps = radius_for_expectation(0.7, 20, 20.0)
        rng = np.random.default_rng(2)
        for _ in range(3):
            q = rng.uniform(0, 255, 20)
            rows_a = sorted(index.range_query(q, eps).rows.tolist())
            rows_b = sorted(scan.range_query(q, eps).rows.tolist())
            rows_c = sorted(vafile.range_query(q, eps).rows.tolist())
            assert rows_a == rows_b == rows_c

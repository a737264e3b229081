"""Tests for the unified QueryOptions API.

Three contracts:

* :class:`QueryOptions` validates once, at construction, with the same
  messages the scattered per-class checks used to raise — and the
  removed executor knobs are gone, not ignored;
* every front-end config carries its engine tuning in ``options=``;
* all four index classes satisfy :class:`repro.index.IndexProtocol`.
"""

import warnings

import numpy as np
import pytest

from repro.cbcd.detector import DetectorConfig
from repro.cbcd.monitor import MonitorConfig
from repro.distortion.model import NormalDistortionModel
from repro.errors import ConfigurationError
from repro.index import (
    IndexProtocol,
    QueryOptions,
    S3Index,
    SegmentedS3Index,
    SeqScanIndex,
    VAFileIndex,
    resolve_options,
)
from repro.index.batch import BatchQueryExecutor
from repro.index.store import FingerprintStore
from repro.serve.server import ServeConfig

NDIMS = 8
SIGMA = 10.0


def make_store(n=300, seed=0):
    rng = np.random.default_rng(seed)
    fp = rng.integers(0, 256, size=(n, NDIMS)).astype(np.uint8)
    return FingerprintStore(
        fp, rng.integers(0, 5, n).astype(np.uint32), rng.uniform(0, 100, n)
    )


# ----------------------------------------------------------------------
class TestQueryOptionsValidation:
    def test_defaults(self):
        opts = QueryOptions()
        assert opts.alpha == 0.8
        assert opts.executor == "auto"
        assert opts.prefilter == "auto"
        assert opts.prefilter_enabled

    @pytest.mark.parametrize("field,value", [
        ("alpha", 0.0),
        ("alpha", 1.5),
        ("batch_size", 0),
        ("executor", "gpu"),
        ("executor", "threads"),
        ("executor", "processes"),
        ("prefilter", "maybe"),
        ("prefilter", "on"),
        ("depth", 0),
    ])
    def test_rejects_out_of_domain(self, field, value):
        with pytest.raises(ConfigurationError):
            QueryOptions(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("workers", 2),
        ("planner", "fixed"),
        ("parallel_gather_min_rows", 0),
    ])
    def test_removed_fields_are_gone_not_ignored(self, field, value):
        with pytest.raises(TypeError):
            QueryOptions(**{field: value})

    def test_replace(self):
        opts = QueryOptions(alpha=0.5).replace(batch_size=4, prefilter="off")
        assert opts.alpha == 0.5
        assert opts.batch_size == 4
        assert not opts.prefilter_enabled

    def test_replace_validates(self):
        with pytest.raises(ConfigurationError):
            QueryOptions().replace(executor="nope")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            QueryOptions().alpha = 0.2


class TestResolveOptions:
    def test_alpha_depth_stay_first_class(self):
        # alpha/depth are paper semantics, not engine tuning: passing
        # them never warns, and they override the options' values.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opts = resolve_options(
                QueryOptions(alpha=0.5), alpha=0.9, depth=6
            )
        assert opts.alpha == 0.9
        assert opts.depth == 6


# ----------------------------------------------------------------------
class TestExecutorShims:
    def test_needs_alpha_or_options(self):
        index = S3Index(
            make_store(), model=NormalDistortionModel(NDIMS, SIGMA)
        )
        with pytest.raises(ConfigurationError, match="alpha= or options="):
            BatchQueryExecutor(index)

    def test_alpha_plus_options_overrides(self):
        index = S3Index(
            make_store(), model=NormalDistortionModel(NDIMS, SIGMA)
        )
        executor = BatchQueryExecutor(
            index, 0.9, options=QueryOptions(alpha=0.5, batch_size=2)
        )
        assert executor.alpha == 0.9
        assert executor.batch_size == 2


class TestConfigShims:
    def test_detector_options_spelling_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = DetectorConfig(
                options=QueryOptions(alpha=0.7, batch_size=2, prefilter="off")
            )
        assert cfg.alpha == 0.7  # synced from the options
        assert cfg.options.batch_size == 2

    def test_detector_still_validates_alpha_domain(self):
        # The detector's stricter alpha < 1 holds for options-carried
        # alphas too (QueryOptions itself allows alpha == 1).
        with pytest.raises(ConfigurationError, match="alpha"):
            DetectorConfig(options=QueryOptions(alpha=1.0))

    def test_serve_max_batch_wins_engine_batch_size(self):
        cfg = ServeConfig(
            max_batch=64, options=QueryOptions(batch_size=8, alpha=0.6)
        )
        assert cfg.options.batch_size == 64
        assert cfg.alpha == 0.6

    @pytest.mark.parametrize("config,field", [
        (DetectorConfig, "batch_size"),
        (DetectorConfig, "workers"),
        (DetectorConfig, "executor"),
        (MonitorConfig, "batch_size"),
        (MonitorConfig, "workers"),
        (ServeConfig, "workers"),
        (ServeConfig, "executor"),
    ])
    def test_flat_engine_fields_are_gone(self, config, field):
        with pytest.raises(TypeError):
            config(**{field: 1})


# ----------------------------------------------------------------------
class TestIndexProtocol:
    def test_all_four_index_classes_conform(self, tmp_path):
        store = make_store()
        model = NormalDistortionModel(NDIMS, SIGMA)
        segmented = SegmentedS3Index.create(
            tmp_path / "seg", ndims=NDIMS, model=model
        )
        segmented.add(store.fingerprints, store.ids, store.timecodes)
        indexes = [
            S3Index(store, model=model),
            segmented,
            SeqScanIndex(store),
            VAFileIndex(store),
        ]
        query = store.fingerprints[0].astype(np.float64)
        opts = QueryOptions(prefilter="auto")
        for index in indexes:
            assert isinstance(index, IndexProtocol), type(index).__name__
            assert len(index) == len(store)
            assert index.ndims == NDIMS
            result = index.range_query(query, 5.0, options=opts)
            assert len(result) >= 1  # the row itself is within any radius
        segmented.close()

    def test_empty_range_results_have_empty_distances(self, tmp_path):
        """An ε-range query no row is within answers empty ``float64``
        distances on every index, whether it scanned rows or none."""
        store = make_store()
        model = NormalDistortionModel(NDIMS, SIGMA)
        segmented = SegmentedS3Index.create(
            tmp_path / "seg", ndims=NDIMS, model=model
        )
        segmented.add(store.fingerprints, store.ids, store.timecodes)
        segmented.flush()
        indexes = [
            S3Index(store, model=model),
            segmented,
            SeqScanIndex(store),
            VAFileIndex(store),
        ]
        far = np.full(NDIMS, -500.0)  # selects no block: nothing scanned
        near = store.fingerprints[0] + 0.5  # scans rows, keeps none
        for index in indexes:
            for query in (far, near):
                result = index.range_query(query, 0.1)
                assert len(result) == 0, type(index).__name__
                assert result.distances is not None, type(index).__name__
                assert result.distances.dtype == np.float64
                assert result.distances.shape == (0,)
        segmented.close()

"""Tests for the single-file fingerprint store."""

import numpy as np
import pytest

from repro.errors import StoreError
from repro.index.store import (
    FingerprintStore,
    StoreBuilder,
    column_offsets,
    expected_file_size,
    read_header,
)


@pytest.fixture
def small_store():
    rng = np.random.default_rng(0)
    return FingerprintStore(
        fingerprints=rng.integers(0, 256, size=(100, 20), dtype=np.uint8),
        ids=rng.integers(0, 50, size=100, dtype=np.uint32),
        timecodes=rng.uniform(0, 1000, size=100),
    )


class TestConstruction:
    def test_coerces_dtypes(self):
        store = FingerprintStore(
            fingerprints=np.zeros((3, 4), dtype=np.int64),
            ids=np.arange(3),
            timecodes=np.arange(3),
        )
        assert store.fingerprints.dtype == np.uint8
        assert store.ids.dtype == np.uint32
        assert store.timecodes.dtype == np.float64

    def test_rejects_column_mismatch(self):
        with pytest.raises(StoreError):
            FingerprintStore(
                fingerprints=np.zeros((3, 4)),
                ids=np.arange(2),
                timecodes=np.arange(3),
            )

    def test_rejects_non_2d_fingerprints(self):
        with pytest.raises(StoreError):
            FingerprintStore(
                fingerprints=np.zeros(5), ids=np.arange(5), timecodes=np.arange(5)
            )

    def test_len_ndims_nbytes(self, small_store):
        assert len(small_store) == 100
        assert small_store.ndims == 20
        assert small_store.nbytes() == 100 * (20 + 4 + 8)


class TestCombinators:
    def test_empty(self):
        store = FingerprintStore.empty(8)
        assert len(store) == 0
        assert store.ndims == 8

    def test_concatenate(self, small_store):
        merged = FingerprintStore.concatenate([small_store, small_store])
        assert len(merged) == 200
        assert np.array_equal(merged.ids[:100], small_store.ids)

    def test_concatenate_rejects_dim_mismatch(self, small_store):
        other = FingerprintStore.empty(5)
        with pytest.raises(StoreError):
            FingerprintStore.concatenate([small_store, other])

    def test_concatenate_rejects_empty_list(self):
        with pytest.raises(StoreError):
            FingerprintStore.concatenate([])

    def test_take_reorders(self, small_store):
        rows = np.array([5, 1, 7])
        taken = small_store.take(rows)
        assert np.array_equal(taken.ids, small_store.ids[rows])
        assert np.array_equal(taken.fingerprints, small_store.fingerprints[rows])

    def test_row_slice_is_copy(self, small_store):
        part = small_store.row_slice(10, 20)
        assert len(part) == 10
        part.fingerprints[0, 0] = 255
        # Original untouched (0..255 equality check on the source row).
        assert not np.shares_memory(part.fingerprints, small_store.fingerprints)


class TestPersistence:
    def test_save_load_roundtrip(self, small_store, tmp_path):
        path = tmp_path / "db.store"
        small_store.save(path)
        loaded = FingerprintStore.load(path)
        assert np.array_equal(loaded.fingerprints, small_store.fingerprints)
        assert np.array_equal(loaded.ids, small_store.ids)
        assert np.array_equal(loaded.timecodes, small_store.timecodes)

    def test_mmap_load(self, small_store, tmp_path):
        path = tmp_path / "db.store"
        small_store.save(path)
        mapped = FingerprintStore.load(path, mmap=True)
        assert isinstance(mapped.fingerprints, np.memmap)
        assert np.array_equal(
            np.asarray(mapped.fingerprints), small_store.fingerprints
        )
        assert np.array_equal(np.asarray(mapped.timecodes), small_store.timecodes)

    def test_header(self, small_store, tmp_path):
        path = tmp_path / "db.store"
        small_store.save(path)
        assert read_header(path) == (100, 20)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.store"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(StoreError, match="junk.store"):
            read_header(path)

    def test_rejects_truncated_file(self, small_store, tmp_path):
        path = tmp_path / "trunc.store"
        small_store.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(StoreError, match="trunc.store"):
            FingerprintStore.load(path)

    def test_rejects_truncated_file_mmap(self, small_store, tmp_path):
        path = tmp_path / "trunc.store"
        small_store.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 1])
        with pytest.raises(StoreError, match="trunc.store"):
            FingerprintStore.load(path, mmap=True)

    def test_rejects_header_shorter_than_header_struct(self, tmp_path):
        path = tmp_path / "tiny.store"
        path.write_bytes(b"S3FP\x01")
        with pytest.raises(StoreError, match="tiny.store"):
            read_header(path)

    def test_rejects_version_mismatch(self, small_store, tmp_path):
        path = tmp_path / "future.store"
        small_store.save(path)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="future.store"):
            FingerprintStore.load(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(StoreError, match="missing.store"):
            read_header(tmp_path / "missing.store")

    def test_expected_file_size_matches_disk(self, small_store, tmp_path):
        path = tmp_path / "db.store"
        small_store.save(path)
        assert path.stat().st_size == expected_file_size(100, 20)

    def test_column_offsets_are_contiguous(self):
        offsets = column_offsets(100, 20)
        assert offsets["ids"] - offsets["fingerprints"] == 100 * 20
        assert offsets["timecodes"] - offsets["ids"] == 100 * 4


class TestStoreBuilder:
    def test_append_and_build(self, small_store):
        builder = StoreBuilder(20, initial_capacity=4)
        for start in range(0, 100, 10):
            part = small_store.row_slice(start, start + 10)
            assert builder.append(part.fingerprints, part.ids,
                                  part.timecodes) == 10
        assert len(builder) == 100
        built = builder.build()
        assert np.array_equal(built.fingerprints, small_store.fingerprints)
        assert np.array_equal(built.ids, small_store.ids)
        assert np.array_equal(built.timecodes, small_store.timecodes)

    def test_build_copies(self):
        builder = StoreBuilder(4)
        builder.append(np.zeros((2, 4), dtype=np.uint8),
                       np.arange(2), np.arange(2))
        built = builder.build()
        assert not np.shares_memory(built.fingerprints,
                                    builder.fingerprints)

    def test_views_track_size(self):
        builder = StoreBuilder(4, initial_capacity=1)
        assert builder.fingerprints.shape == (0, 4)
        builder.append(np.ones((3, 4), dtype=np.uint8),
                       np.arange(3), np.arange(3))
        assert builder.fingerprints.shape == (3, 4)
        assert builder.ids.shape == (3,)
        assert builder.timecodes.shape == (3,)

    def test_append_store(self, small_store):
        builder = StoreBuilder(20)
        builder.append_store(small_store)
        builder.append_store(small_store)
        assert len(builder) == 200
        built = builder.build()
        assert np.array_equal(built.ids[100:], small_store.ids)

    def test_clear_retains_nothing(self, small_store):
        builder = StoreBuilder(20)
        builder.append_store(small_store)
        builder.clear()
        assert len(builder) == 0
        assert len(builder.build()) == 0

    def test_rejects_dimension_mismatch(self):
        builder = StoreBuilder(4)
        with pytest.raises(StoreError):
            builder.append(np.zeros((2, 5), dtype=np.uint8),
                           np.arange(2), np.arange(2))

    def test_rejects_column_length_mismatch(self):
        builder = StoreBuilder(4)
        with pytest.raises(StoreError):
            builder.append(np.zeros((2, 4), dtype=np.uint8),
                           np.arange(3), np.arange(2))

    def test_rejects_bad_params(self):
        with pytest.raises(StoreError):
            StoreBuilder(0)
        with pytest.raises(StoreError):
            StoreBuilder(4, initial_capacity=0)

"""Blob backend contract tests: atomicity, faults, key hygiene, and the
one-call span read with the column fetch built on it.

The property tests hold ``get_ranges`` to slicing the blob, and
``fetch_columns`` to the range-at-a-time fetch it replaced
(``reference_fetch``).  ``PROPERTY_EXAMPLES`` raises the example count
(CI's ``property-long`` job).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ColdFetchError, StorageError
from repro.index.store import FingerprintStore
from repro.storage import (
    BLOB_SUFFIX,
    BlobBackend,
    FakeBlobBackend,
    FileBlobBackend,
    fetch_columns,
)

from . import reference_fetch

EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "30"))


@pytest.fixture(params=["file", "fake"])
def backend(request, tmp_path):
    if request.param == "file":
        return FileBlobBackend(tmp_path / "blobs")
    return FakeBlobBackend()


class TestBackendContract:
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, BlobBackend)

    def test_put_get_roundtrip(self, backend):
        backend.put("seg-000001", b"hello blob")
        assert backend.get("seg-000001") == b"hello blob"
        assert backend.exists("seg-000001")
        assert not backend.exists("seg-000099")

    def test_get_range(self, backend):
        backend.put("seg-000001", bytes(range(100)))
        assert backend.get_ranges("seg-000001", [(10, 5)]) == bytes(range(10, 15))
        assert backend.get_ranges("seg-000001", [(0, 100)]) == bytes(range(100))

    def test_overwrite_replaces(self, backend):
        backend.put("k", b"old")
        backend.put("k", b"new longer payload")
        assert backend.get("k") == b"new longer payload"

    def test_missing_key_raises_storage_error(self, backend):
        with pytest.raises(StorageError):
            backend.get("seg-999999")
        with pytest.raises(StorageError):
            backend.get_ranges("seg-999999", [(0, 10)])

    def test_delete_is_idempotent(self, backend):
        backend.put("k", b"x")
        backend.delete("k")
        assert not backend.exists("k")
        backend.delete("k")  # second delete is a no-op, not an error

    def test_keys_sorted(self, backend):
        for name in ("seg-000003", "seg-000001", "seg-000002"):
            backend.put(name, b"x")
        assert backend.keys() == ["seg-000001", "seg-000002", "seg-000003"]


class TestFileBackend:
    def test_put_leaves_no_tmp_file(self, tmp_path):
        backend = FileBlobBackend(tmp_path / "blobs")
        backend.put("seg-000001", b"payload")
        names = [p.name for p in (tmp_path / "blobs").iterdir()]
        assert names == ["seg-000001" + BLOB_SUFFIX]

    @pytest.mark.parametrize("key", ["", "a/b", "../escape", ".hidden"])
    def test_invalid_keys_rejected(self, tmp_path, key):
        backend = FileBlobBackend(tmp_path / "blobs")
        with pytest.raises(StorageError):
            backend.put(key, b"x")
        with pytest.raises(StorageError):
            backend.get(key)

    def test_keys_ignores_foreign_files(self, tmp_path):
        backend = FileBlobBackend(tmp_path / "blobs")
        backend.put("seg-000001", b"x")
        (tmp_path / "blobs" / "notes.txt").write_text("not a blob")
        assert backend.keys() == ["seg-000001"]


class TestFakeBackendFaults:
    def test_fail_reads_then_recovers(self):
        backend = FakeBlobBackend()
        backend.put("k", b"payload")
        backend.fail_reads = 2
        with pytest.raises(StorageError):
            backend.get("k")
        with pytest.raises(StorageError):
            backend.get_ranges("k", [(0, 4)])
        # The budget of injected failures is spent; reads work again.
        assert backend.get("k") == b"payload"

    def test_torn_reads_truncate_range_gets(self):
        backend = FakeBlobBackend()
        backend.put("k", bytes(range(64)))
        backend.torn_reads = 1
        torn = backend.get_ranges("k", [(0, 64)])
        assert len(torn) == 32
        assert backend.get_ranges("k", [(0, 64)]) == bytes(range(64))

    def test_counters(self):
        backend = FakeBlobBackend()
        backend.put("k", bytes(10))
        backend.get("k")
        backend.get_ranges("k", [(0, 4)])
        assert backend.puts == 1
        assert backend.gets == 1
        assert backend.range_gets == 1
        assert backend.bytes_read == 14

    def test_faults_count_per_call(self):
        backend = FakeBlobBackend()
        backend.put("k", bytes(range(64)))
        spans = [(0, 8), (16, 8), (40, 24)]
        backend.torn_reads = 1
        assert len(backend.get_ranges("k", spans)) == 20  # one call torn
        assert backend.torn_reads == 0
        backend.fail_reads = 1
        with pytest.raises(StorageError):
            backend.get_ranges("k", spans)
        assert backend.get_ranges("k", spans) == b"".join(
            bytes(range(o, o + n)) for o, n in spans
        )
        assert backend.range_gets == 2  # the failed call never read


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def backends(tmp_path_factory):
    return {
        "file": FileBlobBackend(tmp_path_factory.mktemp("blobs")),
        "fake": FakeBlobBackend(),
    }


@st.composite
def span_lists(draw):
    """A blob and spans over it: zero-length, adjacent, repeated and
    unsorted spans, and sometimes spans crossing or past the end."""
    blob = draw(st.binary(max_size=300))
    size = len(blob)
    spans = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["any", "empty", "adjacent", "repeat"]))
        if kind == "adjacent" and spans:
            offset = min(sum(spans[-1]), size)
        elif kind == "repeat" and spans:
            spans.append(spans[draw(st.integers(0, len(spans) - 1))])
            continue
        else:
            offset = draw(st.integers(0, size))
        length = 0 if kind == "empty" else draw(st.integers(0, size - offset))
        spans.append((offset, length))
    if draw(st.booleans()):
        offset = draw(st.integers(0, size + 5))
        spans.insert(
            draw(st.integers(0, len(spans))),
            (offset, max(size - offset, 0) + draw(st.integers(1, 20))),
        )
    return blob, draw(st.permutations(spans))


@given(st.sampled_from(["file", "fake"]), span_lists())
@settings(max_examples=EXAMPLES, deadline=None)
def test_get_ranges_is_the_joined_slices(backends, kind, case):
    backend = backends[kind]
    blob, spans = case
    backend.put("seg-000001", blob)
    got = backend.get_ranges("seg-000001", spans)
    want = b"".join(blob[o:o + n] for o, n in spans)
    if all(o + n <= len(blob) for o, n in spans):
        assert got == want
    else:  # torn: short, and never bytes the blob does not hold there
        assert len(got) < sum(n for _, n in spans)
        assert want.startswith(got)


@st.composite
def fetch_cases(draw):
    """A stored segment and row ranges over it, in any order, empty,
    overlapping or repeated — and sometimes one out of bounds."""
    count = draw(st.integers(0, 60))
    ndims = draw(st.sampled_from([1, 3, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    store = FingerprintStore(
        rng.integers(0, 256, (count, ndims), dtype=np.uint8),
        rng.integers(0, 2**32, count, dtype=np.uint32),
        rng.uniform(0, 1e4, count),
    )
    ranges = []
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, count))
        ranges.append((start, draw(st.integers(start, count))))
    if draw(st.integers(0, 4)) == 0:
        start = draw(st.integers(0, count))
        ranges.append((start, count + draw(st.integers(1, 5))))
    return store, ranges


@given(fetch_cases())
@settings(max_examples=EXAMPLES, deadline=None)
def test_fetch_columns_matches_reference(backends, tmp_path_factory, case):
    store, ranges = case
    path = tmp_path_factory.getbasetemp() / "fetch.store"
    store.save(path)
    for backend in backends.values():
        backend.put("seg-000001", path.read_bytes())
    count, ndims = len(store), store.ndims
    try:
        want = reference_fetch.fetch_columns(
            backends["file"], "seg-000001", count, ndims, ranges
        )
    except ColdFetchError as exc:
        for backend in backends.values():
            with pytest.raises(ColdFetchError, match="out of bounds") as err:
                fetch_columns(backend, "seg-000001", count, ndims, ranges)
            assert str(err.value) == str(exc)
        return
    for backend in backends.values():
        got = fetch_columns(backend, "seg-000001", count, ndims, ranges)
        for a, b in zip(got[:3], want[:3], strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert np.array_equal(a, b)
            assert a.flags.owndata and a.flags.writeable
        assert got[3] == want[3]

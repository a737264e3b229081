"""Tiered-storage acceptance properties of the segmented index.

Three guarantees from the subsystem's contract
(``docs/storage-tiers.md``):

* **bit-identity** — a tiered index answers every query with exactly
  the arrays an untiered index over the same records produces, across
  any interleaving of ingest, flush, compaction, demotion, budget
  changes and queries (hypothesis drives the interleavings);
* **kill-9 crash recovery** — a process holding segments in all three
  tiers (plus unflushed WAL rows) can be SIGKILLed at any point and the
  directory reopens complete: every sealed row is queryable and the WAL
  replays, with cold segments rebuilt from their sidecars alone;
* **queries never move segments** — after any sequence of solo,
  batched, range and window queries every segment keeps its tier, the
  manifest keeps its bytes, and the blob backend has served range reads
  only.  ``PROPERTY_EXAMPLES`` raises the example count (CI's
  ``property-long`` job).

A scan fetches a cold segment on the calling thread: querying a tiered
index starts no thread.
"""

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel
from repro.index.batch import BatchQueryExecutor, query_batch
from repro.index.options import QueryOptions
from repro.index.segmented import SegmentedS3Index
from repro.storage import FakeBlobBackend, StorageConfig, row_bytes

NDIMS = 8
SIGMA = 15.0
EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "25"))


def make_records(n, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.integers(40, 216, size=(4, NDIMS))
    assign = rng.integers(0, 4, size=n)
    fp = np.clip(
        centers[assign] + rng.normal(0, 10, (n, NDIMS)), 0, 255
    ).astype(np.uint8)
    ids = rng.integers(0, 50, n).astype(np.uint32)
    tcs = rng.uniform(0, 500, n)
    return fp, ids, tcs


def make_pair(tmp_path):
    """A tiered index and an untiered twin over the same directory kind."""
    kwargs = dict(
        ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=10 ** 9,
        auto_compact=False,
    )
    backend = FakeBlobBackend()
    tiered = SegmentedS3Index.create(
        tmp_path / "tiered",
        storage=StorageConfig(backend=backend),
        **kwargs,
    )
    plain = SegmentedS3Index.create(tmp_path / "plain", **kwargs)
    return tiered, plain, backend


def assert_identical(a, b):
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.timecodes, b.timecodes)
    assert np.array_equal(a.fingerprints, b.fingerprints)
    if a.distances is not None and b.distances is not None:
        assert np.array_equal(a.distances, b.distances)


op_strategy = st.one_of(
    st.tuples(st.just("ingest"), st.integers(20, 120), st.integers(0, 9)),
    st.tuples(st.just("flush"), st.just(0), st.just(0)),
    st.tuples(st.just("compact"), st.just(0), st.just(0)),
    st.tuples(st.just("demote"), st.integers(0, 5), st.just(0)),
    st.tuples(st.just("budget"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("query"), st.integers(0, 9), st.just(0)),
)


class TestBitIdentity:
    @given(ops=st.lists(op_strategy, min_size=4, max_size=12))
    @settings(max_examples=20, deadline=None)
    def test_interleavings_match_untiered(self, tmp_path_factory, ops):
        tmp_path = tmp_path_factory.mktemp("tiered")
        tiered, plain, _ = make_pair(tmp_path)
        try:
            seen_rows = 0
            for op, arg, seed in ops:
                if op == "ingest":
                    batch = make_records(arg, seed=seed)
                    tiered.add(*batch)
                    plain.add(*batch)
                    seen_rows += arg
                elif op == "flush":
                    tiered.flush()
                    plain.flush()
                elif op == "compact":
                    tiered.compact(force=True)
                    plain.compact(force=True)
                elif op == "demote" and tiered.num_segments:
                    segs = tiered._segments
                    seg = segs[arg % len(segs)]
                    if seg.resident:
                        tiered.storage.demote(seg)
                elif op == "budget":
                    per = (
                        tiered.storage.segment_bytes(tiered._segments[0])
                        if tiered.num_segments else 1
                    )
                    tiered.storage.budget_bytes = (
                        None if arg == 0 else arg * per
                    )
                    tiered.storage.enforce_budget()
                elif op == "query" and seen_rows:
                    q = make_records(1, seed=seed)[0][0].astype(np.float64)
                    assert_identical(
                        tiered.statistical_query(q, alpha=0.8),
                        plain.statistical_query(q, alpha=0.8),
                    )
                    assert_identical(
                        tiered.range_query(q, 40.0),
                        plain.range_query(q, 40.0),
                    )
            # Always finish with a query barrage over both engines.
            queries = make_records(6, seed=99)[0].astype(np.float64)
            for q in queries:
                assert_identical(
                    tiered.statistical_query(q, alpha=0.8),
                    plain.statistical_query(q, alpha=0.8),
                )
        finally:
            tiered.close()
            plain.close()

    @pytest.mark.parametrize("prefilter", ["auto", "off"])
    def test_batched_engine_matches_untiered(self, tmp_path, prefilter):
        tiered, plain, backend = make_pair(tmp_path)
        backend.latency_s = 0.002
        for i in range(3):
            batch = make_records(300, seed=i)
            tiered.add(*batch)
            plain.add(*batch)
            tiered.flush()
            plain.flush()
        tiered.storage.demote(tiered._segments[0])
        tiered.storage.demote(tiered._segments[2])
        queries = make_records(24, seed=7)[0].astype(np.float64)
        options = QueryOptions(alpha=0.8, prefilter=prefilter)
        te = BatchQueryExecutor(tiered, options=options)
        pe = BatchQueryExecutor(plain, options=options)
        for rt, rp in zip(te.query_all(queries), pe.query_all(queries)):
            assert_identical(rt, rp)
        assert te.stats.cold_segments > 0
        assert te.stats.cold_bytes > 0
        tiered.close()
        plain.close()


class TestCallingThread:
    def test_cold_scan_starts_no_thread(self, tmp_path):
        tiered, plain, backend = make_pair(tmp_path)
        plain.close()
        for i in range(2):
            tiered.add(*make_records(300, seed=i))
            tiered.flush()
        tiered.storage.demote(tiered._segments[0])
        queries = make_records(300, seed=0)[0][:8].astype(np.float64)
        before = set(threading.enumerate())
        _, stats = query_batch(tiered, queries, 0.8)
        assert stats.cold_segments == 1 and backend.range_gets == 1
        after = set(threading.enumerate())
        assert after == before
        assert not any(t.name.startswith("repro-prefetch") for t in after)
        tiered.close()


query_strategy = st.one_of(
    st.tuples(st.just("solo"), st.integers(0, 9), st.just(1)),
    st.tuples(st.just("batch"), st.integers(0, 9), st.integers(1, 12)),
    st.tuples(st.just("engine"), st.integers(0, 9), st.integers(1, 12)),
    st.tuples(st.just("range"), st.integers(0, 9), st.integers(0, 60)),
    st.tuples(st.just("window"), st.integers(0, 9), st.integers(0, 60)),
)


class TestQueriesNeverMove:
    @given(
        sizes=st.lists(st.integers(40, 160), min_size=1, max_size=5),
        budget_share=st.floats(0.0, 1.2),
        mmap=st.booleans(),
        unsealed=st.integers(0, 50),
        queries=st.lists(query_strategy, min_size=1, max_size=8),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_queries_change_no_tier_manifest_or_blob(
        self, tmp_path_factory, sizes, budget_share, mmap, unsealed, queries
    ):
        directory = tmp_path_factory.mktemp("still") / "idx"
        backend = FakeBlobBackend()
        budget = int(budget_share * sum(sizes) * row_bytes(NDIMS))
        storage = StorageConfig(budget_bytes=budget, backend=backend)
        kwargs = dict(flush_rows=10 ** 9, auto_compact=False)
        index = SegmentedS3Index.create(
            directory, ndims=NDIMS, model=NormalDistortionModel(NDIMS, SIGMA),
            storage=storage, **kwargs,
        )
        for seed, rows in enumerate(sizes):
            index.add(*make_records(rows, seed=seed))
            index.flush()
        if mmap:  # resident segments come back warm
            index.close()
            index = SegmentedS3Index.open(
                directory, mmap=True, storage=storage, **kwargs
            )
        if unsealed:
            index.add(*make_records(unsealed, seed=len(sizes)))
        try:
            tiers = [(s.meta.name, s.meta.tier) for s in index._segments]
            assert index.storage.resident_bytes() <= budget
            segments = index._segments
            manifest = (directory / "MANIFEST.json").read_bytes()
            puts, gets = backend.puts, backend.gets
            engine = BatchQueryExecutor(index, options=QueryOptions(alpha=0.8))
            for kind, seed, arg in queries:
                rows = arg if kind in ("batch", "engine") else 1
                q = make_records(rows, seed=seed)[0].astype(np.float64)
                if kind == "solo":
                    index.statistical_query(q[0], alpha=0.8)
                elif kind == "batch":
                    index.statistical_query_batch(q, alpha=0.8)
                elif kind == "engine":
                    engine.query_batch(q)
                elif kind == "range":
                    index.range_query(q[0], float(arg))
                else:
                    index.window_query(q[0] - arg, q[0] + arg)
            assert [(s.meta.name, s.meta.tier) for s in index._segments] \
                == tiers
            assert all(a is b for a, b in zip(index._segments, segments))
            assert (directory / "MANIFEST.json").read_bytes() == manifest
            assert (backend.puts, backend.gets) == (puts, gets)
            assert index.storage.stats.full_fetches == 0
        finally:
            index.close()


CRASH_SCRIPT = r"""
import os, signal, sys
import numpy as np
sys.path.insert(0, {src!r})
from repro.distortion.model import NormalDistortionModel
from repro.index.segmented import SegmentedS3Index
from repro.storage import StorageConfig

sys.path.insert(0, {here!r})
from test_tiered import make_records, NDIMS, SIGMA

directory = {directory!r}
index = SegmentedS3Index.create(
    directory, ndims=NDIMS, model=NormalDistortionModel(NDIMS, SIGMA),
    flush_rows=10 ** 9, auto_compact=False,
    storage=StorageConfig(cold_dir="cold"),
)
for i in range(2):
    index.add(*make_records(150, seed=i))
    index.flush()
index.close()

# Reopen mmapped: the two sealed segments come back *warm*.
index = SegmentedS3Index.open(directory, mmap=True)
index.add(*make_records(150, seed=2))
index.flush()                                   # third segment: hot
index.storage.demote(index._segments[0])        # first segment: cold
tiers = sorted(s.meta.tier for s in index._segments)
assert tiers == ["cold", "hot", "warm"], tiers
index.add(*make_records(40, seed=3))            # WAL only, never flushed
print("READY", flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestCrashRecovery:
    def test_kill9_with_segments_in_all_tiers(self, tmp_path):
        directory = tmp_path / "idx"
        script = CRASH_SCRIPT.format(
            src=str(Path(__file__).resolve().parents[2] / "src"),
            here=str(Path(__file__).resolve().parent),
            directory=str(directory),
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        # SIGKILL after READY: the process never exits cleanly.
        assert "READY" in proc.stdout, proc.stderr
        assert proc.returncode == -signal.SIGKILL

        reopened = SegmentedS3Index.open(directory)
        assert reopened.num_segments == 3
        assert reopened.pending_rows == 40  # WAL replayed
        assert len(reopened) == 3 * 150 + 40
        tiers = sorted(s.meta.tier for s in reopened._segments)
        assert tiers.count("cold") == 1

        # Every tier's rows are reachable: exact-match range queries
        # from each flushed batch and from the unflushed tail.
        for seed in range(4):
            fp = make_records(150 if seed < 3 else 40, seed=seed)[0]
            for row in (0, 5):
                result = reopened.range_query(
                    fp[row].astype(np.float64), 0.0
                )
                assert len(result) >= 1
        reopened.close()

    def test_crashed_demotion_leaves_usable_directory(self, tmp_path):
        """A blob uploaded but tier never flipped: segment stays
        resident on reopen and the stray blob is GC'd as an orphan
        only when unreferenced."""
        directory = tmp_path / "idx"
        index = SegmentedS3Index.create(
            directory, ndims=NDIMS,
            model=NormalDistortionModel(NDIMS, SIGMA),
            flush_rows=10 ** 9, auto_compact=False,
            storage=StorageConfig(cold_dir="cold"),
        )
        index.add(*make_records(100, seed=0))
        index.flush()
        name = index._segments[0].meta.name
        # Crash simulation: the blob was uploaded, the manifest never
        # flipped the tier (demote crashed between the two steps).
        index.storage.backend.put(name, b"half-finished upload bytes")
        index.close()

        reopened = SegmentedS3Index.open(directory)
        seg = reopened._segments[0]
        assert seg.resident and seg.meta.tier != "cold"
        # The stale blob is still referenced by a manifest segment name,
        # so the conservative GC keeps it; a real demotion overwrites it.
        result = reopened.range_query(
            make_records(100, seed=0)[0][3].astype(np.float64), 0.0
        )
        assert len(result) >= 1
        reopened.close()

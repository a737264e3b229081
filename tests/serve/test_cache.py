"""Serve-path cache semantics: LRU, tokens, dedupe, bit-identity.

The system invariant under test: with every cache layer on, each served
answer is **bit-identical** to a cold solo ``statistical_query`` against
the index state at serve time — across LRU hits, in-flight follower
shares and ingest invalidation.  Hypothesis
drives random interleavings of queries and ingests through a cached
micro-batcher over a live segmented index.
"""

import asyncio
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel
from repro.errors import ConfigurationError
from repro.index.batch import BatchQueryExecutor
from repro.index.options import QueryOptions
from repro.index.s3 import S3Index
from repro.index.segmented import SegmentedS3Index
from repro.index.store import FingerprintStore
from repro.serve import ServeConfig
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import (
    CacheStats,
    ServeCache,
    index_cache_token,
)

NDIMS = 8
ALPHA = 0.8
SIGMA = 10.0


def make_store(n, seed=0):
    rng = np.random.default_rng(seed)
    fp = rng.integers(0, 256, size=(n, NDIMS)).astype(np.uint8)
    return FingerprintStore(
        fp, rng.integers(0, 5, n).astype(np.uint32), rng.uniform(0, 100, n)
    )


@pytest.fixture(scope="module")
def index():
    return S3Index(
        make_store(600), model=NormalDistortionModel(NDIMS, SIGMA)
    )


def run(coro):
    return asyncio.run(coro)


def solo(index, fingerprint):
    return index.statistical_query(fingerprint, ALPHA)


def assert_same(result, expected):
    assert np.array_equal(result.rows, expected.rows)
    assert np.array_equal(result.ids, expected.ids)
    assert np.array_equal(result.timecodes, expected.timecodes)
    assert np.array_equal(result.fingerprints, expected.fingerprints)


# ----------------------------------------------------------------------
class TestResultLRU:
    def test_lru_evicts_oldest(self):
        cache = ServeCache(capacity=2, token=None)
        cache.put("a", 1, None)
        cache.put("b", 2, None)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3, None)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_counters(self):
        cache = ServeCache(capacity=4, token=None)
        assert cache.get("missing") is None
        cache.put("k", "v", None)
        assert cache.get("k") == "v"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_put_with_stale_token_is_dropped(self):
        cache = ServeCache(capacity=4, token=("gen", 2))
        cache.put("k", "v", ("gen", 1))  # computed before a mutation
        assert len(cache) == 0
        assert cache.stats.stale_drops == 1
        cache.put("k", "v", ("gen", 2))
        assert cache.get("k") == "v"

    def test_invalidate_clears_and_adopts_token(self):
        cache = ServeCache(capacity=4, token=("gen", 1))
        cache.put("k", "v", ("gen", 1))
        cache.invalidate(("gen", 2))
        assert len(cache) == 0
        assert cache.token == ("gen", 2)
        assert cache.stats.invalidations == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            ServeCache(capacity=0)


class TestIndexCacheToken:
    def test_monolithic_token_reflects_model_and_rows(self, index):
        token = index_cache_token(index)
        assert token == index_cache_token(index)  # stable
        other = S3Index(
            make_store(600), model=NormalDistortionModel(NDIMS, 2 * SIGMA)
        )
        assert index_cache_token(other) != token

    def test_segmented_token_changes_on_ingest(self, tmp_path):
        store = make_store(200, seed=1)
        with SegmentedS3Index.create(
            tmp_path / "seg", ndims=NDIMS,
            model=NormalDistortionModel(NDIMS, SIGMA),
        ) as seg:
            seg.add(store.fingerprints, store.ids, store.timecodes)
            before = index_cache_token(seg)
            extra = make_store(50, seed=2)
            seg.add(extra.fingerprints, extra.ids, extra.timecodes)
            after = index_cache_token(seg)
            assert before != after
            seg.flush()
            assert index_cache_token(seg) != after


class TestServeCache:
    def test_result_key_uses_bytes_not_identity(self):
        fp = np.arange(NDIMS, dtype=np.float64)
        key1 = ServeCache.result_key(fp, ALPHA, 10)
        key2 = ServeCache.result_key(fp.copy(), ALPHA, 10)
        assert key1 == key2
        assert ServeCache.result_key(fp, ALPHA, 11) != key1
        # Non-contiguous views key by their logical content.
        wide = np.zeros((2, 2 * NDIMS))
        wide[0, ::2] = fp
        assert ServeCache.result_key(wide[0, ::2], ALPHA, 10) == key1

    def test_inflight_cleanup(self):
        async def scenario():
            cache = ServeCache(token=None)
            fut = asyncio.get_running_loop().create_future()
            cache.register_inflight("k", fut)
            assert cache.leader("k") is fut
            fut.set_result("done")
            await asyncio.sleep(0)  # run the done callback
            assert cache.leader("k") is None
            assert "k" not in cache.inflight

        run(scenario())

    def test_invalidate_clears_everything(self):
        cache = ServeCache(token=("t", 1))
        cache.put("k", "v", ("t", 1))
        cache.invalidate(("t", 2))
        assert len(cache) == 0
        assert cache.token == ("t", 2)

    def test_snapshot_shape(self):
        snap = ServeCache(token=None).snapshot()
        for key in ("enabled", "hits", "misses", "hit_rate", "entries",
                    "capacity", "inflight"):
            assert key in snap

    def test_stats_shared_with_results(self):
        """The LRU counts into the one ``stats`` block the snapshot
        reports."""
        stats = CacheStats()
        cache = ServeCache(token=None)
        cache.get("k")
        cache.put("k", "v", None)
        assert cache.get("k") == "v"
        snap = cache.snapshot()
        assert (snap["hits"], snap["misses"], snap["stores"]) == (1, 1, 1)
        assert stats.hit_rate == 0.0  # empty stays total


# ----------------------------------------------------------------------
def make_cached_batcher(index, engine, **config):
    executor = BatchQueryExecutor(index, options=QueryOptions(
        alpha=ALPHA, batch_size=config.get("max_batch", 32)
    ))
    cache = ServeCache(token=index_cache_token(index))
    batcher = MicroBatcher(
        executor, engine, ServeConfig(**config), cache=cache
    )
    return batcher, cache


class TestCachedBatcher:
    def test_repeat_query_served_from_cache(self, index):
        query = index.store.fingerprints[0].astype(np.float64)

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as engine:
                batcher, cache = make_cached_batcher(index, engine)
                batcher.start()
                (first,) = await batcher.submit_many(query)
                (second,) = await batcher.submit_many(query)
                await batcher.drain_and_stop()
                return first, second, cache, batcher.stats

        first, second, cache, stats = run(scenario())
        assert cache.stats.hits >= 1
        assert stats.batches == 1  # the repeat never reached the engine
        expected = solo(index, query)
        assert_same(first, expected)
        assert_same(second, expected)

    def test_concurrent_identical_queries_execute_once(self, index):
        query = index.store.fingerprints[1].astype(np.float64)

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as engine:
                batcher, cache = make_cached_batcher(
                    index, engine, max_batch=8, max_wait_ms=50.0
                )
                batcher.start()
                tasks = [
                    asyncio.ensure_future(batcher.submit_many(query))
                    for _ in range(4)
                ]
                nested = await asyncio.gather(*tasks)
                await batcher.drain_and_stop()
                return nested, cache, batcher.stats

        nested, cache, stats = run(scenario())
        assert cache.stats.inflight_deduped >= 1
        assert stats.batches == 1
        expected = solo(index, query)
        for (result,) in nested:
            assert_same(result, expected)

    def test_duplicates_inside_one_request_dedupe(self, index):
        query = index.store.fingerprints[2].astype(np.float64)
        batch = np.stack([query, query, query])

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as engine:
                batcher, cache = make_cached_batcher(index, engine)
                batcher.start()
                results = await batcher.submit_many(batch)
                await batcher.drain_and_stop()
                return results, cache

        results, cache = run(scenario())
        assert cache.stats.inflight_deduped >= 2
        expected = solo(index, query)
        for result in results:
            assert_same(result, expected)

    def test_cache_off_unaffected(self, index):
        # The uncached construction (no cache kwarg) still works and
        # never touches a cache.
        query = index.store.fingerprints[3].astype(np.float64)

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as engine:
                executor = BatchQueryExecutor(index, ALPHA)
                batcher = MicroBatcher(executor, engine, ServeConfig())
                batcher.start()
                (first,) = await batcher.submit_many(query)
                (second,) = await batcher.submit_many(query)
                await batcher.drain_and_stop()
                return first, second, batcher.stats

        first, second, stats = run(scenario())
        assert stats.batches == 2
        assert_same(first, solo(index, query))
        assert_same(second, solo(index, query))


# ----------------------------------------------------------------------
class TestIngestInvalidation:
    @settings(deadline=None, max_examples=10)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("query"), st.integers(0, 15)),
                st.tuples(st.just("ingest"), st.integers(1, 40)),
            ),
            min_size=2, max_size=10,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identity_across_invalidation(self, ops, seed):
        """Cached answers always match the index state at serve time.

        Random interleavings of repeat-heavy queries and ingests run
        through a cached micro-batcher over a live segmented index;
        after every ingest the cache is invalidated exactly the way the
        server does it.  Every served result must equal a cold solo
        query against the index as it stood when the result was served.
        """
        rng = np.random.default_rng(seed)
        base = make_store(120, seed=seed)
        pool = np.clip(
            base.fingerprints[:16].astype(np.float64)
            + rng.normal(0, 2, (16, NDIMS)),
            0, 255,
        )

        async def scenario(seg):
            with ThreadPoolExecutor(max_workers=1) as engine:
                batcher, cache = make_cached_batcher(
                    seg, engine, max_batch=8, max_wait_ms=0.0
                )
                batcher.start()
                for op, arg in ops:
                    if op == "ingest":
                        extra = make_store(arg, seed=arg)
                        seg.add(
                            extra.fingerprints, extra.ids, extra.timecodes
                        )
                        cache.invalidate(index_cache_token(seg))
                        continue
                    (result,) = await batcher.submit_many(pool[arg])
                    expected = solo(seg, pool[arg])
                    assert_same(result, expected)
                await batcher.drain_and_stop()

        with tempfile.TemporaryDirectory() as tmp:
            with SegmentedS3Index.create(
                f"{tmp}/seg", ndims=NDIMS,
                model=NormalDistortionModel(NDIMS, SIGMA),
                flush_rows=64,
            ) as seg:
                seg.add(base.fingerprints, base.ids, base.timecodes)
                run(scenario(seg))

"""Micro-batcher semantics: sharing, admission, deadlines, drain."""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.errors import ConfigurationError
from repro.index.batch import BatchQueryExecutor
from repro.index.options import QueryOptions
from repro.index.s3 import S3Index
from repro.index.store import FingerprintStore
from repro.serve import ServeConfig
from repro.serve.batcher import (
    DeadlineExceeded,
    MicroBatcher,
    ServiceClosed,
    ServiceOverloaded,
)

NDIMS = 8
ALPHA = 0.8


@pytest.fixture(scope="module")
def index():
    rng = np.random.default_rng(0)
    fp = rng.integers(0, 256, size=(600, NDIMS)).astype(np.uint8)
    store = FingerprintStore(
        fp, rng.integers(0, 5, 600).astype(np.uint32),
        rng.uniform(0, 100, 600),
    )
    return S3Index(store, model=NormalDistortionModel(NDIMS, 10.0))


def make_batcher(index, engine, **config):
    executor = BatchQueryExecutor(index, options=QueryOptions(
        alpha=ALPHA, batch_size=config.get("max_batch", 32)
    ))
    return MicroBatcher(executor, engine, ServeConfig(**config))


def run(coro):
    return asyncio.run(coro)


def solo(index, fingerprint):
    return index.statistical_query(fingerprint, ALPHA)


class TestBatching:
    def test_concurrent_submissions_share_batches(self, index):
        queries = index.store.fingerprints[:12].astype(np.float64)

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as engine:
                batcher = make_batcher(
                    index, engine, max_batch=64, max_wait_ms=100.0
                )
                batcher.start()
                tasks = [
                    asyncio.ensure_future(
                        batcher.submit_many(queries[i:i + 2])
                    )
                    for i in range(0, 12, 2)
                ]
                nested = await asyncio.gather(*tasks)
                await batcher.drain_and_stop()
                return [r for pair in nested for r in pair], batcher.stats

        results, stats = run(scenario())
        assert stats.queries == 12
        # All six submissions landed inside one 100 ms window.
        assert stats.batches < 6
        assert stats.mean_fill > 1.0
        for i, result in enumerate(results):
            expected = solo(index, queries[i])
            assert np.array_equal(result.rows, expected.rows)
            assert np.array_equal(result.ids, expected.ids)
            assert np.array_equal(result.timecodes, expected.timecodes)
            assert np.array_equal(
                result.fingerprints, expected.fingerprints
            )

    def test_zero_wait_still_answers(self, index):
        query = index.store.fingerprints[0].astype(np.float64)

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as engine:
                batcher = make_batcher(
                    index, engine, max_batch=8, max_wait_ms=0.0
                )
                batcher.start()
                results = await batcher.submit_many(query)
                await batcher.drain_and_stop()
                return results

        (result,) = run(scenario())
        expected = solo(index, query)
        assert np.array_equal(result.rows, expected.rows)


class TestAdmission:
    def test_overflow_is_shed_all_or_nothing(self, index):
        queries = index.store.fingerprints[:3].astype(np.float64)

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as engine:
                batcher = make_batcher(index, engine, queue_limit=2)
                batcher.start()
                with pytest.raises(ServiceOverloaded):
                    await batcher.submit_many(queries)
                shed = batcher.stats.shed
                await batcher.drain_and_stop()
                return shed, batcher.stats.queries

        shed, queries_run = run(scenario())
        assert shed == 3
        assert queries_run == 0  # nothing was partially admitted

    def test_closed_rejects(self, index):
        query = index.store.fingerprints[0].astype(np.float64)

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as engine:
                batcher = make_batcher(index, engine)
                batcher.start()
                await batcher.drain_and_stop()
                with pytest.raises(ServiceClosed):
                    await batcher.submit_many(query)

        run(scenario())


class TestDeadlines:
    def test_expired_while_queued(self, index):
        query = index.store.fingerprints[0].astype(np.float64)

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as engine:
                batcher = make_batcher(
                    index, engine, max_batch=8, max_wait_ms=30.0
                )
                batcher.start()
                deadline = asyncio.get_running_loop().time() + 1e-4
                with pytest.raises(DeadlineExceeded):
                    await batcher.submit_many(query, deadline=deadline)
                expired = batcher.stats.expired
                await batcher.drain_and_stop()
                return expired

        assert run(scenario()) == 1


class TestDrain:
    def test_drain_runs_queued_items(self, index):
        queries = index.store.fingerprints[:5].astype(np.float64)

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as engine:
                # A long window: without the stop sentinel the first
                # batch would sit collecting for 5 s.
                batcher = make_batcher(
                    index, engine, max_batch=2, max_wait_ms=5000.0
                )
                batcher.start()
                task = asyncio.ensure_future(batcher.submit_many(queries))
                await asyncio.sleep(0)  # let the task enqueue
                t0 = asyncio.get_running_loop().time()
                await batcher.drain_and_stop()
                elapsed = asyncio.get_running_loop().time() - t0
                return await task, elapsed, batcher.stats

        results, elapsed, stats = run(scenario())
        assert len(results) == 5
        assert stats.queries == 5
        assert elapsed < 2.0  # drained, not waited out
        for i, result in enumerate(results):
            expected = solo(index, queries[i])
            assert np.array_equal(result.rows, expected.rows)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError, match="max_batch"):
            ServeConfig(max_batch=0)
        with pytest.raises(ConfigurationError, match="max_wait_ms"):
            ServeConfig(max_wait_ms=-1.0)
        with pytest.raises(ConfigurationError, match="queue_limit"):
            ServeConfig(queue_limit=-1)

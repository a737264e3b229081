"""A ``query`` that carries its blocks: scanned, never selected or cached.

A cluster router ships each query's selected blocks with it
(``blocks = {prefixes, counts, depth}``), and the server scans them
instead of selecting.  Held here:

* every malformed ``blocks`` — another depth, counts misaligned with the
  fingerprints, negative or not summing to the prefixes, a prefix
  outside ``[0, 2**depth)``, prefixes that do not strictly ascend within
  a query — is refused with ``bad_request``, as a blob and as a list;
* a well-formed but wrong block set sent for fingerprint f never touches
  the result cache or the in-flight dedupe: a plain query for f
  afterwards equals a cold solo ``statistical_query``, and a cached
  answer for f never answers a shipped query;
* a batch mixing shipped and unshipped items equals the all-unshipped
  batch bit for bit, on both index kinds, and ``stats.batcher.shipped``
  counts the shipped items.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.distortion.model import NormalDistortionModel
from repro.index.batch import BatchQueryExecutor
from repro.index.filtering import statistical_blocks_multi
from repro.index.options import QueryOptions
from repro.index.s3 import S3Index
from repro.index.segmented import SegmentedS3Index
from repro.serve import ServeClient, ServeConfig, ServerThread, WireResult
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ServeCache, index_cache_token

from .test_wire_v4 import ENCODINGS, NDIMS, as_lists, assert_refused, make_store

ALPHA = 0.8
SIGMA = 5.0


def _model():
    return NormalDistortionModel(NDIMS, SIGMA)


@pytest.fixture(scope="module")
def store():
    return make_store(n=400, seed=4)


@pytest.fixture(scope="module")
def oracle(store):
    """An index of its own for the expected answers."""
    return S3Index(store, model=_model())


@pytest.fixture
def served(store):
    with ServerThread(
        S3Index(store, model=_model()), ServeConfig(port=0, alpha=ALPHA)
    ) as server, ServeClient(port=server.port) as client:
        yield client


def selections(index, queries):
    """The cold selection a server's engine makes for *queries*."""
    return statistical_blocks_multi(
        queries, index.model, index.curve, index.depth, ALPHA
    )


def wire_blocks(batch) -> dict:
    return {
        "prefixes": batch.prefixes.astype(np.int64),
        "counts": batch.counts,
        "depth": batch.depth,
    }


def solo(index, query):
    return index.statistical_query(query, ALPHA)


def assert_same(got, want):
    """Equal columns; timecodes to the bit (a wire result's integer
    columns may be wider than the engine's)."""
    for name in ("rows", "ids", "fingerprints"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.timecodes.tobytes() == want.timecodes.tobytes()


def _two_queries(store):
    """One query twice: the second's first prefix lies below the first's
    last, which the ascent check must allow across queries."""
    query = store.fingerprints[5].astype(np.float64)
    return np.stack([query, query])


class TestRefusals:
    def test_malformed_blocks_refused(self, served, oracle, store):
        queries = _two_queries(store)
        good = wire_blocks(selections(oracle, queries))
        prefixes, counts, depth = (
            good["prefixes"], good["counts"], good["depth"]
        )
        assert counts[0] >= 2, "the cases below need two blocks"
        swapped = prefixes.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        repeated = prefixes.copy()
        repeated[1] = repeated[0]
        high = prefixes.copy()
        high[-1] = 2**depth
        low = prefixes.copy()
        low[0] = -1
        bad = [
            {**good, "depth": depth + 1},
            {**good, "depth": depth - 1},
            {**good, "depth": str(depth)},
            {"prefixes": prefixes, "counts": counts},
            {**good, "extra": 1},
            {**good, "counts": counts[:1]},
            {**good, "counts": np.append(counts, 0)},
            {**good, "counts": np.array([-1, counts.sum() + 1])},
            {**good, "counts": counts + np.array([0, 1])},
            {**good, "counts": counts - np.array([0, 1])},
            {**good, "prefixes": high},
            {**good, "prefixes": low},
            {**good, "prefixes": swapped},
            {**good, "prefixes": repeated},
            {**good, "prefixes": prefixes.astype(np.float64)},
            {**good, "prefixes": prefixes.reshape(1, -1)},
        ]
        for encode in ENCODINGS:
            for blocks in bad:
                blocks = {
                    key: encode(value) if isinstance(value, np.ndarray)
                    else value
                    for key, value in blocks.items()
                }
                assert_refused(served, {
                    "op": "query", "fingerprints": queries, "blocks": blocks,
                })
        assert_refused(served, {
            "op": "query", "fingerprints": queries, "blocks": None,
        })
        # The well-formed set answers, in both encodings, as a plain query.
        plain = served.query(queries, include_fingerprints=True)
        for encode in (dict, as_lists):
            reply = served._request({
                "op": "query", "fingerprints": queries,
                "include_fingerprints": True, "blocks": encode(good),
            })
            for got, want in zip(reply["results"], plain, strict=True):
                assert_same(WireResult.from_wire(got), want)


class TestCacheIsolation:
    def test_wrong_blocks_never_touch_the_result_cache(
        self, served, oracle, store
    ):
        f = store.fingerprints[10].astype(np.float64)
        g = store.fingerprints[int(np.argmax(
            np.abs(store.fingerprints.astype(np.int64) - f).sum(axis=1)
        ))].astype(np.float64)
        wrong = wire_blocks(selections(oracle, g[None, :]))
        expected_f, expected_g = solo(oracle, f), solo(oracle, g)
        assert expected_f.rows.tobytes() != expected_g.rows.tobytes()

        def shipped():
            (wire,) = served._request({
                "op": "query", "fingerprints": f[None, :],
                "include_fingerprints": True, "blocks": wrong,
            })["results"]
            return WireResult.from_wire(wire)

        before = served.stats()["cache"]
        # f with g's blocks answers g's rows, and caches nothing.
        assert_same(shipped(), expected_g)
        after = served.stats()["cache"]
        assert after["entries"] == before["entries"]
        assert after["stores"] == before["stores"]
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]
        # A plain query for f is f's cold solo answer, and is cached...
        (plain,) = served.query(f, include_fingerprints=True)
        assert_same(plain, expected_f)
        assert served.stats()["cache"]["entries"] == before["entries"] + 1
        # ...but a cached f never answers a shipped one.
        assert_same(shipped(), expected_g)
        (again,) = served.query(f, include_fingerprints=True)
        assert_same(again, expected_f)

    def test_shipped_items_neither_lead_nor_follow(self, oracle, store):
        """A plain f and a shipped f in one batch window run apart."""
        index = S3Index(store, model=_model())
        f = store.fingerprints[20].astype(np.float64)
        g = store.fingerprints[300].astype(np.float64)
        wrong = selections(oracle, g[None, :])

        async def scenario():
            with ThreadPoolExecutor(max_workers=1) as engine:
                executor = BatchQueryExecutor(
                    index, options=QueryOptions(alpha=ALPHA)
                )
                cache = ServeCache(token=index_cache_token(index))
                batcher = MicroBatcher(
                    executor, engine,
                    ServeConfig(max_batch=8, max_wait_ms=50.0),
                    cache=cache,
                )
                batcher.start()
                nested = await asyncio.gather(
                    batcher.submit_many(f),
                    batcher.submit_many(f, blocks=wrong),
                    batcher.submit_many(f),
                )
                await batcher.drain_and_stop()
                return nested, cache, batcher.stats

        ((lead,), (ship,), (follow,)), cache, stats = asyncio.run(scenario())
        assert stats.batches == 1
        assert stats.shipped == 1
        assert cache.stats.inflight_deduped == 1  # the second plain f
        assert_same(lead, solo(oracle, f))
        assert_same(follow, solo(oracle, f))
        assert_same(ship, solo(oracle, g))


@pytest.fixture(scope="module")
def segmented(tmp_path_factory, store):
    """Two sealed segments and rows still in the memtable."""
    index = SegmentedS3Index.create(
        tmp_path_factory.mktemp("shipped") / "live", ndims=NDIMS,
        model=_model(), auto_compact=False,
    )
    for part in np.array_split(np.arange(len(store)), 3)[:2]:
        index.add(
            store.fingerprints[part], store.ids[part], store.timecodes[part]
        )
        index.flush()
    rest = np.arange(len(store))[len(store) * 2 // 3:]
    index.add(store.fingerprints[rest], store.ids[rest], store.timecodes[rest])
    yield index
    index.close()


class TestMixedBatches:
    @pytest.mark.parametrize("kind", ["monolithic", "segmented"])
    @pytest.mark.parametrize(
        "shipped", [(), (0,), (1, 4, 5), (0, 2, 3, 6), tuple(range(7))]
    )
    def test_mixed_batch_equals_unshipped(
        self, kind, shipped, store, oracle, segmented
    ):
        index = S3Index(store, model=_model()) if kind == "monolithic" \
            else segmented
        rng = np.random.default_rng(len(shipped))
        queries = store.fingerprints[rng.integers(0, len(store), 7)].astype(
            np.float64
        ) + rng.normal(0.0, 2.0, (7, NDIMS))
        chosen = selections(index, queries)
        blocks = [chosen[i].prefixes if i in shipped else None
                  for i in range(7)]
        executor = BatchQueryExecutor(index, options=QueryOptions(alpha=ALPHA))
        want = executor.query_batch(queries)
        got = executor.query_batch(queries, blocks)
        assert any(len(r) for r in want)
        for g, w in zip(got, want, strict=True):
            assert_same(g, w)

    def test_stats_count_shipped_queries(self, served, oracle, store):
        queries = store.fingerprints[30:33].astype(np.float64)
        served.query(queries)
        assert served.stats()["batcher"]["shipped"] == 0
        served._request({
            "op": "query", "fingerprints": queries,
            "blocks": wire_blocks(selections(oracle, queries)),
        })
        batcher = served.stats()["batcher"]
        assert batcher["shipped"] == 3
        assert batcher["queries"] == 6

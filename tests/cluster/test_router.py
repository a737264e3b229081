"""Router acceptance: bit-identity to a single node, failover, ingest.

The headline property, hypothesis-driven: for any query batch, the
results a :class:`~repro.cluster.router.ClusterRouter` merges from its
shards are **bit-identical** — rows, ids, timecodes, fingerprint bytes —
to the same batch against one server over the unsharded index, at shard
counts 1, 2 and 5, and still when a replica is SIGKILL-equivalently
dropped mid-batch (thread mode: abrupt stop + failover to the second
replica).  In process mode a real SIGKILL must also be healed: the
supervisor respawns the replica, which answers ``health`` again.
"""

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterManifest,
    ClusterRouter,
    ClusterSupervisor,
    RouterConfig,
    plan_cluster,
)
from repro.distortion.model import NormalDistortionModel
from repro.errors import ReproError
from repro.index.segmented import SegmentedS3Index
from repro.cluster import router as router_module
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerError,
    ServerThread,
    ServiceThread,
    protocol,
)

from ..serve.test_wire_v4 import (
    as_lists,
    assert_health_answers_during_vote,
    assert_request_encodings_agree,
    assert_unusable_deadlines_refused,
    assert_unusable_thresholds_refused,
    slow_vote,
)

NDIMS = 8
SIGMA = 10.0
ALPHA = 0.8
NUM_SEGMENTS = 5
ROWS_PER_SEGMENT = 360
TOTAL_ROWS = NUM_SEGMENTS * ROWS_PER_SEGMENT
SHARD_COUNTS = (1, 2, 5)


def _make_fingerprints(rows, seed=3):
    # Clustered around a few centres so statistical queries actually
    # match rows (uniform noise would make every result empty).
    rng = np.random.default_rng(seed)
    centers = rng.integers(40, 216, size=(10, NDIMS))
    assign = rng.integers(0, 10, size=rows)
    fp = np.clip(
        centers[assign] + rng.normal(0, 8, (rows, NDIMS)), 0, 255
    ).astype(np.uint8)
    ids = rng.integers(0, 7, size=rows).astype(np.uint32)
    tcs = rng.uniform(0, 100, rows)
    return fp, ids, tcs


@pytest.fixture(scope="module")
def corpus():
    return _make_fingerprints(TOTAL_ROWS)


@pytest.fixture(scope="module")
def source(tmp_path_factory, corpus):
    directory = tmp_path_factory.mktemp("router") / "src"
    fp, ids, tcs = corpus
    index = SegmentedS3Index.create(
        directory,
        ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=ROWS_PER_SEGMENT,
        auto_compact=False,
    )
    for start in range(0, TOTAL_ROWS, ROWS_PER_SEGMENT):
        end = start + ROWS_PER_SEGMENT
        index.add(fp[start:end], ids[start:end], tcs[start:end])
    index.flush()
    index.close()
    return directory


@pytest.fixture(scope="module")
def single_node(source):
    """The baseline: one server over the unsharded index."""
    index = SegmentedS3Index.open(source, auto_compact=False, mmap=True)
    with ServerThread(index, ServeConfig(port=0, alpha=ALPHA)) as thread:
        with ServeClient(port=thread.port, timeout=30.0) as client:
            yield client


@pytest.fixture(scope="module", params=SHARD_COUNTS)
def routed(request, tmp_path_factory, source):
    """A running cluster (thread mode) at each shard count."""
    num_shards = request.param
    cluster_dir = tmp_path_factory.mktemp(f"shards{num_shards}") / "c"
    plan_cluster(source, cluster_dir, num_shards=num_shards)
    supervisor = ClusterSupervisor(
        cluster_dir,
        mode="thread",
        serve_config=ServeConfig(port=0, alpha=ALPHA),
    ).start()
    router = ClusterRouter(
        ClusterManifest.load(cluster_dir),
        supervisor.endpoints(),
        RouterConfig(port=0, alpha=ALPHA),
    )
    thread = ServiceThread(router).start()
    client = ServeClient(port=thread.port, timeout=30.0)
    yield client
    client.close()
    thread.stop()
    supervisor.stop()


def _assert_results_equal(base, got):
    assert len(base) == len(got)
    for b, g in zip(base, got):
        assert np.array_equal(b.rows, g.rows)
        assert np.array_equal(b.ids, g.ids)
        assert np.array_equal(b.timecodes, g.timecodes)
        if b.fingerprints is None:
            assert g.fingerprints is None
        else:
            assert np.array_equal(b.fingerprints, g.fingerprints)


class TestBitIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        batch=st.integers(min_value=1, max_value=6),
        jitter=st.floats(min_value=0.0, max_value=12.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_router_equals_single_node(
        self, routed, single_node, corpus, seed, batch, jitter
    ):
        fp, _, _ = corpus
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, TOTAL_ROWS, size=batch)
        queries = fp[picks].astype(np.float64)
        queries += rng.normal(0.0, jitter, queries.shape)
        base = single_node.query(queries, include_fingerprints=True)
        got = routed.query(queries, include_fingerprints=True)
        _assert_results_equal(base, got)

    def test_matches_inprocess_batch_api(
        self, routed, source, corpus
    ):
        """Wire results equal the engine's statistical_query_batch."""
        fp, _, _ = corpus
        rng = np.random.default_rng(11)
        queries = fp[rng.integers(0, TOTAL_ROWS, 8)].astype(np.float64)
        with SegmentedS3Index.open(
            source, auto_compact=False, mmap=True
        ) as index:
            expected = index.statistical_query_batch(queries, ALPHA)
        got = routed.query(queries)
        assert len(expected) == len(got)
        for e, g in zip(expected, got):
            assert np.array_equal(e.rows, g.rows)
            assert np.array_equal(e.ids, g.ids)
            assert np.array_equal(e.timecodes, g.timecodes)

    def test_repeat_equals_single_node(
        self, routed, single_node, corpus
    ):
        """A repeated batch gets the same answer as its first run."""
        fp, _, _ = corpus
        rng = np.random.default_rng(23)
        queries = fp[rng.integers(0, TOTAL_ROWS, 4)].astype(np.float64)
        base = single_node.query(queries, include_fingerprints=True)
        first = routed.query(queries, include_fingerprints=True)
        again = routed.query(queries, include_fingerprints=True)
        _assert_results_equal(base, first)
        _assert_results_equal(base, again)

    def test_detect_equals_single_node(self, routed, single_node, corpus):
        fp, _, _ = corpus
        rng = np.random.default_rng(5)
        picks = rng.integers(0, TOTAL_ROWS, 12)
        candidates = fp[picks].astype(np.float64)
        timecodes = np.arange(12, dtype=np.float64)
        base = single_node.detect(candidates, timecodes, threshold=1)
        got = routed.detect(candidates, timecodes, threshold=1)
        assert base == got

    def test_list_and_blob_requests_answer_the_same(self, routed, corpus):
        fp, _, _ = corpus
        rng = np.random.default_rng(7)
        queries = fp[rng.integers(0, TOTAL_ROWS, 6)].astype(np.float64)
        assert_request_encodings_agree(routed, queries, np.arange(6.0))

    def test_unusable_deadline_and_threshold_refused(self, routed, corpus):
        # A NaN deadline once became a 1 ms shard deadline here, and
        # failed with deadline_exceeded.
        fp, _, _ = corpus
        queries = fp[:3].astype(np.float64)
        assert_unusable_deadlines_refused(routed, queries[:1])
        assert_unusable_thresholds_refused(routed, queries, np.arange(3.0))

    def test_detect_vote_runs_off_the_event_loop(
        self, routed, corpus, monkeypatch
    ):
        fp, _, _ = corpus
        started = slow_vote(monkeypatch, router_module)

        def detect():
            with ServeClient(port=routed.port, timeout=30.0) as client:
                client.detect(fp[:6].astype(np.float64), np.arange(6.0))

        assert_health_answers_during_vote(routed.port, started, detect)

    def test_health_and_stats_shape(self, routed):
        health = routed.health()
        assert health["live"] is True
        assert health["ready"] is True
        assert health["index"]["kind"] == "cluster"
        stats = routed.stats()
        assert stats["ready"] is True
        per_shard = stats["cluster"]["per_shard"]
        assert len(per_shard) == stats["cluster"]["shards"]
        for entry in per_shard:
            assert {"fanouts", "skips", "failovers", "latency"} <= set(entry)


class TestFailover:
    @pytest.fixture()
    def replicated(self, tmp_path_factory, source):
        """2 shards x 2 replicas, healing disabled (kills stay down)."""
        cluster_dir = tmp_path_factory.mktemp("failover") / "c"
        plan_cluster(source, cluster_dir, num_shards=2, replicas=2)
        supervisor = ClusterSupervisor(
            cluster_dir,
            mode="thread",
            serve_config=ServeConfig(port=0, alpha=ALPHA),
            heal=False,
        ).start()
        router = ClusterRouter(
            ClusterManifest.load(cluster_dir),
            supervisor.endpoints(),
            RouterConfig(port=0, alpha=ALPHA),
        )
        thread = ServiceThread(router).start()
        yield supervisor, router, thread.port
        thread.stop()
        supervisor.stop()

    def test_replica_killed_mid_batch(
        self, replicated, single_node, corpus
    ):
        """Queries racing a replica kill still return identical results.

        A hammer thread streams query batches while shard 0's first
        replica is dropped; every response must be present and
        bit-identical to the single node — the router fails over to the
        surviving replica instead of surfacing the loss.
        """
        supervisor, router, port = replicated
        fp, _, _ = corpus
        rng = np.random.default_rng(23)
        queries = fp[rng.integers(0, TOTAL_ROWS, 4)].astype(np.float64)
        baseline = single_node.query(queries)

        outcomes = []
        errors = []
        stop = threading.Event()

        def hammer():
            with ServeClient(port=port, timeout=30.0, retries=8) as c:
                while not stop.is_set():
                    try:
                        outcomes.append(c.query(queries))
                    except Exception as exc:  # noqa: BLE001 - recorded
                        errors.append(repr(exc))

        worker = threading.Thread(target=hammer)
        worker.start()
        try:
            # Let a few batches through, then drop a replica mid-stream.
            time.sleep(0.3)
            supervisor.kill_replica(0, 0)
            time.sleep(1.0)
        finally:
            stop.set()
            worker.join()

        assert not errors, errors
        assert len(outcomes) >= 2
        for got in outcomes:
            _assert_results_equal(baseline, got)
        # The kill actually happened and was routed around.
        assert not supervisor._handle(0, 0).alive
        stats = self._stats(port)
        failovers = sum(
            s["failovers"] for s in stats["cluster"]["per_shard"]
        )
        assert failovers >= 1

    @staticmethod
    def _stats(port):
        with ServeClient(port=port, timeout=30.0) as client:
            return client.stats()


class TestProcessHeal:
    def test_sigkilled_replica_heals(
        self, tmp_path_factory, source, single_node, corpus
    ):
        """A SIGKILLed replica process is respawned and answers again.

        The only test with real ``repro.cli serve`` children: one shard
        of two replica processes behind the router, query clients racing
        a SIGKILL of replica 0.  Every answer must arrive and stay
        bit-identical to the single node, and the supervisor must
        restart the killed replica on its port within a bounded wait.
        """
        cluster_dir = tmp_path_factory.mktemp("heal") / "c"
        plan_cluster(source, cluster_dir, num_shards=1, replicas=2)
        fp, _, _ = corpus
        rng = np.random.default_rng(29)
        queries = fp[rng.integers(0, TOTAL_ROWS, 4)].astype(np.float64)
        baseline = single_node.query(queries)

        outcomes = []
        errors = []
        stop = threading.Event()
        healed = False

        with ClusterSupervisor(
            cluster_dir,
            mode="process",
            extra_serve_args=["--alpha", str(ALPHA)],
        ) as supervisor:
            router = ClusterRouter(
                ClusterManifest.load(cluster_dir),
                supervisor.endpoints(),
                RouterConfig(port=0, alpha=ALPHA),
            )

            def client_loop(port):
                with ServeClient(port=port, timeout=30.0, retries=8) as c:
                    while not stop.is_set():
                        try:
                            outcomes.append(c.query(queries))
                        except Exception as exc:  # noqa: BLE001
                            errors.append(repr(exc))

            with ServiceThread(router) as thread:
                clients = [
                    threading.Thread(target=client_loop, args=(thread.port,))
                    for _ in range(2)
                ]
                for t in clients:
                    t.start()
                try:
                    time.sleep(0.3)
                    handle = supervisor.kill_replica(0, 0)
                    deadline = time.monotonic() + 60.0
                    while not healed and time.monotonic() < deadline:
                        time.sleep(0.1)
                        healed = handle.restarts >= 1 and _answers_health(
                            handle.host, handle.port
                        )
                finally:
                    stop.set()
                    for t in clients:
                        t.join()
            restarts = supervisor.status()[0]["restarts"]

        assert not errors, errors
        assert len(outcomes) >= 2
        for got in outcomes:
            _assert_results_equal(baseline, got)
        assert restarts >= 1
        assert healed


def _answers_health(host, port):
    try:
        with ServeClient(host, port, timeout=5.0, retries=0) as client:
            return bool(client.health().get("ready"))
    except ReproError:
        return False


def _replica_stats(supervisor):
    """Each replica's own ``stats``, shard by shard."""
    stats = []
    for endpoints in supervisor.endpoints().values():
        for host, port in endpoints:
            with ServeClient(host, port, timeout=30.0) as replica:
                stats.append(replica.stats())
    return stats


class TestIngestRouting:
    @pytest.fixture()
    def cluster_rw(self, tmp_path_factory, source):
        cluster_dir = tmp_path_factory.mktemp("ingest") / "c"
        plan_cluster(source, cluster_dir, num_shards=2, replicas=2)
        supervisor = ClusterSupervisor(
            cluster_dir,
            mode="thread",
            serve_config=ServeConfig(port=0, alpha=ALPHA),
        ).start()
        router = ClusterRouter(
            ClusterManifest.load(cluster_dir),
            supervisor.endpoints(),
            RouterConfig(port=0, alpha=ALPHA),
        )
        thread = ServiceThread(router).start()
        client = ServeClient(port=thread.port, timeout=30.0)
        yield client, supervisor
        client.close()
        thread.stop()
        supervisor.stop()

    @pytest.fixture()
    def routed_rw(self, cluster_rw):
        return cluster_rw[0]

    def test_fanouts_count_query_scatters_only(self, cluster_rw, corpus):
        """Start-up health probes and ingest replica writes are not
        fan-outs; a query scatter is, once per shard it reaches."""
        routed, _ = cluster_rw

        def per_shard():
            return routed.stats()["cluster"]["per_shard"]

        assert [s["fanouts"] for s in per_shard()] == [0, 0]
        assert all(s["latency"]["count"] == 0 for s in per_shard())
        rng = np.random.default_rng(43)
        new = rng.integers(0, 256, size=(4, NDIMS)).astype(np.float64)
        routed.ingest(new, np.arange(4) + 700, np.zeros(4))
        assert [s["fanouts"] for s in per_shard()] == [0, 0]
        assert all(s["latency"]["count"] == 0 for s in per_shard())
        fp, _, _ = corpus
        routed.query(fp[:5].astype(np.float64))
        shards = per_shard()
        assert sum(s["fanouts"] + s["skips"] for s in shards) == 2
        assert all(s["latency"]["count"] == s["fanouts"] for s in shards)

    def test_read_after_routed_ingest_sees_the_write(
        self, cluster_rw, monkeypatch
    ):
        """A query answered while a routed ingest's writes are in flight
        may miss the new rows; once the writes are acknowledged, a query
        sees them."""
        routed, _ = cluster_rw
        writing, queried = threading.Event(), threading.Event()
        request = router_module._ShardClient.request

        async def held(self, message, deadline):
            if message["op"] == "ingest" and not writing.is_set():
                writing.set()
                while not queried.is_set():
                    await asyncio.sleep(0.01)
            return await request(self, message, deadline)

        monkeypatch.setattr(router_module._ShardClient, "request", held)
        new = np.full((1, NDIMS), 128.0)

        def ingest():
            with ServeClient(port=routed.port, timeout=30.0) as client:
                client.ingest(new, [990], [0.0])

        worker = threading.Thread(target=ingest)
        worker.start()
        try:
            assert writing.wait(10.0)
            (during,) = routed.query(new)
        finally:
            queried.set()
            worker.join()
        assert 990 not in during.ids
        (after,) = routed.query(new)
        assert 990 in after.ids

    def test_shards_scan_the_routers_blocks(self, cluster_rw, corpus):
        """Every query a shard is sent arrives with its blocks: the
        replicas' shipped count equals the queries they ran."""
        routed, supervisor = cluster_rw
        fp, _, _ = corpus
        rng = np.random.default_rng(47)
        for _ in range(3):
            picks = rng.integers(0, TOTAL_ROWS, 6)
            queries = fp[picks].astype(np.float64)
            routed.query(queries + rng.normal(0.0, 3.0, queries.shape))
        batchers = [s["batcher"] for s in _replica_stats(supervisor)]
        queries = sum(b["queries"] for b in batchers)
        assert queries >= 6
        assert sum(b["shipped"] for b in batchers) == queries

    def test_ingest_routes_dedupes_and_reads_back(self, routed_rw):
        rng = np.random.default_rng(31)
        new = rng.integers(0, 256, size=(6, NDIMS), dtype=np.uint8)
        ids = (np.arange(6) + 500).astype(np.int64)
        tcs = np.linspace(0, 5, 6)
        first = routed_rw.ingest(
            new.astype(np.float64), ids, tcs, request_id="ingest-once"
        )
        assert first["added"] == 6
        assert sum(s["rows"] for s in first["shards"]) == 6
        # Every owning shard acked on at least one replica.
        assert all(s["acks"] >= 1 for s in first["shards"])
        # Same request_id again: shard-side dedupe absorbs the replay
        # (the router response shape is identical; no rows re-applied).
        second = routed_rw.ingest(
            new.astype(np.float64), ids, tcs, request_id="ingest-once"
        )
        assert [s["rows"] for s in second["shards"]] == [
            s["rows"] for s in first["shards"]
        ]
        results = routed_rw.query(new.astype(np.float64))
        for row_ids, result in zip(ids, results):
            assert row_ids in result.ids
        stats = routed_rw.stats()
        # The written shards stay clean: their occupancy took the routed
        # rows' blocks, so skipping stays exact (TestShardSkip).
        assert stats["cluster"]["dirty_shards"] == []
        assert stats["cluster"]["ingest_rows"] == 12

    def test_list_and_blob_ingests_store_the_same(self, routed_rw, corpus):
        """The same rows ingested once as JSON lists and once as blobs
        (under other ids) land on the same shards as the same values."""
        rng = np.random.default_rng(37)
        new = rng.integers(0, 256, size=(6, NDIMS)).astype(np.float64)
        tcs = rng.uniform(0, 100, 6)
        ids = {"lists": np.arange(6) + 800, "blobs": np.arange(6) + 900}
        answers = {}
        for name, encode in (("lists", as_lists), ("blobs", dict)):
            answer = routed_rw._request(encode({
                "op": "ingest", "fingerprints": new, "ids": ids[name],
                "timecodes": tcs, "request_id": name,
            }))
            assert answer.pop("request_id") == name
            answers[name] = answer
        assert answers["lists"] == answers["blobs"]
        results = routed_rw.query(new, include_fingerprints=True)
        for j, result in enumerate(results):
            assert ids["lists"][j] in result.ids  # each finds itself
            for k in range(6):
                stored = [
                    sorted(
                        (tc, fp.tobytes()) for i, tc, fp in zip(
                            result.ids, result.timecodes, result.fingerprints
                        ) if i == ids[name][k]
                    )
                    for name in ("lists", "blobs")
                ]
                assert stored[0] == stored[1]
        assert routed_rw.stats()["cluster"]["ingest_rows"] == 12

    def test_unstorable_ingest_refused_before_routing(self, routed_rw):
        # 300 and -5 would wrap to other bytes in the replicas' uint8
        # columns, and route by the wrapped key to the wrong shard.
        with pytest.raises(ServerError) as err:
            routed_rw._request({
                "op": "ingest",
                "fingerprints": [[300, -5, 2, 3, 4, 5, 6, 7]],
                "ids": [1], "timecodes": [0.0],
            })
        assert err.value.code == protocol.ERR_BAD_REQUEST
        with pytest.raises(ServerError) as err:
            routed_rw.ingest(np.ones((1, NDIMS)), [-1], [0.0])
        assert err.value.code == protocol.ERR_BAD_REQUEST
        with pytest.raises(ServerError) as err:
            routed_rw.query(np.full(NDIMS, np.nan))
        assert err.value.code == protocol.ERR_BAD_REQUEST
        cluster = routed_rw.stats()["cluster"]
        assert cluster["dirty_shards"] == []
        assert cluster["ingest_rows"] == 0


class TestOutOfBandIngest:
    def test_routed_query_sees_rows_ingested_into_replicas(
        self, tmp_path_factory, source, corpus
    ):
        """A row ingested straight into a replica, after the router
        started, answers the next routed query.

        The router has no signal for such a write, so an answer it kept
        from before the write would be stale; it asks the shards again.
        """
        cluster_dir = tmp_path_factory.mktemp("oob") / "c"
        plan_cluster(source, cluster_dir, num_shards=2, replicas=1)
        fp, _, _ = corpus
        query = fp[:1].astype(np.float64)
        new_ids = {0: 4000, 1: 4001}
        with ClusterSupervisor(
            cluster_dir, mode="thread",
            serve_config=ServeConfig(port=0, alpha=ALPHA),
        ) as supervisor:
            router = ClusterRouter(
                ClusterManifest.load(cluster_dir), supervisor.endpoints(),
                RouterConfig(port=0, alpha=ALPHA),
            )
            with ServiceThread(router) as thread, ServeClient(
                port=thread.port, timeout=30.0
            ) as routed:
                (before,) = routed.query(query)
                for shard, ((host, port),) in supervisor.endpoints().items():
                    with ServeClient(host, port, timeout=30.0) as replica:
                        replica.ingest(query, [new_ids[shard]], [0.0])
                (after,) = routed.query(query)
        assert not set(new_ids.values()) & set(before.ids.tolist())
        assert set(new_ids.values()) <= set(after.ids.tolist())


class TestShardSkip:
    """A clean shard that holds none of a query's blocks is skipped."""

    @pytest.fixture(scope="class")
    def two_regions(self, tmp_path_factory):
        """Two segments in opposite corners of the grid, one per shard,
        and a single server over the unsharded index."""
        root = tmp_path_factory.mktemp("skip")
        rng = np.random.default_rng(41)
        index = SegmentedS3Index.create(
            root / "src", ndims=NDIMS, model=NormalDistortionModel(NDIMS, SIGMA),
            flush_rows=ROWS_PER_SEGMENT, auto_compact=False,
        )
        for centre in (40, 216):
            fp = np.clip(
                rng.normal(centre, 4.0, (ROWS_PER_SEGMENT, NDIMS)), 0, 255
            ).astype(np.uint8)
            ids = rng.integers(0, 7, ROWS_PER_SEGMENT).astype(np.uint32)
            index.add(fp, ids, rng.uniform(0, 100, ROWS_PER_SEGMENT))
        index.flush()
        index.close()
        plan_cluster(root / "src", root / "c", num_shards=2)
        supervisor = ClusterSupervisor(
            root / "c", mode="thread",
            serve_config=ServeConfig(port=0, alpha=ALPHA),
        ).start()
        router = ClusterRouter(
            ClusterManifest.load(root / "c"), supervisor.endpoints(),
            RouterConfig(port=0, alpha=ALPHA),
        )
        thread = ServiceThread(router).start()
        index = SegmentedS3Index.open(root / "src", auto_compact=False, mmap=True)
        with ServerThread(index, ServeConfig(port=0, alpha=ALPHA)) as single, \
                ServeClient(port=single.port, timeout=30.0) as base, \
                ServeClient(port=thread.port, timeout=30.0) as routed:
            yield routed, base
        thread.stop()
        supervisor.stop()

    def test_skip_keeps_answers_bit_identical(self, two_regions):
        routed, base = two_regions
        queries = np.array([[40.0] * NDIMS, [44.0] * NDIMS, [216.0] * NDIMS])
        before = [s["skips"] for s in routed.stats()["cluster"]["per_shard"]]
        for batch in (queries[:1], queries):
            got = routed.query(batch, include_fingerprints=True)
            _assert_results_equal(
                base.query(batch, include_fingerprints=True), got
            )
            assert all(len(r.rows) for r in got)  # each corner answers
        cluster = routed.stats()["cluster"]
        assert cluster["dirty_shards"] == []
        skips = [
            s["skips"] - b for s, b in zip(cluster["per_shard"], before)
        ]
        # The first batch lies wholly in one corner: the other shard is
        # skipped.  The second spans both, so neither is.
        assert sum(skips) == 1

    def test_routed_ingest_keeps_skipping_exact(self, two_regions):
        """Rows routed into the corner-40 shard join its occupancy: a
        query at the new rows reaches that shard, a corner-216 query
        still skips it, and no shard turns dirty."""
        routed, base = two_regions
        rng = np.random.default_rng(53)
        new = np.clip(rng.normal(70.0, 2.0, (24, NDIMS)), 0, 255).round()
        ids = np.arange(24) + 900
        tcs = rng.uniform(0, 100, 24)
        added = routed.ingest(new, ids, tcs, request_id="corner-40")
        assert [s["shard"] for s in added["shards"]] == [0]
        base.ingest(new, ids, tcs)

        def skips():
            return [
                s["skips"] for s in routed.stats()["cluster"]["per_shard"]
            ]

        queries = np.array([[70.0] * NDIMS, [216.0] * NDIMS])
        before = skips()
        near = routed.query(queries[:1], include_fingerprints=True)
        _assert_results_equal(
            base.query(queries[:1], include_fingerprints=True), near
        )
        assert set(ids) & set(near[0].ids.tolist())  # the new rows answer
        far = routed.query(queries[1:], include_fingerprints=True)
        _assert_results_equal(
            base.query(queries[1:], include_fingerprints=True), far
        )
        after = skips()
        # The new rows' query skips shard 1; the corner-216 one shard 0.
        assert [a - b for a, b in zip(after, before)] == [1, 1]
        assert routed.stats()["cluster"]["dirty_shards"] == []

"""``cluster_scatter`` — through the router, 2 shards × 2 replicas.

Why it exists: router replay of block selection, presence skipping,
scatter-gather, ``merge`` and replica write fan-out do the work here and
nothing in the other four workloads; every query is unique, so none of
the caches ``serve_mixed`` exercises can answer.
"""

from __future__ import annotations

import time

import numpy as np

from harness import ClientOp
from spans import Recorder
from workloads.base import (
    STREAM_FILLER,
    STREAM_QUERIES,
    Check,
    State,
    Workload,
    reference_corpus,
    scratch_dir,
    stream,
    timed,
)
from workloads.serve_mixed import split_store
from workloads.tiered_scan import build_segmented, results_equal
from workloads.wire import (
    client_ops,
    counter_delta,
    make_plan,
    health_rtt_us,
    median_seconds,
    open_clients,
    traced_window,
)

from repro.cluster.merge import build_shard_maps, merge_query_wires
from repro.cluster.plan import ClusterManifest, plan_cluster
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.cluster.supervisor import ClusterSupervisor
from repro.corpus import model_queries, scale_store
from repro.index.segmented import SegmentedS3Index
from repro.serve.client import ServeClient
from repro.serve.runner import ServiceThread
from repro.serve.server import ServeConfig

PROBE_REQUESTS = 24


def _as_wire(result) -> dict:
    """A parsed ``WireResult`` back in the shard's wire form."""
    return {
        "count": len(result), "rows": result.rows.tolist(),
        "ids": result.ids.tolist(), "timecodes": result.timecodes.tolist(),
    }


class ClusterScatter(Workload):
    name = "cluster_scatter"
    op = "ServeClient.query(8 unique fingerprints) 90% / ingest(16 rows) 10%, via ClusterRouter"
    num_clients = 2
    # Four replica interpreters start one after another (~6 s): one
    # set-up per run keeps the run inside the time the driver allows.
    setup_repeats = 1

    def sizes(self, smoke: bool) -> dict:
        return {
            "programmes": 8,
            "frames_per_programme": 120,
            "rows": 20_000 if smoke else 200_000,
            "segments": 8,
            "shards": 2,
            "replicas": 2,
            "write_share": 0.10,
            "ingest_rows": 16,
            "fingerprints_per_query": 8,
            "identity_requests": 8,
            "plan_ops": 1_024 if smoke else 2_048,
            "detect_clips": 2,
            "clip_frames": 8,
            "sigma": 10.0,
            "depth": 16,
            "alpha": 0.8,
        }

    def generate(self, seed: int, sizes: dict, layer: dict) -> dict:
        with timed(layer, "corpus.build_s"):
            corpus = reference_corpus(sizes)
            store = scale_store(
                corpus.store, sizes["rows"], rng=stream(seed, STREAM_FILLER)
            )
        rng = stream(seed, STREAM_QUERIES)
        per = sizes["fingerprints_per_query"]
        identity = model_queries(
            store, sizes["identity_requests"] * per, sizes["sigma"], rng=rng
        ).queries.reshape(sizes["identity_requests"], per, -1)
        probes = model_queries(
            store, PROBE_REQUESTS * per, sizes["sigma"], rng=rng
        ).queries.reshape(PROBE_REQUESTS, per, -1)
        # Candidate clips for the detect op, as their fingerprints: the
        # rows a referenced programme holds for a short stretch (the
        # vote over 200k rows is slow; two short clips keep it in budget).
        clips = []
        for _ in range(sizes["detect_clips"]):
            source = corpus.extractions[int(rng.integers(corpus.num_videos))].store
            start = int(rng.integers(
                0, sizes["frames_per_programme"] - sizes["clip_frames"]
            ))
            inside = (source.timecodes >= start) & (
                source.timecodes < start + sizes["clip_frames"]
            )
            clips.append((
                source.fingerprints[inside].astype(np.float64),
                source.timecodes[inside] - start,
            ))
        plans = [
            make_plan(
                store, seed, lane, ops=sizes["plan_ops"],
                write_share=sizes["write_share"],
                fingerprints_per_query=per,
                ingest_rows=sizes["ingest_rows"], sigma=sizes["sigma"],
            )
            for lane in range(self.num_clients)
        ]
        return {
            "store": store, "plans": plans, "identity": identity,
            "probes": probes, "clips": clips,
        }

    def build(self, state: State) -> None:
        sizes, inputs = state.sizes, state.inputs
        directory = state.resources.enter_context(scratch_dir(self.name))
        source, cluster_dir = directory / "source", directory / "cluster"
        with timed(state.layer, "index.build_s"):
            state.layer.update(build_segmented(
                source, split_store(inputs["store"], sizes["segments"]),
                sizes["sigma"], sizes["depth"],
            ))
            plan_cluster(
                source, cluster_dir, num_shards=sizes["shards"],
                replicas=sizes["replicas"],
            )
        # What the single node answers, from the cold-cache state the
        # shard servers' batcher starts every engine batch in.
        with SegmentedS3Index.open(source, auto_compact=False, mmap=True) as node:
            expected = []
            for queries in inputs["identity"]:
                node.reset_threshold_cache()
                expected.append(
                    node.statistical_query_batch(queries, sizes["alpha"])
                )

        with timed(state.layer, "cluster.start_s"):
            supervisor = ClusterSupervisor(
                cluster_dir, mode="process",
                serve_config=ServeConfig(port=0, alpha=sizes["alpha"]),
                extra_serve_args=["--alpha", str(sizes["alpha"])],
            )
            state.resources.callback(supervisor.stop)
            supervisor.start()
            manifest = ClusterManifest.load(cluster_dir)
            router = ServiceThread(ClusterRouter(
                manifest, supervisor.endpoints(),
                RouterConfig(port=0, alpha=sizes["alpha"]),
            ))
            router.start()
            state.resources.callback(router.stop)
        control = ServeClient(port=router.port, timeout=60.0)
        state.resources.callback(control.close)
        clients = open_clients(state, router.port, inputs["plans"], "cluster")
        state.live.update(
            manifest=manifest, supervisor=supervisor, control=control,
            clients=clients,
        )
        # The identity sample doubles as warm-up; it must precede every
        # ingest, which would add rows the source index does not hold.
        same = 0
        for queries, single in zip(inputs["identity"], expected):
            same += results_equal(control.query(queries), single)
        state.live["identical"] = same
        for queries in inputs["probes"][:8]:
            control.query(queries)

    def clients(self, state: State) -> list[ClientOp]:
        return client_ops(state.live["clients"])

    def verify(self, state: State) -> Check:
        same = state.live["identical"]
        total = len(state.inputs["identity"])
        per = state.sizes["fingerprints_per_query"]
        return Check(
            same / total, same == total,
            f"{same}/{total} pre-ingest requests ({total * per} queries) "
            "bit-identical to the single-node source index",
        )

    # ------------------------------------------------------------------
    def _replica_rows(self, state: State) -> int:
        """Rows held over all replicas, from each replica's health op."""
        rows = 0
        for endpoints in state.live["supervisor"].endpoints().values():
            for host, port in endpoints:
                with ServeClient(host, port, timeout=60.0) as replica:
                    rows += replica.health()["index"]["rows"]
        return rows

    def trace(self, state: State, rec: Recorder, seconds: float) -> dict:
        control, sizes = state.live["control"], state.sizes
        clients = state.live["clients"]
        before, rows_before = control.stats(), self._replica_rows(state)
        acked_before = sum(len(c.acked) for c in clients)
        ops = traced_window(clients, rec, seconds)
        after, rows_after = control.stats(), self._replica_rows(state)
        ingested = (
            sum(len(c.acked) for c in clients) - acked_before
        ) * sizes["ingest_rows"]

        def shard_total(stats: dict, key: str) -> int:
            return sum(s[key] for s in stats["cluster"]["per_shard"])

        fanouts = shard_total(after, "fanouts") - shard_total(before, "fanouts")
        skips = shard_total(after, "skips") - shard_total(before, "skips")
        requests = (
            counter_delta(after, before, "requests", "query")
            + counter_delta(after, before, "requests", "ingest")
        )
        cache = after["cluster"]["cache"]
        cache_before = before["cluster"]["cache"]
        lookups = (
            cache["hits"] + cache["misses"]
            - cache_before["hits"] - cache_before["misses"]
        )

        # One hop through the router against straight to one replica.
        endpoints = state.live["supervisor"].endpoints()
        probes = state.inputs["probes"]
        host, port = endpoints[0][0]
        with ServeClient(host, port, timeout=60.0) as replica:
            direct_s = median_seconds(replica.query, probes)
        routed_s = median_seconds(control.query, probes)

        # merge() alone, on the payloads the shards really return.
        maps = build_shard_maps(state.live["manifest"])
        shard_wires = []
        for shard_map in maps:
            host, port = endpoints[shard_map.shard][0]
            with ServeClient(host, port, timeout=60.0) as replica:
                shard_wires.append(
                    [_as_wire(r) for r in replica.query(probes[0])]
                )
        total_sealed = state.live["manifest"].total_rows
        merged_rows = 0
        start = time.perf_counter()
        for _ in range(20):
            for q in range(len(probes[0])):
                merged = merge_query_wires(
                    [(m, wires[q]) for m, wires in zip(maps, shard_wires)],
                    total_sealed,
                )
                merged_rows += merged["count"]
        merge_us = (time.perf_counter() - start) * 1e6 / max(merged_rows, 1)

        detect_s = median_seconds(
            lambda clip: control.detect(*clip), state.inputs["clips"]
        )
        return {
            "ops": ops,
            "cluster.router_overhead_ms_per_query": (routed_s - direct_s) * 1e3,
            "cluster.fanout_mean": fanouts / max(requests, 1),
            "cluster.shard_skip_share": skips / max(fanouts + skips, 1),
            "cluster.merge_us_per_result": merge_us,
            "cluster.ingest_replica_writes_per_row": (
                (rows_after - rows_before) / ingested if ingested else 0.0
            ),
            "cluster.failovers": (
                shard_total(after, "failovers") - shard_total(before, "failovers")
            ),
            "cluster.detect_ms_per_clip": detect_s * 1e3,
            "serve.result_cache_hit_share": (
                (cache["hits"] - cache_before["hits"]) / lookups
                if lookups else 0.0
            ),
            "serve.server_latency_ms_mean": after["latency"]["mean_ms"],
            "serve.health_rtt_us": health_rtt_us(control),
        }


WORKLOAD = ClusterScatter()

"""``serve_mixed`` — reads beside writes, over the wire to one server.

Why it exists: framing, the micro-batcher, the result and gather
caches, WAL group commit and background seal/compaction all sit on this
path, so a read gain paid for by ingest (or the reverse) shows here.
"""

from __future__ import annotations

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
from workloads.tiered_scan import build_segmented
from workloads.wire import (
    acknowledged_rows,
    client_ops,
    counter_delta,
    framing_costs,
    health_rtt_us,
    make_plan,
    median_seconds,
    open_clients,
    read_back,
    traced_window,
)

from repro.corpus import model_queries, scale_store
from repro.index.segmented import SegmentedS3Index
from repro.serve.client import ServeClient
from repro.serve.runner import ServerThread
from repro.serve.server import ServeConfig


#: Unique queries timed over the wire and in-process by the traced run.
PROBES = 64


def split_store(store, parts: int) -> list:
    """*store* cut into *parts* contiguous stores of near-equal size."""
    bounds = np.linspace(0, len(store), parts + 1).astype(int)
    return [
        store.take(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])
    ]


class ServeMixed(Workload):
    name = "serve_mixed"
    op = "ServeClient.query(1 fingerprint) 85% / ServeClient.ingest(16 rows) 15%"
    num_clients = 2

    def sizes(self, smoke: bool) -> dict:
        return {
            "programmes": 8,
            "frames_per_programme": 120,
            "rows": 20_000 if smoke else 200_000,
            "segments": 8,
            "write_share": 0.15,
            "ingest_rows": 16,
            "hot_fingerprints": 512,
            "hot_share": 0.5,
            "zipf_s": 1.1,
            # ~470 ingested rows/s: a seal every ~2 s, so at least three
            # seals and a compaction land inside any window.
            "flush_rows": 512 if smoke else 1024,
            "plan_ops": 2_048 if smoke else 8_192,
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
        hot = model_queries(
            store, sizes["hot_fingerprints"], sizes["sigma"], rng=rng
        ).queries
        probes = model_queries(store, PROBES, sizes["sigma"], rng=rng).queries
        plans = [
            make_plan(
                store, seed, lane, ops=sizes["plan_ops"],
                write_share=sizes["write_share"], fingerprints_per_query=1,
                ingest_rows=sizes["ingest_rows"], sigma=sizes["sigma"],
                hot=hot, hot_share=sizes["hot_share"], zipf_s=sizes["zipf_s"],
            )
            for lane in range(self.num_clients)
        ]
        return {"store": store, "plans": plans, "probes": probes}

    def build(self, state: State) -> None:
        sizes, inputs = state.sizes, state.inputs
        directory = state.resources.enter_context(scratch_dir(self.name))
        archive = directory / "index"
        with timed(state.layer, "index.build_s"):
            state.layer.update(build_segmented(
                archive, split_store(inputs["store"], sizes["segments"]),
                sizes["sigma"], sizes["depth"],
            ))
        with timed(state.layer, "index.segmented.open_s"):
            index = SegmentedS3Index.open(
                archive, flush_rows=sizes["flush_rows"], durability="group",
            )
        server = ServerThread(index, ServeConfig(
            port=0, alpha=sizes["alpha"], durability="group",
            maintenance=True, cache="auto",
        ))
        server.start()
        state.resources.callback(server.stop)  # drains; closes the index
        control = ServeClient(port=server.port, timeout=60.0)
        state.resources.callback(control.close)
        clients = open_clients(state, server.port, inputs["plans"], "serve")
        state.live.update(
            archive=archive, index=index, server=server, control=control,
            clients=clients, base_rows=len(index),
        )
        for client in clients:  # warm-up: connections, caches, planner
            for seq in range(64):
                client.op(seq)

    def clients(self, state: State) -> list[ClientOp]:
        return client_ops(state.live["clients"])

    def verify(self, state: State) -> Check:
        """Acknowledged ⇒ durable: drain, reopen, read the rows back."""
        state.live["server"].stop()
        fingerprints, ids = acknowledged_rows(state.live["clients"])
        rows, found, sampled = read_back(
            [state.live["archive"]], fingerprints, ids, state.seed
        )
        expected = state.live["base_rows"] + len(ids)
        ok = rows == expected and found == sampled and sampled > 0
        return Check(
            found / max(sampled, 1) if rows == expected else 0.0, ok,
            f"reopened index holds {rows} rows (expected {expected}: "
            f"{len(ids)} acknowledged); {found}/{sampled} sampled "
            "acknowledged rows read back",
        )

    def trace(self, state: State, rec: Recorder, seconds: float) -> dict:
        control, index = state.live["control"], state.live["index"]
        sizes = state.sizes
        before = control.stats()
        ops = traced_window(state.live["clients"], rec, seconds)
        after = control.stats()

        def moved(*path: str) -> float:
            return counter_delta(after, before, *path)

        lookups = moved("cache", "hits") + moved("cache", "misses")
        gathers = (
            moved("cache", "gather", "hits") + moved("cache", "gather", "misses")
        )
        batches = moved("batcher", "batches")

        # The same unique queries over the wire and in-process.
        probes = state.inputs["probes"]
        wire_s = median_seconds(control.query, probes)

        def solo(query) -> None:
            index.reset_threshold_cache()
            index.statistical_query(query, sizes["alpha"])

        local_s = median_seconds(solo, probes)
        index.reset_threshold_cache()
        captured = index.statistical_query(probes[0], sizes["alpha"])
        maintenance = ("ingest", "maintenance")
        return {
            "ops": ops,
            **framing_costs(probes[:1], captured),
            "serve.health_rtt_us": health_rtt_us(control),
            "serve.overhead_ms_per_query": (wire_s - local_s) * 1e3,
            "serve.batch_fill_mean": (
                moved("batcher", "queries") / batches if batches else 0.0
            ),
            "serve.engine_stall_ms_p50": after["batcher"]["engine_stall"]["p50_ms"],
            "serve.engine_stall_ms_p99": after["batcher"]["engine_stall"]["p99_ms"],
            "serve.server_latency_ms_mean": after["latency"]["mean_ms"],
            "serve.result_cache_hit_share": (
                moved("cache", "hits") / lookups if lookups else 0.0
            ),
            "serve.gather_cache_hit_share": (
                moved("cache", "gather", "hits") / gathers if gathers else 0.0
            ),
            "serve.inflight_dedupe_share": (
                moved("cache", "inflight_deduped") / lookups if lookups else 0.0
            ),
            "serve.shed_count": (
                moved("batcher", "shed") + moved("ingest", "backpressure_sheds")
            ),
            "index.segmented.seals": moved(*maintenance, "seals"),
            "index.segmented.compactions": moved(*maintenance, "compactions"),
            "index.segmented.segments_skipped_share": (
                moved("prefilter", "segments_skipped")
                / max(moved("batcher", "queries") * sizes["segments"], 1)
            ),
        }


WORKLOAD = ServeMixed()

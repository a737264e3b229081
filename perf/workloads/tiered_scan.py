"""``tiered_scan`` — the index layer over tiered segment storage.

Why it exists: the same block selection as ``stat_scan``, used
differently — segment fan-out, sketch pre-filter, cold range fetches and
tier churn, with a working set larger than the RAM budget
(``stat_scan``'s fits).  ``storage.*`` only moves here.
"""

from __future__ import annotations

import time

import numpy as np

from harness import READ, ClientOp
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
from workloads.stat_scan import (
    EngineCounters,
    engine_metrics,
    traced_engine_window,
)

from repro.corpus import resample_fingerprints, stream_queries
from repro.distortion.model import NormalDistortionModel
from repro.index.batch import BatchQueryExecutor
from repro.index.options import QueryOptions
from repro.index.segmented import CompactionPolicy, SegmentedS3Index
from repro.storage import StorageConfig, row_bytes


#: Side windows of the traced run that price the prefetcher.
PREFETCH_ROUNDS = 3
PREFETCH_SLICE_S = 0.5


def build_segmented(
    directory, stores: list, sigma: float, depth: int
) -> dict:
    """Seal each store of *stores* as one segment of a new index in
    *directory* and close it; returns what the write path cost."""
    index = SegmentedS3Index.create(
        directory, ndims=stores[0].ndims, depth=depth,
        model=NormalDistortionModel(stores[0].ndims, sigma),
        flush_rows=max(len(s) for s in stores) + 1,
        policy=CompactionPolicy(max_segments=2 * len(stores) + 4),
        auto_compact=False, sync=False,
    )
    spent: dict = {}
    with index:
        for store in stores:
            with timed(spent, "add"):
                index.add(store.fingerprints, store.ids, store.timecodes)
            with timed(spent, "flush"):
                index.flush()
    return {
        "index.segmented.add_us_per_row": (
            spent["add"] / sum(len(s) for s in stores) * 1e6
        ),
        "index.segmented.flush_ms": spent["flush"] / len(stores) * 1e3,
    }


def results_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.rows, y.rows)
        and np.array_equal(x.ids, y.ids)
        and np.array_equal(x.timecodes, y.timecodes)
        for x, y in zip(a, b)
    )


class TieredScan(Workload):
    name = "tiered_scan"
    op = "BatchQueryExecutor.query_batch(32 stream queries) on a tiered SegmentedS3Index"

    def sizes(self, smoke: bool) -> dict:
        return {
            "programmes": 8,
            "frames_per_programme": 120,
            "rows": 40_000 if smoke else 400_000,
            "segments": 16,
            "budget_fraction": 0.25,
            "promote_after": 32,
            # Cold ranges are fetched where they are needed, on the
            # scanning thread.  With prefetch on, the fetcher threads and
            # the scanning thread hand one GIL around and the same batches
            # run at 23/s or 10/s from one run to the next on this 2-core
            # host (README, Findings) — no bound could hold.  The traced
            # run prices prefetch as storage.prefetch_speedup instead.
            "prefetch": "off",
            "batch": 32,
            "batches": 16 if smoke else 64,
            "identity_batches": 4 if smoke else 16,
            "hot_share": 0.7,
            "sigma": 10.0,
            "depth": 16,
            "alpha": 0.8,
        }

    def generate(self, seed: int, sizes: dict, layer: dict) -> dict:
        with timed(layer, "corpus.build_s"):
            corpus = reference_corpus(sizes)
            # One programme's material per segment, as an archive ingested
            # programme by programme seals it: a segment is local in
            # fingerprint space, so a query region maps to few segments.
            per_segment = sizes["rows"] // sizes["segments"]
            filler = stream(seed, STREAM_FILLER)
            pools = [e.store for e in corpus.extractions]
            stores = [
                resample_fingerprints(
                    pools[k % len(pools)], per_segment,
                    id_base=1_000_000 + 1_000 * k, rng=filler,
                )
                for k in range(sizes["segments"])
            ]
        rng = stream(seed, STREAM_QUERIES)
        hot_pool = pools[int(rng.integers(len(pools)))]
        total = sizes["batch"] * sizes["batches"]
        from_hot = rng.random(total) < sizes["hot_share"]
        queries = np.where(
            from_hot[:, None],
            stream_queries(hot_pool, total, rng=rng),
            stream_queries(corpus.store, total, rng=rng),
        )
        return {"stores": stores, "queries": queries}

    def build(self, state: State) -> None:
        sizes, inputs = state.sizes, state.inputs
        directory = state.resources.enter_context(scratch_dir(self.name))
        archive = directory / "archive"
        with timed(state.layer, "index.build_s"):
            state.layer.update(build_segmented(
                archive, inputs["stores"], sizes["sigma"], sizes["depth"]
            ))
        batch = sizes["batch"]
        batches = [
            inputs["queries"][i * batch:(i + 1) * batch]
            for i in range(sizes["batches"])
        ]
        options = QueryOptions(
            alpha=sizes["alpha"], batch_size=batch, prefetch=sizes["prefetch"]
        )
        sealed_bytes = sizes["rows"] * row_bytes(inputs["stores"][0].ndims)
        state.layer["index.segmented.bytes_per_row"] = sum(
            f.stat().st_size for f in archive.iterdir() if f.is_file()
        ) / sizes["rows"]

        # Reference answers from the same directory, all in RAM, taken
        # before tiering deletes the local stores of demoted segments.
        with SegmentedS3Index.open(archive, auto_compact=False) as resident:
            with BatchQueryExecutor(resident, options=options) as engine:
                reference = []
                for queries in batches[:sizes["identity_batches"]]:
                    resident.reset_threshold_cache()
                    reference.append(engine.query_batch(queries))

        with timed(state.layer, "index.segmented.open_s"):
            index = SegmentedS3Index.open(
                archive, auto_compact=False,
                # Every batch here touches every cold segment.  Under the
                # default hysteresis (2 scans) the manager therefore
                # promotes and demotes all twelve on every second batch
                # and latency alternates 50 ms / 120 ms — a two-valued
                # distribution whose median is noise.  32 keeps the tier
                # transitions in the run (one burst per 32 batches, in
                # throughput and storage.promotions) and the percentiles
                # on the cold-scan path.
                storage=StorageConfig(
                    budget_bytes=int(sizes["budget_fraction"] * sealed_bytes),
                    cold_dir=str(directory / "cold"),
                    promote_after=sizes["promote_after"],
                ),
            )
        state.resources.callback(index.close)
        engine = BatchQueryExecutor(index, options=options)
        state.resources.callback(engine.close)
        state.live.update(
            index=index, engine=engine, batches=batches, reference=reference,
            options=options,
        )
        for i in range(min(8, len(batches))):  # warm-up
            engine.query_batch(batches[i])

    def clients(self, state: State) -> list[ClientOp]:
        engine, batches = state.live["engine"], state.live["batches"]

        def op(seq: int) -> str:
            engine.query_batch(batches[seq % len(batches)])
            return READ

        return [op]

    def verify(self, state: State) -> Check:
        index, engine = state.live["index"], state.live["engine"]
        same = 0
        for queries, expected in zip(
            state.live["batches"], state.live["reference"]
        ):
            index.reset_threshold_cache()
            same += results_equal(engine.query_batch(queries), expected)
        total = len(state.live["reference"])
        return Check(
            same / total, same == total,
            f"{same}/{total} batches bit-identical to the directory "
            "opened all-RAM",
        )

    def trace(self, state: State, rec: Recorder, seconds: float) -> dict:
        index, engine = state.live["index"], state.live["engine"]
        counters = EngineCounters(engine)
        before = index.storage_info()["manager"]["counters"]
        # Tier transitions run inline at the end of a batch, outside the
        # select/scan clocks BatchQueryStats keeps; wrap the manager's
        # public settle() on this instance so the stage table shows them.
        manager = index.storage
        inner_settle = manager.settle

        def settle() -> None:
            with rec.span("storage.settle"):
                inner_settle()

        manager.settle = settle
        try:
            ops = traced_engine_window(
                engine, state.live["batches"], rec, seconds,
                "index.segmented.query_batch",
            )
        finally:
            del manager.settle
        after = index.storage_info()["manager"]["counters"]
        moved = {key: after[key] - before[key] for key in after}
        stats = counters.stats()
        queries, batches = max(stats.queries, 1), max(stats.batches, 1)

        # The same batches with the prefetcher on and off, interleaved.
        pool = state.live["batches"]
        rates = {"auto": 0.0, "off": 0.0}
        before = index.storage_info()["manager"]["counters"]
        for mode in ("off", "auto") * PREFETCH_ROUNDS:
            options = state.live["options"].replace(prefetch=mode)
            with BatchQueryExecutor(index, options=options) as side:
                start, done = time.perf_counter(), 0
                while time.perf_counter() - start < PREFETCH_SLICE_S:
                    side.query_batch(pool[done % len(pool)])
                    done += 1
                rates[mode] += done / (time.perf_counter() - start)
        after = index.storage_info()["manager"]["counters"]
        collected = (
            after["prefetch_hits"] + after["prefetch_misses"]
            - before["prefetch_hits"] - before["prefetch_misses"]
        )
        return {
            "ops": ops,
            **engine_metrics(counters, segments=state.sizes["segments"]),
            "index.segmented.query_ms_per_query": (
                rec.root_wall_ns() / 1e6 / queries
            ),
            "storage.settle_ms_per_batch": (
                rec.self_times().get("storage.settle", (0, 0))[0] / 1e6 / batches
            ),
            "storage.cold_fetch_ms_per_batch": (
                stats.cold_fetch_seconds / batches * 1e3
            ),
            "storage.cold_bytes_per_query": stats.cold_bytes / queries,
            "storage.cold_fetches_per_batch": moved["fetches"] / batches,
            "storage.resident_rows_share": (
                1.0 - stats.cold_rows / max(stats.unique_rows, 1)
            ),
            "storage.promotions": moved["promotions"],
            "storage.demotions": moved["demotions"],
            "storage.prefetch_overlap_share": (
                (after["prefetch_hits"] - before["prefetch_hits"]) / collected
                if collected else 0.0
            ),
            "storage.prefetch_speedup": rates["auto"] / rates["off"],
        }


WORKLOAD = TieredScan()

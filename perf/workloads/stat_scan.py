"""``stat_scan`` — the paper's Fig. 7 regime: statistical queries only.

Why it exists: block selection, the coalesced gather and the planner's
executor choice do all the work here.  There is no extraction, vote,
wire or disk, so a change to ``cbcd`` or ``serve`` must not move it.
"""

from __future__ import annotations

import dataclasses
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
    stream,
    timed,
)

from repro.corpus import model_queries, scale_store
from repro.distortion.model import NormalDistortionModel
from repro.index.batch import BatchQueryExecutor, BatchQueryStats
from repro.index.filtering import grid_probability
from repro.index.options import QueryOptions
from repro.index.s3 import S3Index

#: Retrieval may fall this far below α before the run fails.
ALPHA_TOLERANCE = 0.03


class EngineCounters:
    """``BatchQueryStats`` + planner decisions accumulated since
    construction, so warm-up batches stay out of the traced numbers."""

    def __init__(self, engine: BatchQueryExecutor):
        self.engine = engine
        self._stats = dataclasses.replace(engine.stats)
        self._decisions = dict(engine.planner_stats.decisions)

    def stats(self) -> BatchQueryStats:
        now = self.engine.stats
        return BatchQueryStats(**{
            f.name: getattr(now, f.name) - getattr(self._stats, f.name)
            for f in dataclasses.fields(BatchQueryStats)
        })

    def decisions(self) -> dict:
        now = self.engine.planner_stats.decisions
        return {k: v - self._decisions.get(k, 0) for k, v in now.items()}


def engine_metrics(counters: EngineCounters, segments: int = 0) -> dict:
    """Per-layer metrics of the batches *counters* saw (shared with
    ``tiered_scan``)."""
    stats, decisions = counters.stats(), counters.decisions()
    queries = max(stats.queries, 1)
    batches = max(stats.batches, 1)
    plans = max(sum(decisions.values()), 1)
    out = {
        "index.select_ms_per_query": stats.filter_seconds / queries * 1e3,
        "index.scan_ms_per_query": stats.scan_seconds / queries * 1e3,
        "index.blocks_per_query": stats.blocks_selected / queries,
        "index.ranges_per_batch": stats.sections_scanned / batches,
        "index.coalescing_factor": stats.coalescing_factor,
        "index.rows_scanned_per_query": stats.unique_rows / queries,
        "index.rows_returned_per_query": stats.results / queries,
        "index.executor_serial_share": decisions.get("serial", 0) / plans,
        "index.executor_threads_share": decisions.get("threads", 0) / plans,
        "index.executor_processes_share": decisions.get("processes", 0) / plans,
    }
    if segments:
        pairs = queries * segments
        out["index.segmented.segments_skipped_share"] = (
            stats.segments_skipped / pairs
        )
        out["index.segmented.blocks_skipped_per_query"] = (
            stats.blocks_skipped / queries
        )
    return out


def traced_engine_window(
    engine: BatchQueryExecutor, batches: list, rec: Recorder,
    seconds: float, root: str,
) -> int:
    """Replay ``engine.query_batch`` with one root span per batch, split
    into select / scan by the durations ``BatchQueryStats`` reports.

    Cold fetches are booked inside the scan, which is where they happen
    when the prefetcher is off (with it on they overlap the scan and the
    backend's clock could exceed it — callers trace with it off).
    """
    deadline = time.perf_counter() + seconds
    stats = engine.stats
    ops = 0
    while time.perf_counter() < deadline:
        before = (
            stats.filter_seconds, stats.scan_seconds, stats.cold_fetch_seconds
        )
        with rec.span(root, request=ops) as span:
            start_ns = time.perf_counter_ns()
            engine.query_batch(batches[ops % len(batches)])
        select_ns = (stats.filter_seconds - before[0]) * 1e9
        scan_ns = (stats.scan_seconds - before[1]) * 1e9
        cold_ns = (stats.cold_fetch_seconds - before[2]) * 1e9
        rec.add("index.select", span, start_ns, select_ns)
        scan = rec.add("index.scan", span, start_ns + int(select_ns), scan_ns)
        if cold_ns:
            rec.add("storage.cold_fetch", scan, start_ns + int(select_ns), cold_ns)
        ops += 1
    return ops


class StatScan(Workload):
    name = "stat_scan"
    op = "BatchQueryExecutor.query_batch(32 model queries Q = S + dS)"

    def sizes(self, smoke: bool) -> dict:
        return {
            "programmes": 8,
            "frames_per_programme": 120,
            "rows": 100_000 if smoke else 1_000_000,
            "batch": 32,
            "batches": 16 if smoke else 64,
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
        planted = model_queries(
            store, sizes["batch"] * sizes["batches"], sizes["sigma"],
            rng=stream(seed, STREAM_QUERIES),
        )
        return {
            "store": store,
            "queries": planted.queries,
            "originals": planted.originals,
        }

    def build(self, state: State) -> None:
        sizes, inputs = state.sizes, state.inputs
        model = NormalDistortionModel(inputs["store"].ndims, sizes["sigma"])
        with timed(state.layer, "index.build_s"):
            index = S3Index(inputs["store"], model=model, depth=sizes["depth"])
        engine = BatchQueryExecutor(index, options=QueryOptions(
            alpha=sizes["alpha"], batch_size=sizes["batch"], executor="auto",
        ))
        state.resources.callback(engine.close)
        batch = sizes["batch"]
        batches = [
            inputs["queries"][i * batch:(i + 1) * batch]
            for i in range(sizes["batches"])
        ]
        state.live.update(
            index=index, engine=engine, batches=batches, model=model,
        )
        engine.warm()
        for i in range(min(8, len(batches))):  # planner calibrates here
            engine.query_batch(batches[i])

    def clients(self, state: State) -> list[ClientOp]:
        engine, batches = state.live["engine"], state.live["batches"]

        def op(seq: int) -> str:
            engine.query_batch(batches[seq % len(batches)])
            return READ

        return [op]

    def verify(self, state: State) -> Check:
        engine, batches = state.live["engine"], state.live["batches"]
        originals = state.inputs["originals"]
        batch = state.sizes["batch"]
        retrieved = 0
        # Warm-start thresholds make a batch's block set depend on the
        # batches before it; one pass in input order from a cold cache
        # is the same for every run of a seed.
        state.live["index"].reset_threshold_cache()
        for i, queries in enumerate(batches):
            for j, result in enumerate(engine.query_batch(queries)):
                retrieved += bool(np.any(np.all(
                    result.fingerprints == originals[i * batch + j], axis=1
                )))
        rate = retrieved / len(originals)
        floor = state.sizes["alpha"] - ALPHA_TOLERANCE
        return Check(
            rate, rate >= floor,
            f"planted original retrieved for {retrieved}/{len(originals)} "
            f"queries (floor alpha - {ALPHA_TOLERANCE} = {floor:.2f})",
        )

    def trace(self, state: State, rec: Recorder, seconds: float) -> dict:
        engine, batches = state.live["engine"], state.live["batches"]
        index, model = state.live["index"], state.live["model"]
        counters = EngineCounters(engine)
        ops = traced_engine_window(
            engine, batches, rec, seconds, "index.query_batch"
        )
        metrics = engine_metrics(counters)
        # The public single-query path must agree with the batch engine.
        sample = batches[0][:4]
        index.reset_threshold_cache()
        batched = engine.query_batch(sample)
        for query, from_batch in zip(sample, batched):
            index.reset_threshold_cache()
            solo = index.statistical_query(query, state.sizes["alpha"])
            if not np.array_equal(solo.rows, from_batch.rows):
                raise AssertionError("query_batch != statistical_query")
        plan_start = time.perf_counter()
        for _ in range(200):
            engine.plan_batch()
        plan_us = (time.perf_counter() - plan_start) / 200 * 1e6
        mass_start = time.perf_counter()
        for query in batches[0]:
            grid_probability(query, model, index.curve)
        mass_us = (time.perf_counter() - mass_start) / len(batches[0]) * 1e6
        pool = engine.pool_stats() or {}
        return {
            "ops": ops,
            **metrics,
            "index.plan_us_per_batch": plan_us,
            "index.pool_respawns": pool.get("worker_deaths", 0),
            "distortion.mass_eval_us_per_query": mass_us,
        }


WORKLOAD = StatScan()

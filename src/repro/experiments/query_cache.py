"""Serve-path caching — Zipf repeat traffic, warm vs cold.

The monitoring workload the paper targets repeats its material: the
same jingles, idents and ad breaks recur across every monitored
channel, so the fingerprints hitting the service follow a heavy-tailed
rank-frequency law rather than a uniform draw.  The serve-path cache
stack (:mod:`repro.serve.cache` — result LRU and in-flight dedupe)
converts that repetition into skipped engine work while preserving the
contract that every answer is bit-identical to a cold solo
``statistical_query``.

This experiment serves the same Zipf-distributed query trace twice over
real sockets with concurrent clients:

* **cold** — ``cache="off"``: every request runs the engine, the
  pre-cache serving baseline;
* **warm** — ``cache="auto"``: the first pass primes the LRU, the timed
  second pass is answered from it.

The warm pass's served results are verified bit-identical to solo
in-process queries, and the acceptance gate requires the warm pass to
clear :data:`GATE_MIN_SPEEDUP` x the cold QPS.  Results serialise to
``BENCH_query_cache.json``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..corpus.builder import build_reference_corpus
from ..corpus.filler import scale_store
from ..distortion.model import NormalDistortionModel
from ..index.s3 import S3Index
from ..rng import SeedLike, resolve_rng
from ..serve.client import ServeClient
from ..serve.runner import ServerThread
from ..serve.server import ServeConfig
from .common import format_table, host_block

SCHEMA_VERSION = 1

#: Acceptance gate: the cache-warm pass must clear this many times the
#: cold (cache-off) throughput on the repeat-heavy trace.
GATE_MIN_SPEEDUP = 3.0


@dataclass
class QueryCacheBenchResult:
    """Warm-over-cold serving comparison on one Zipf repeat trace."""

    db_rows: int
    unique_queries: int
    num_queries: int
    num_clients: int
    zipf_s: float
    alpha: float
    depth: int
    sigma: float
    ndims: int
    cold_seconds: float
    warm_seconds: float
    prime_seconds: float
    cache_hits: int
    cache_misses: int
    hit_rate: float
    inflight_deduped: int
    cache_entries: int
    bit_identical_results: bool

    @property
    def speedup(self) -> float:
        """Warm (cached) pass over the cold cache-off pass."""
        return self.cold_seconds / max(self.warm_seconds, 1e-9)

    @property
    def cold_qps(self) -> float:
        return self.num_queries / max(self.cold_seconds, 1e-9)

    @property
    def warm_qps(self) -> float:
        return self.num_queries / max(self.warm_seconds, 1e-9)

    def gate_status(self) -> str:
        """Did the >= 3x warm-over-cold gate pass."""
        if self.speedup >= GATE_MIN_SPEEDUP:
            return "passed"
        return (
            f"failed ({self.speedup:.2f}x warm-over-cold, "
            f"needs >= {GATE_MIN_SPEEDUP:.1f}x)"
        )

    def render(self) -> str:
        table = format_table(
            ["serving mode", "total s", "queries/s", "speedup"],
            [
                ("cold (cache off)", self.cold_seconds,
                 self.cold_qps, "1.00x"),
                ("warm (cache primed)", self.warm_seconds,
                 self.warm_qps, f"{self.speedup:.2f}x"),
            ],
            title=(
                f"Serve-path cache — {self.num_queries} Zipf"
                f"(s={self.zipf_s}) queries over {self.unique_queries} "
                f"distinct fingerprints, {self.num_clients} clients, "
                f"{self.db_rows} rows (alpha={self.alpha})"
            ),
        )
        return (
            table
            + f"\ncache: {self.cache_hits} hits / {self.cache_misses} "
            f"misses (rate {self.hit_rate:.2f}), "
            f"{self.inflight_deduped} deduped in flight, "
            f"{self.cache_entries} entries resident\n"
            f"bit-identical to solo in-process queries: "
            f"{self.bit_identical_results}\n"
            f"gate: {self.gate_status()}"
        )

    def to_json(self) -> dict:
        """The machine-readable record (see docs/serving.md)."""
        return {
            "benchmark": "query_cache",
            "schema_version": SCHEMA_VERSION,
            "host": host_block(),
            "config": {
                "db_rows": self.db_rows,
                "unique_queries": self.unique_queries,
                "num_queries": self.num_queries,
                "num_clients": self.num_clients,
                "zipf_s": self.zipf_s,
                "alpha": self.alpha,
                "depth": self.depth,
                "sigma": self.sigma,
                "ndims": self.ndims,
            },
            "timing": {
                "cold_seconds": self.cold_seconds,
                "prime_seconds": self.prime_seconds,
                "warm_seconds": self.warm_seconds,
                "cold_qps": self.cold_qps,
                "warm_qps": self.warm_qps,
                "speedup": self.speedup,
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.hit_rate,
                "inflight_deduped": self.inflight_deduped,
                "entries": self.cache_entries,
            },
            "equivalence": {
                "bit_identical_results": self.bit_identical_results,
            },
            "gate": self.gate_status(),
        }

    def write_json(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path


def zipf_trace(
    pool: np.ndarray, num_queries: int, s: float, rng
) -> np.ndarray:
    """Draw *num_queries* rows from *pool* under a Zipf(s) rank law.

    Rank ``k`` (1-based, in pool order) is drawn with probability
    proportional to ``1 / k**s`` — the classic heavy-tailed repeat
    shape of broadcast monitoring traffic.
    """
    ranks = np.arange(1, pool.shape[0] + 1, dtype=np.float64)
    weights = 1.0 / ranks**s
    picks = rng.choice(pool.shape[0], size=num_queries, p=weights / weights.sum())
    return pool[picks]


def _serve_passes(
    index: S3Index,
    chunks: list[np.ndarray],
    config: ServeConfig,
    passes: int,
    collect_last: bool,
) -> tuple[list[float], dict, Optional[list[list]]]:
    """Serve the chunked trace *passes* times; time each pass.

    Every client thread holds one chunk and one connection for the
    whole run; barriers align pass boundaries so each pass's wall time
    is the full concurrent replay of the trace.  With *collect_last*,
    the final pass's served results (with fingerprints) are returned
    for the equivalence check.
    """
    served: list[Optional[list]] = [None] * len(chunks)
    errors: list[BaseException] = []
    parties = len(chunks) + 1
    starts = [threading.Barrier(parties) for _ in range(passes)]
    dones = [threading.Barrier(parties) for _ in range(passes)]

    with ServerThread(index, config) as server:
        def run_client(i: int) -> None:
            try:
                with ServeClient(
                    port=server.port, timeout=60.0, backoff=0.002
                ) as client:
                    for p in range(passes):
                        collect = collect_last and p == passes - 1
                        starts[p].wait()
                        results = []
                        for query in chunks[i]:
                            (result,) = client.query(
                                query, include_fingerprints=collect
                            )
                            if collect:
                                results.append(result)
                        if collect:
                            served[i] = results
                        dones[p].wait()
            except BaseException as exc:
                errors.append(exc)
                for barrier in starts + dones:
                    barrier.abort()

        threads = [
            threading.Thread(target=run_client, args=(i,))
            for i in range(len(chunks))
        ]
        for t in threads:
            t.start()
        seconds = []
        for p in range(passes):
            starts[p].wait()
            t0 = time.perf_counter()
            dones[p].wait()
            seconds.append(time.perf_counter() - t0)
        for t in threads:
            t.join()
        stats = server.server.stats_snapshot()
    if errors:
        raise errors[0]
    return seconds, stats, served if collect_last else None


def run_query_cache(
    db_rows: int = 50_000,
    unique_queries: int = 64,
    num_queries: int = 512,
    num_clients: int = 8,
    zipf_s: float = 1.1,
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
    alpha: float = 0.8,
    sigma: float = 10.0,
    seed: SeedLike = 0,
    json_path: Optional[Path] = None,
) -> QueryCacheBenchResult:
    """Benchmark cached serving against cache-off serving.

    Builds a *db_rows* synthetic corpus, draws a *num_queries*-long
    Zipf repeat trace over *unique_queries* distinct distorted
    fingerprints, splits it across *num_clients* concurrent clients,
    and serves it cold (``cache="off"``) and warm (``cache="auto"``,
    primed by a first pass).
    """
    rng = resolve_rng(seed)
    corpus = build_reference_corpus(8, 120, seed=rng)
    store = scale_store(corpus.store, db_rows, rng=rng)
    model = NormalDistortionModel(store.ndims, sigma)
    index = S3Index(store, model=model)

    base_rows = np.arange(unique_queries) % len(corpus.store)
    pool = np.clip(
        corpus.store.fingerprints[base_rows].astype(np.float64)
        + model.sample(unique_queries, rng=rng),
        0.0, 255.0,
    )
    trace = zipf_trace(pool, num_queries, zipf_s, rng)
    chunks = np.array_split(trace, num_clients)

    def config(cache: str) -> ServeConfig:
        return ServeConfig(
            port=0,
            alpha=alpha,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            queue_limit=max(1024, num_queries),
            cache=cache,
        )

    (cold_seconds,), _, _ = _serve_passes(
        index, chunks, config("off"), passes=1, collect_last=False
    )
    (prime_seconds, warm_seconds), stats, served = _serve_passes(
        index, chunks, config("auto"), passes=2, collect_last=True
    )
    cache_stats = stats["cache"]

    bit_identical = True
    for chunk, results in zip(chunks, served):
        for query, result in zip(chunk, results):
            solo = index.statistical_query(query, alpha)
            if not (
                np.array_equal(solo.rows, result.rows)
                and np.array_equal(solo.ids, result.ids)
                and np.array_equal(solo.timecodes, result.timecodes)
                and np.array_equal(solo.fingerprints, result.fingerprints)
            ):
                bit_identical = False

    result = QueryCacheBenchResult(
        db_rows=len(store),
        unique_queries=unique_queries,
        num_queries=num_queries,
        num_clients=num_clients,
        zipf_s=zipf_s,
        alpha=alpha,
        depth=index.depth,
        sigma=sigma,
        ndims=store.ndims,
        cold_seconds=cold_seconds,
        prime_seconds=prime_seconds,
        warm_seconds=warm_seconds,
        cache_hits=cache_stats["hits"],
        cache_misses=cache_stats["misses"],
        hit_rate=cache_stats["hit_rate"],
        inflight_deduped=cache_stats["inflight_deduped"],
        cache_entries=cache_stats["entries"],
        bit_identical_results=bit_identical,
    )
    if json_path is not None:
        result.write_json(json_path)
    return result

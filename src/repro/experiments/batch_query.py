"""Batched query engine — throughput versus the per-fingerprint loop.

The paper's deployment answers one statistical query per candidate
key-frame.  The batched engine (:mod:`repro.index.batch`) amortises that
work across a frame batch: one shared multi-query descent per threshold
probe and one coalesced scan of the union of the selected curve
sections.  This experiment quantifies the trade on a synthetic corpus
and **verifies bit-identity** where the engine promises it:

* **sequential (warm)** — the legacy production loop: one
  ``statistical_query`` per fingerprint, warm-start threshold cache
  chained from query to query;
* **sequential (deterministic)** — the history-free mode: the cache is
  reset before every query, so each runs the cold-start threshold
  search;
* **batched (deterministic)** — the engine with the cache reset before
  every batch: every query in a batch runs the same cold-start search,
  so each result is **bit-identical** to the deterministic sequential
  loop (the property tested in ``tests/index/test_batch.py``), and the
  voting stage therefore reports bit-identical detections.

The warm and deterministic sequential baselines bracket the engine's
speedup: the warm loop is the fastest sequential configuration, the
deterministic loop the one the engine's results exactly reproduce.

Results serialise to ``BENCH_batch_query.json`` (schema in
``docs/batch-query.md``) so later PRs have a perf trajectory to regress
against.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..cbcd.voting import vote
from ..corpus.builder import build_reference_corpus
from ..corpus.filler import scale_store
from ..distortion.model import NormalDistortionModel
from ..index.batch import BatchQueryExecutor
from ..index.options import QueryOptions
from ..index.s3 import S3Index
from ..rng import SeedLike, resolve_rng
from .common import format_table, host_block

SCHEMA_VERSION = 2


@dataclass
class BatchQueryBenchResult:
    """Timings + equivalence checks of one batched-query benchmark run."""

    db_rows: int
    num_queries: int
    batch_size: int
    alpha: float
    depth: int
    sigma: float
    ndims: int
    sequential_warm_seconds: float
    sequential_deterministic_seconds: float
    batched_seconds: float
    logical_rows: int
    unique_rows: int
    bit_identical_results: bool
    identical_detections: bool
    num_detections: int

    @property
    def speedup_vs_warm(self) -> float:
        """Batched over the legacy warm-chained sequential loop."""
        return self.sequential_warm_seconds / max(self.batched_seconds, 1e-9)

    @property
    def speedup_vs_deterministic(self) -> float:
        """Batched over the sequential loop it bit-exactly reproduces."""
        return self.sequential_deterministic_seconds / max(
            self.batched_seconds, 1e-9
        )

    @property
    def coalescing_factor(self) -> float:
        """Logical rows scanned per physically gathered row."""
        if self.unique_rows == 0:
            return 1.0
        return self.logical_rows / self.unique_rows

    def render(self) -> str:
        per_q = 1e3 / max(self.num_queries, 1)
        table = format_table(
            ["strategy", "total s", "ms/query", "speedup"],
            [
                ("sequential (warm cache)", self.sequential_warm_seconds,
                 self.sequential_warm_seconds * per_q, "1.00x"),
                ("sequential (deterministic)",
                 self.sequential_deterministic_seconds,
                 self.sequential_deterministic_seconds * per_q,
                 f"{self.sequential_warm_seconds / max(self.sequential_deterministic_seconds, 1e-9):.2f}x"),
                (f"batched (B={self.batch_size})",
                 self.batched_seconds, self.batched_seconds * per_q,
                 f"{self.speedup_vs_warm:.2f}x"),
            ],
            title=(
                f"Batched statistical queries — {self.num_queries} queries "
                f"against {self.db_rows} fingerprints "
                f"(alpha={self.alpha}, depth={self.depth})"
            ),
        )
        return (
            table
            + f"\nspeedup: {self.speedup_vs_warm:.2f}x over the warm "
            f"sequential loop, {self.speedup_vs_deterministic:.2f}x over "
            "the deterministic loop\n"
            f"coalescing: {self.logical_rows} logical rows -> "
            f"{self.unique_rows} gathered ({self.coalescing_factor:.2f}x)\n"
            f"bit-identical results: {self.bit_identical_results}; "
            f"identical detections: {self.identical_detections} "
            f"({self.num_detections} detections)"
        )

    def to_json(self) -> dict:
        """The machine-readable record (see docs/batch-query.md)."""
        return {
            "benchmark": "batch_query",
            "schema_version": SCHEMA_VERSION,
            "host": host_block(),
            "config": {
                "db_rows": self.db_rows,
                "num_queries": self.num_queries,
                "batch_size": self.batch_size,
                "alpha": self.alpha,
                "depth": self.depth,
                "sigma": self.sigma,
                "ndims": self.ndims,
            },
            "timing": {
                "sequential_warm_seconds": self.sequential_warm_seconds,
                "sequential_deterministic_seconds":
                    self.sequential_deterministic_seconds,
                "batched_seconds": self.batched_seconds,
                "speedup_vs_warm": self.speedup_vs_warm,
                "speedup_vs_deterministic": self.speedup_vs_deterministic,
            },
            "coalescing": {
                "logical_rows": self.logical_rows,
                "unique_rows": self.unique_rows,
                "factor": self.coalescing_factor,
            },
            "equivalence": {
                "bit_identical_results": self.bit_identical_results,
                "identical_detections": self.identical_detections,
                "num_detections": self.num_detections,
            },
        }

    def write_json(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path


def _detections(results, timecodes, decision_threshold=5):
    """Run the temporal voting stage and report comparable detections."""
    votes = vote(
        (tc, r.ids, r.timecodes) for tc, r in zip(timecodes, results)
    )
    return [
        (v.video_id, round(v.offset, 9), v.nsim)
        for v in votes
        if v.nsim >= decision_threshold
    ]


def run_batch_query(
    db_rows: int = 50_000,
    num_queries: int = 256,
    batch_size: int = 64,
    alpha: float = 0.8,
    sigma: float = 10.0,
    seed: SeedLike = 0,
    json_path: Optional[Path] = None,
) -> BatchQueryBenchResult:
    """Benchmark the batched engine against the per-fingerprint loop.

    Builds a *db_rows* synthetic corpus, simulates a candidate clip as a
    contiguous run of referenced key-frames under the distortion model,
    then times the three strategies and verifies bit-identity between
    the deterministic sequential loop and the deterministic batched run.
    """
    rng = resolve_rng(seed)
    corpus = build_reference_corpus(8, 120, seed=rng)
    store = scale_store(corpus.store, db_rows, rng=rng)
    model = NormalDistortionModel(store.ndims, sigma)
    index = S3Index(store, model=model)

    # Candidate clip: num_queries consecutive referenced key-frames,
    # distorted by the model — temporally adjacent queries select
    # overlapping blocks, the workload coalescing targets.
    base_rows = np.arange(num_queries) % len(corpus.store)
    queries = np.clip(
        corpus.store.fingerprints[base_rows].astype(np.float64)
        + model.sample(num_queries, rng=rng),
        0.0, 255.0,
    )
    timecodes = corpus.store.timecodes[base_rows]

    # Legacy production loop: warm-start cache chained across queries.
    index.reset_threshold_cache()
    t0 = time.perf_counter()
    for q in queries:
        index.statistical_query(q, alpha)
    sequential_warm = time.perf_counter() - t0

    # Deterministic loop: cold threshold search per query.
    t0 = time.perf_counter()
    seq_results = []
    for q in queries:
        index.reset_threshold_cache()
        seq_results.append(index.statistical_query(q, alpha))
    sequential_det = time.perf_counter() - t0

    # Deterministic batched: cold start per batch — every query runs the
    # same cold search the deterministic loop ran, so results must be
    # bit-identical.
    executor = BatchQueryExecutor(
        index, options=QueryOptions(alpha=alpha, batch_size=batch_size)
    )
    t0 = time.perf_counter()
    batch_results = []
    for start in range(0, num_queries, batch_size):
        index.reset_threshold_cache()
        batch_results.extend(
            executor.query_batch(queries[start:start + batch_size])
        )
    batched = time.perf_counter() - t0

    bit_identical = all(
        np.array_equal(a.rows, b.rows)
        and np.array_equal(a.ids, b.ids)
        and np.array_equal(a.timecodes, b.timecodes)
        and np.array_equal(a.fingerprints, b.fingerprints)
        for a, b in zip(seq_results, batch_results)
    )
    det_seq = _detections(seq_results, timecodes)
    det_batch = _detections(batch_results, timecodes)

    result = BatchQueryBenchResult(
        db_rows=len(store),
        num_queries=num_queries,
        batch_size=batch_size,
        alpha=alpha,
        depth=index.depth,
        sigma=sigma,
        ndims=store.ndims,
        sequential_warm_seconds=sequential_warm,
        sequential_deterministic_seconds=sequential_det,
        batched_seconds=batched,
        logical_rows=executor.stats.logical_rows,
        unique_rows=executor.stats.unique_rows,
        bit_identical_results=bit_identical,
        identical_detections=det_seq == det_batch,
        num_detections=len(det_batch),
    )
    if json_path is not None:
        result.write_json(json_path)
    return result

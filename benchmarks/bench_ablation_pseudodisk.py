"""Ablation — pseudo-disk batching: T_tot = T + T_load/N_sig (eq. 5).

Paper claim (§IV-B): when the database exceeds RAM, batching N_sig
queries amortises the loading time, so the per-query cost falls as the
batch grows.

Here the database is a segmented index whose 16 sealed segments are all
cold: their rows live only in a blob backend that sleeps ``LATENCY_S``
per call.  A batch fetches each cold segment it touches once — one
``get_ranges`` call carrying the union of the batch's selected row
ranges — so the fetches per query fall as 1/N_sig, and the measured
fetch time per query is bounded below by ``fetches · LATENCY_S``.  The
bytes per query barely fall: independent queries rarely share rows.

The same fetch accounting, scored against eq. (5)'s byte prediction, is
the tier-1 test ``tests/storage/test_eq5_bytes.py``.
"""

import time
from dataclasses import dataclass

import numpy as np
from conftest import run_and_report

from repro.corpus.workload import model_queries
from repro.distortion.model import NormalDistortionModel
from repro.experiments.common import format_table
from repro.experiments.fig56_alpha_sweep import _synthetic_store
from repro.index.batch import BatchQueryExecutor
from repro.index.options import QueryOptions
from repro.index.segmented import SegmentedS3Index
from repro.storage import FakeBlobBackend, StorageConfig

ROWS = 120_000
SEGMENTS = 16
QUERIES = 64
SIGMA = 18.0
ALPHA = 0.8
LATENCY_S = 0.002
BATCH_SIZES = (1, 4, 16, 64)


@dataclass
class BatchingAblation:
    segments: int
    rows: list[tuple]

    def render(self) -> str:
        return format_table(
            [
                "N_sig", "ms / query", "fetches / query",
                "T_load/N_sig measured (ms)", "predicted (ms)", "KB / query",
            ],
            self.rows,
            title=(
                f"Ablation — pseudo-disk batch size (eq. 5), "
                f"{self.segments} cold segments, {LATENCY_S * 1e3:g} ms "
                "per backend call"
            ),
        )


def _run(tmp_dir) -> BatchingAblation:
    rng = np.random.default_rng(0)
    store = _synthetic_store(ROWS, rng)
    backend = FakeBlobBackend()
    index = SegmentedS3Index.create(
        tmp_dir / "db", ndims=20, model=NormalDistortionModel(20, SIGMA),
        flush_rows=ROWS + 1, auto_compact=False, durability="async",
        storage=StorageConfig(budget_bytes=0, backend=backend),
    )
    for rows in np.array_split(np.arange(ROWS), SEGMENTS):
        index.add(
            store.fingerprints[rows], store.ids[rows], store.timecodes[rows]
        )
        index.flush()  # seals a segment, which demotes at budget 0
    backend.latency_s = LATENCY_S
    queries = model_queries(store, QUERIES, SIGMA, rng=rng).queries

    table = []
    try:
        for n_sig in BATCH_SIZES:
            executor = BatchQueryExecutor(
                index, options=QueryOptions(alpha=ALPHA, batch_size=n_sig)
            )
            fetches = index.storage.stats.fetches
            start = time.perf_counter()
            executor.query_all(queries)
            seconds = time.perf_counter() - start
            fetches = index.storage.stats.fetches - fetches
            stats = executor.stats
            assert fetches == stats.cold_segments
            table.append((
                n_sig,
                seconds / QUERIES * 1e3,
                fetches / QUERIES,
                stats.cold_fetch_seconds / QUERIES * 1e3,
                fetches * LATENCY_S / QUERIES * 1e3,
                stats.cold_bytes / QUERIES / 1e3,
            ))
        cold = sum(seg.meta.tier == "cold" for seg in index._segments)
    finally:
        index.close()
    return BatchingAblation(segments=cold, rows=table)


def test_batching_amortises_loads(benchmark, capsys, tmp_path):
    result = run_and_report(benchmark, capsys, lambda: _run(tmp_path))
    assert result.segments == SEGMENTS
    for n_sig, _, per_query, measured, predicted, _ in result.rows:
        # One fetch per cold segment a batch touches, and a batch of
        # independent queries touches (nearly) every segment.
        assert per_query <= SEGMENTS / n_sig
        assert per_query >= 0.95 * SEGMENTS / n_sig
        # Every fetch sleeps LATENCY_S: the prediction is a lower bound.
        assert measured >= predicted

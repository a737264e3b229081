"""Ablation — pseudo-disk batching: T_tot = T + T_load/N_sig (eq. 5).

Paper claim: batching N_sig queries amortises the section-loading time, so
the per-query cost falls as the batch grows and the loading volume per
query becomes sub-linear in the DB size.

The same eq.-(5) accounting, scored against real bytes fetched from a
blob backend by cold-segment scans, is the tier-1 test
``tests/storage/test_eq5_bytes.py``.
"""

from dataclasses import dataclass

import numpy as np
from conftest import run_and_report

from repro.corpus.workload import model_queries
from repro.distortion.model import NormalDistortionModel
from repro.experiments.common import format_table
from repro.experiments.fig56_alpha_sweep import _synthetic_store
from repro.index.pseudodisk import PseudoDiskSearcher
from repro.index.s3 import S3Index


@dataclass
class PseudoDiskAblation:
    rows: list[tuple]

    def render(self) -> str:
        return format_table(
            [
                "N_sig", "per-query total (ms)", "per-query load (MB)",
                "sections loaded",
            ],
            self.rows,
            title="Ablation — pseudo-disk batch size (eq. 5)",
        )


def _run(tmp_dir) -> PseudoDiskAblation:
    rng = np.random.default_rng(0)
    store = _synthetic_store(120_000, rng)
    model = NormalDistortionModel(20, 18.0)
    index = S3Index(store, model=model)
    prefix = tmp_dir / "db"
    index.save(prefix)

    searcher = PseudoDiskSearcher(
        str(prefix) + ".store", model, memory_rows=len(store) // 8,
        depth=index.depth,
    )
    workload = model_queries(index.store, 64, 18.0, rng=rng)
    rows = []
    for n_sig in (1, 4, 16, 64):
        _, stats = searcher.search_batch(workload.queries[:n_sig], 0.8)
        rows.append(
            (
                n_sig,
                stats.seconds_per_query * 1e3,
                stats.bytes_loaded / stats.num_queries / 1e6,
                stats.sections_loaded,
            )
        )
    return PseudoDiskAblation(rows=rows)


def test_batching_amortises_loads(benchmark, capsys, tmp_path):
    result = run_and_report(benchmark, capsys, lambda: _run(tmp_path))
    per_query_mb = [row[2] for row in result.rows]
    # Load volume per query falls monotonically with the batch size.
    assert per_query_mb == sorted(per_query_mb, reverse=True)
    assert per_query_mb[-1] < per_query_mb[0] / 2


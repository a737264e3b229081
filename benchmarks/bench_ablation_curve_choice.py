"""Ablation — Hilbert curve vs Z-order (Morton) ordering.

The paper adopts the Hilbert curve following Faloutsos: "the Hilbert's
curve clustering property limits the number and the dispersion of these
sections".  This ablation builds the same database under both orderings
and measures, for the same statistical queries, how many contiguous row
sections the selected blocks merge into — the direct driver of refinement
memory-access dispersion.
"""

from dataclasses import dataclass

import numpy as np
from conftest import run_and_report

from repro.corpus.workload import model_queries
from repro.distortion.model import NormalDistortionModel
from repro.experiments.common import format_table
from repro.experiments.fig56_alpha_sweep import _synthetic_store
from repro.hilbert.morton import MortonIndex
from repro.index.s3 import S3Index


@dataclass
class CurveAblation:
    rows: list[tuple]

    def render(self) -> str:
        return format_table(
            ["depth p", "Hilbert sections/query", "Morton sections/query",
             "Hilbert rows/query", "Morton rows/query"],
            self.rows,
            title="Ablation — curve choice: Hilbert vs Z-order (sec IV)",
        )


def _run() -> CurveAblation:
    rng = np.random.default_rng(0)
    store = _synthetic_store(100_000, rng)
    sigma = 18.0
    model = NormalDistortionModel(20, sigma)
    workload = model_queries(store, 25, sigma, rng=rng)

    rows = []
    for depth in (12, 16, 20):
        hilbert = S3Index(store, model=model, depth=depth)
        morton = MortonIndex(store, model=model, depth=depth)
        h_sections = h_rows = m_sections = m_rows = 0
        for q in workload.queries:
            selection = hilbert.block_selection(q, 0.8)
            ranges = hilbert.layout.block_row_ranges(
                selection.prefixes, selection.depth
            )
            h_sections += len(ranges)
            h_rows += sum(e - s for s, e in ranges)
            m_row_ids, _, sections = morton.statistical_query(q, 0.8)
            m_sections += sections
            m_rows += m_row_ids.size
        n = len(workload)
        rows.append(
            (depth, h_sections / n, m_sections / n, h_rows / n, m_rows / n)
        )
    return CurveAblation(rows=rows)


def test_hilbert_limits_section_dispersion(benchmark, capsys):
    result = run_and_report(benchmark, capsys, _run)
    for depth, h_sec, m_sec, _h_rows, _m_rows in result.rows:
        assert h_sec <= m_sec, f"Morton beat Hilbert at depth {depth}"
    # The advantage grows with depth (finer partitions fragment Z-order).
    gaps = [m / max(h, 1e-9) for _, h, m, _, _ in result.rows]
    assert gaps[-1] >= gaps[0] * 0.8  # at least not collapsing

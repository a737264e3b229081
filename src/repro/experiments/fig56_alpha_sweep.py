"""Figs. 5 & 6 — statistical query vs. exact ε-range query across α.

The paper's §V-A protocol: 1000 queries ``Q = S + ΔS`` are planted around
real stored fingerprints with i.i.d. ``N(0, σ_Q = 18)`` distortions.  For
each expectation α, both query types run on the same index — the ε-range
radius chosen so the sphere carries the same distortion mass α
(``∫_0^ε p_‖ΔS‖ = α``).  Measured per α:

* Fig. 5: retrieval rate (fraction of queries whose original ``S`` is in
  the results) — near-identical for the two query types;
* Fig. 6: mean search time — the statistical query is 17–132× faster in
  the paper, because the sphere's geometric constraint intersects a huge
  number of p-blocks in high dimension.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..corpus.workload import model_queries
from ..distortion.model import NormalDistortionModel
from ..distortion.radial import radius_for_expectation
from ..index.s3 import S3Index
from ..index.store import FingerprintStore
from ..rng import SeedLike, resolve_rng
from .common import Series, format_table


@dataclass
class AlphaSweepRow:
    """One α of Figs. 5/6: retrieval and time for both query types."""

    alpha: float
    epsilon: float
    stat_retrieval: float
    range_retrieval: float
    stat_seconds: float
    range_seconds: float
    stat_rows_scanned: float
    range_rows_scanned: float

    @property
    def speedup(self) -> float:
        """Fig. 6 headline ratio: range time over statistical time."""
        if self.stat_seconds <= 0:
            return float("inf")
        return self.range_seconds / self.stat_seconds


@dataclass
class Fig56Result:
    """The full statistical-vs-range sweep (Figs. 5 and 6)."""

    sigma_q: float
    db_rows: int
    rows: list[AlphaSweepRow]
    retrieval_stat: Series
    retrieval_range: Series
    time_stat: Series
    time_range: Series

    def render(self) -> str:
        body = [
            (
                r.alpha * 100,
                r.epsilon,
                r.stat_retrieval * 100,
                r.range_retrieval * 100,
                r.stat_seconds * 1e3,
                r.range_seconds * 1e3,
                r.speedup,
            )
            for r in self.rows
        ]
        table = format_table(
            [
                "alpha (%)", "epsilon", "R stat (%)", "R range (%)",
                "t stat (ms)", "t range (ms)", "range/stat",
            ],
            body,
            title=(
                f"Figs. 5 & 6 — statistical vs eps-range "
                f"(sigma_Q={self.sigma_q}, DB={self.db_rows} rows)"
            ),
        )
        from .ascii_plot import render_plot

        fig5 = render_plot(
            [self.retrieval_stat, self.retrieval_range],
            width=56, height=10,
            title="\nFig. 5 — retrieval rate vs alpha",
        )
        fig6 = render_plot(
            [self.time_stat, self.time_range],
            width=56, height=10, logy=True,
            title="\nFig. 6 — mean search time (s) vs alpha (log y)",
        )
        return table + "\n" + fig5 + "\n" + fig6 + (
            "\nExpected shape: comparable retrieval (Fig. 5); statistical "
            "query markedly faster (Fig. 6, paper: 17-132x)."
        )


def run_fig56(
    alphas: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95),
    store: FingerprintStore | None = None,
    db_rows: int = 200_000,
    num_queries: int = 200,
    num_range_queries: int | None = 40,
    sigma_q: float = 18.0,
    depth: int | None = 24,
    range_depth: int | None = None,
    seed: SeedLike = 0,
) -> Fig56Result:
    """Reproduce Figs. 5 and 6 at laptop scale.

    *num_range_queries* caps the (much slower) ε-range side; ``None`` runs
    every query through both types.  *store* defaults to a synthetic
    clustered database of *db_rows* rows.

    Both query types run on the same structure at the same partition depth
    (default 24).  The depth matters for the *magnitude* of Fig. 6's gap:
    the number of p-blocks an equal-expectation sphere intersects grows
    exponentially with p (≈800 at p=16 but ≈70,000 at p=28 on a 200k-row
    store), which is precisely the geometric-constraint cost the paper
    attributes the 17-132x slow-down to.
    """
    rng = resolve_rng(seed)
    if store is None:
        store = _synthetic_store(db_rows, rng)
    model = NormalDistortionModel(store.ndims, sigma_q)
    index = S3Index(store, model=model, depth=depth)
    workload = model_queries(store, num_queries, sigma_q, rng=rng)
    n_range = num_queries if num_range_queries is None else min(
        num_range_queries, num_queries
    )

    rows: list[AlphaSweepRow] = []
    r_stat = Series("statistical query")
    r_range = Series("range query")
    t_stat = Series("statistical query")
    t_range = Series("spherical range query")
    # One untimed query of each type first, so the first alpha row does
    # not pay the process's cold start (imports, allocator, caches).
    index.statistical_query(workload.queries[0], alphas[0])
    index.range_query(
        workload.queries[0],
        radius_for_expectation(alphas[0], store.ndims, sigma_q),
        depth=range_depth,
    )
    for alpha in alphas:
        epsilon = radius_for_expectation(alpha, store.ndims, sigma_q)

        stat_hits = 0
        stat_time = 0.0
        stat_rows = 0.0
        for i in range(num_queries):
            t0 = time.perf_counter()
            result = index.statistical_query(workload.queries[i], alpha)
            stat_time += time.perf_counter() - t0
            stat_rows += result.stats.rows_scanned
            if workload.retrieved(i, result.fingerprints):
                stat_hits += 1

        range_hits = 0
        range_time = 0.0
        range_rows = 0.0
        for i in range(n_range):
            t0 = time.perf_counter()
            result = index.range_query(
                workload.queries[i], epsilon, depth=range_depth
            )
            range_time += time.perf_counter() - t0
            range_rows += result.stats.rows_scanned
            if workload.retrieved(i, result.fingerprints):
                range_hits += 1

        row = AlphaSweepRow(
            alpha=alpha,
            epsilon=epsilon,
            stat_retrieval=stat_hits / num_queries,
            range_retrieval=range_hits / n_range,
            stat_seconds=stat_time / num_queries,
            range_seconds=range_time / n_range,
            stat_rows_scanned=stat_rows / num_queries,
            range_rows_scanned=range_rows / n_range,
        )
        rows.append(row)
        r_stat.add(alpha, row.stat_retrieval)
        r_range.add(alpha, row.range_retrieval)
        t_stat.add(alpha, row.stat_seconds)
        t_range.add(alpha, row.range_seconds)

    return Fig56Result(
        sigma_q=sigma_q,
        db_rows=len(store),
        rows=rows,
        retrieval_stat=r_stat,
        retrieval_range=r_range,
        time_stat=t_stat,
        time_range=t_range,
    )


def _synthetic_store(db_rows: int, rng: np.random.Generator) -> FingerprintStore:
    """Clustered byte points mimicking extracted-fingerprint statistics."""
    num_centers = max(db_rows // 1000, 20)
    centers = rng.integers(25, 231, size=(num_centers, 20))
    assign = rng.integers(0, num_centers, size=db_rows)
    points = np.clip(
        centers[assign] + rng.normal(0.0, 12.0, (db_rows, 20)), 0, 255
    ).astype(np.uint8)
    return FingerprintStore(
        fingerprints=points,
        ids=(np.arange(db_rows, dtype=np.uint32) // 500),
        timecodes=rng.uniform(0, 250.0, db_rows),
    )

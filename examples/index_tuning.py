"""Index tuning — partition depth and the pseudo-disk strategy (§IV-A/B).

Demonstrates the two operational knobs of the S³ index:

* the partition depth ``p`` trades filtering time against refinement time;
  ``tune_depth`` learns the minimum of ``T(p)`` on sample queries, exactly
  as the paper does at the start of the retrieval stage;
* when the database exceeds memory, its segments live in a cold blob
  tier and a batch of ``N_sig`` queries fetches each segment it touches
  once; eq. (5)'s ``T_load / N_sig`` amortisation is visible directly in
  the per-query cost.

Run:  python examples/index_tuning.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import NormalDistortionModel, S3Index, SegmentedS3Index, tune_depth
from repro.corpus import model_queries
from repro.experiments.fig56_alpha_sweep import _synthetic_store
from repro.index import BatchQueryExecutor, QueryOptions, profile_depths
from repro.storage import FakeBlobBackend, StorageConfig


def main() -> None:
    rng = np.random.default_rng(0)
    print("building a 150k-fingerprint store ...")
    store = _synthetic_store(150_000, rng)
    sigma = 18.0
    index = S3Index(store, model=NormalDistortionModel(20, sigma))
    workload = model_queries(store, 20, sigma, rng=rng)

    # --- depth profile -----------------------------------------------------
    print("\nT(p) = T_f(p) + T_r(p) on sample queries:")
    depths = [6, 10, 14, 18, 22, 26]
    for profile in profile_depths(index, workload.queries, 0.8, depths):
        bar = "#" * max(int(profile.total_seconds * 2500), 1)
        print(f"  p={profile.depth:2d}  T_f={profile.filter_seconds * 1e3:6.2f} ms  "
              f"T_r={profile.refine_seconds * 1e3:6.2f} ms  "
              f"rows={profile.rows_scanned:8.0f}  {bar}")
    best, _ = tune_depth(index, workload.queries, 0.8, depths=depths)
    print(f"  learned p_min = {best} (index updated)")
    print("  (at laptop scale the vectorised refinement is so cheap that")
    print("   p_min can sit at the shallow end; the opposing T_f/T_r trends")
    print("   - the paper's sec IV-A - are what the profile shows)")

    # --- pseudo-disk: every segment cold, 2 ms per backend call ----------
    print("\npseudo-disk strategy (8 segments, all in a cold blob tier):")
    with tempfile.TemporaryDirectory() as tmp:
        backend = FakeBlobBackend()
        live = SegmentedS3Index.create(
            Path(tmp) / "live", ndims=20, model=NormalDistortionModel(20, sigma),
            flush_rows=len(store) + 1, durability="async",
            storage=StorageConfig(budget_bytes=0, backend=backend),
        )
        for rows in np.array_split(np.arange(len(store)), 8):
            live.add(store.fingerprints[rows], store.ids[rows], store.timecodes[rows])
            live.flush()  # each sealed segment demotes at budget 0
        backend.latency_s = 0.002
        for n_sig in (1, 5, 20):
            engine = BatchQueryExecutor(
                live, options=QueryOptions(alpha=0.8, batch_size=n_sig)
            )
            start = time.perf_counter()
            engine.query_all(workload.queries)
            stats, n = engine.stats, len(workload.queries)
            print(f"  N_sig={n_sig:3d}: {(time.perf_counter() - start) / n * 1e3:6.2f} ms/query, "
                  f"{stats.cold_segments / n:5.2f} fetches/query, "
                  f"{stats.cold_bytes / n / 1e3:5.1f} KB/query")
        live.close()
    print("\nfetches per query fall as 1/N_sig - the T_load/N_sig")
    print("amortisation of eq. (5); bytes per query stay nearly flat, since")
    print("each fetch reads only the rows the batch's selected blocks hold.")


if __name__ == "__main__":
    main()

"""Tiered storage — measured cold bytes vs the eq.-(5) disk model.

The paper's pseudo-disk experiment (§IV-B) predicts the loading cost of
a batch with ``T_tot = T + T_load / N_sig``: block selection is free,
and the bytes actually read are the selected sections times the row
stride.  The tiered-storage subsystem (:mod:`repro.storage`) makes that
model physical — cold segments live in a blob backend, and a batch
fetches exactly the coalesced row ranges its block selection chose, in
the same ``ndims + 4 + 8`` bytes/row units the pseudo-disk accounting
uses (:func:`repro.storage.coldseg.row_bytes`).

This experiment closes the loop between the two:

* build a segmented archive, answer a query batch **all-RAM** (the
  reference results and baseline timing);
* reopen it with a RAM budget below 25% of the archive so most
  segments demote to a real file-backed blob store, answer the same
  batch through the batched engine, and require **bit-identical**
  results;
* predict the batch's load volume from pre-demotion copies of the
  segments that went cold, and gate the measured backend bytes within
  :data:`MODEL_TOLERANCE` of the prediction.

The prediction comes in two readings of the same model.  The gated one
is the *fine-granularity limit* of eq. (5): stage-1 block selection
over each cold segment (run through the pseudo-disk's own layout and
threshold machinery, independent of the tier manager's sidecar path),
its per-query row ranges merged into the batch union, times the
``ndims + 4 + 8`` row stride — the bytes a disk that can seek to
arbitrary rows must read for this batch.  The second, reported as
context, is :class:`~repro.index.pseudodisk.PseudoDiskSearcher`'s own
``bytes_loaded`` with the curve split into ``2^r`` regular sections
(:data:`MODEL_SECTIONS` per segment): it rounds every load up to
section boundaries, so it upper-bounds the limit and converges to it
as ``r`` grows.

Both runs use ``prefilter="off"`` so measurement and model share the
same selection basis (the sketch tier only *removes* fetch bytes; its
effect is scored by ``BENCH_prefilter.json``).  Results serialise to
``BENCH_storage_tiers.json``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..distortion.model import NormalDistortionModel
from ..index.batch import BatchQueryExecutor
from ..index.filtering import statistical_blocks_cached
from ..index.options import QueryOptions
from ..index.pseudodisk import PseudoDiskSearcher
from ..index.segmented import CompactionPolicy, SegmentedS3Index
from ..rng import SeedLike, resolve_rng
from ..storage import StorageConfig
from ..storage.coldseg import row_bytes
from .common import format_table, host_block

SCHEMA_VERSION = 1

NDIMS = 20

#: Acceptance gate: measured per-query backend bytes must land within
#: this relative distance of the eq.-(5) prediction.
MODEL_TOLERANCE = 0.20

#: Split exponent of the finite-granularity pseudo-disk emulation: the
#: curve is cut into ``2^MODEL_R`` regular sections per segment (paper
#: §IV-B).  Reported as context; the gate uses the fine-granularity
#: limit, which has no granularity knob to tune.
MODEL_R = 5


@dataclass
class StorageTiersResult:
    """One archive scale: all-RAM vs tiered vs the eq.-(5) model."""

    db_rows: int
    num_segments: int
    num_queries: int
    alpha: float
    sigma: float
    ndims: int
    depth: int
    archive_bytes: int
    budget_bytes: int
    tiers: dict
    build_seconds: float
    ram_seconds: float
    tiered_seconds: float
    measured_cold_bytes: int
    predicted_cold_bytes: int
    emulated_cold_bytes: int
    cold_segments_scanned: int
    cold_fetch_seconds: float
    prefetch_hit_ratio: float
    bit_identical: bool

    @property
    def budget_fraction(self) -> float:
        return self.budget_bytes / max(self.archive_bytes, 1)

    @property
    def measured_per_query(self) -> float:
        return self.measured_cold_bytes / max(self.num_queries, 1)

    @property
    def predicted_per_query(self) -> float:
        return self.predicted_cold_bytes / max(self.num_queries, 1)

    @property
    def model_error(self) -> float:
        """Relative distance of measured bytes from the prediction."""
        if self.predicted_cold_bytes == 0:
            return 0.0 if self.measured_cold_bytes == 0 else float("inf")
        return abs(
            self.measured_cold_bytes - self.predicted_cold_bytes
        ) / self.predicted_cold_bytes

    def gate_status(self) -> str:
        """Bit-identity and the eq.-(5) byte gate, as one line."""
        if not self.bit_identical:
            return "failed (tiered results diverge from all-RAM)"
        if self.model_error > MODEL_TOLERANCE:
            return (
                f"failed (measured bytes {self.model_error:.1%} from the "
                f"eq.-(5) prediction, tolerance {MODEL_TOLERANCE:.0%})"
            )
        return "passed"

    def render(self) -> str:
        table = format_table(
            ["engine", "total s", "ms/query", "cold MB/query"],
            [
                ("all-RAM", self.ram_seconds,
                 self.ram_seconds / self.num_queries * 1e3, 0.0),
                ("tiered", self.tiered_seconds,
                 self.tiered_seconds / self.num_queries * 1e3,
                 self.measured_per_query / 1e6),
                ("eq.-(5) model (limit)", "-", "-",
                 self.predicted_per_query / 1e6),
                (f"eq.-(5) model (2^{MODEL_R} sections)", "-", "-",
                 self.emulated_cold_bytes / max(self.num_queries, 1) / 1e6),
            ],
            title=(
                f"Tiered storage vs eq. (5) — {self.db_rows} rows in "
                f"{self.num_segments} segments, budget "
                f"{self.budget_fraction:.0%} of archive "
                f"(alpha={self.alpha})"
            ),
        )
        tiers = ", ".join(
            f"{name}={bucket['segments']}"
            for name, bucket in self.tiers.items()
        )
        return (
            table
            + f"\ntiers after open: {tiers}; "
            f"{self.cold_segments_scanned} cold segment scans, "
            f"prefetch hit ratio {self.prefetch_hit_ratio:.2f}\n"
            f"model error: {self.model_error:.1%} "
            f"(tolerance {MODEL_TOLERANCE:.0%}); "
            f"bit-identical to all-RAM: {self.bit_identical}\n"
            f"gate: {self.gate_status()}"
        )

    def to_json(self) -> dict:
        return {
            "config": {
                "db_rows": self.db_rows,
                "num_segments": self.num_segments,
                "num_queries": self.num_queries,
                "alpha": self.alpha,
                "sigma": self.sigma,
                "ndims": self.ndims,
                "depth": self.depth,
                "archive_bytes": self.archive_bytes,
                "budget_bytes": self.budget_bytes,
                "budget_fraction": self.budget_fraction,
            },
            "tiers": self.tiers,
            "timing": {
                "build_seconds": self.build_seconds,
                "ram_seconds": self.ram_seconds,
                "tiered_seconds": self.tiered_seconds,
                "cold_fetch_seconds": self.cold_fetch_seconds,
            },
            "bytes": {
                "measured_cold_bytes": self.measured_cold_bytes,
                "predicted_cold_bytes": self.predicted_cold_bytes,
                "emulated_cold_bytes": self.emulated_cold_bytes,
                "model_r": MODEL_R,
                "measured_per_query": self.measured_per_query,
                "predicted_per_query": self.predicted_per_query,
                "model_error": self.model_error,
                "tolerance": MODEL_TOLERANCE,
            },
            "prefetch": {
                "cold_segments_scanned": self.cold_segments_scanned,
                "hit_ratio": self.prefetch_hit_ratio,
            },
            "equivalence": {"bit_identical": self.bit_identical},
            "gate": self.gate_status(),
        }


def write_storage_tiers_json(
    results: Sequence[StorageTiersResult], path
) -> Path:
    """Write the suite record (one entry per archive scale)."""
    path = Path(path)
    payload = {
        "benchmark": "storage_tiers",
        "schema_version": SCHEMA_VERSION,
        "host": host_block(),
        "runs": [r.to_json() for r in results],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _build_archive(
    directory: Path,
    db_rows: int,
    num_segments: int,
    sigma: float,
    rng: np.random.Generator,
) -> tuple[SegmentedS3Index, np.ndarray]:
    """A segmented archive, each segment sampling one global mixture.

    Segments model LSM flushes of a single fingerprint stream: every
    flush draws from the same clustered distribution (the shape
    extracted fingerprints have), so each sealed segment spans the full
    key space rather than one centroid.  That is also what keeps the
    pseudo-disk emulation tractable — regular curve sections converge
    on such data at small ``r``.
    """
    model = NormalDistortionModel(NDIMS, sigma)
    index = SegmentedS3Index.create(
        directory,
        ndims=NDIMS,
        model=model,
        flush_rows=db_rows + 1,
        policy=CompactionPolicy(max_segments=2 * num_segments + 4),
        auto_compact=False,
        sync=False,
    )
    num_centers = max(db_rows // 1000, 20)
    centers = rng.integers(25, 231, size=(num_centers, NDIMS)).astype(
        np.float64
    )
    per_segment = db_rows // num_segments
    for seg in range(num_segments):
        rows = per_segment + (db_rows % num_segments if seg == 0 else 0)
        assign = rng.integers(0, num_centers, size=rows)
        fingerprints = np.clip(
            centers[assign] + rng.normal(0.0, 12.0, size=(rows, NDIMS)),
            0.0, 255.0,
        ).astype(np.uint8)
        index.add(
            fingerprints,
            np.full(rows, seg, dtype=np.uint32),
            np.arange(rows, dtype=np.float64),
        )
        index.flush()
    return index, centers


def _union_ranges(range_lists: Sequence[list]) -> list[tuple[int, int]]:
    """Union of per-query (start, end) range lists, as disjoint spans.

    A deliberate re-implementation of the engine's range coalescing
    (simple sorted sweep), so prediction and measurement share no merge
    code.
    """
    spans = sorted(
        (s, e) for ranges in range_lists for s, e in ranges if e > s
    )
    merged: list[tuple[int, int]] = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def _results_equal(a, b) -> bool:
    return (
        np.array_equal(a.rows, b.rows)
        and np.array_equal(a.ids, b.ids)
        and np.array_equal(a.timecodes, b.timecodes)
        and np.array_equal(a.fingerprints, b.fingerprints)
    )


def _query_batch(index, queries, options):
    """One timed batched-engine pass; returns (results, stats, seconds)."""
    index.reset_threshold_cache()
    executor = BatchQueryExecutor(index, options=options)
    t0 = time.perf_counter()
    out = executor.query_batch(queries)
    seconds = time.perf_counter() - t0
    return out, executor.stats, seconds


def run_storage_tiers(
    db_rows: int = 48_000,
    num_segments: int = 8,
    num_queries: int = 32,
    alpha: float = 0.8,
    budget_fraction: float = 0.20,
    sigma: float = 18.0,
    seed: SeedLike = 0,
    directory: Optional[Path] = None,
) -> StorageTiersResult:
    """Score real tiered fetch bytes against the eq.-(5) prediction.

    The same query batch runs three ways: all-RAM (reference), tiered
    under a *budget_fraction* RAM budget over a file blob backend
    (measured), and through per-segment pseudo-disk searchers over
    pre-demotion copies of the segments that went cold (predicted).
    """
    rng = resolve_rng(seed)
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        tmp = Path(tmp)
        t0 = time.perf_counter()
        index, centers = _build_archive(
            tmp / "archive", db_rows, num_segments, sigma, rng
        )
        build_seconds = time.perf_counter() - t0

        model = index.model
        depth = index.depth
        home = rng.integers(0, len(centers), size=num_queries)
        queries = np.clip(
            centers[home] + model.sample(num_queries, rng=rng),
            0.0, 255.0,
        )
        # One batch on both sides, so the engine's per-batch fetch
        # unions and the pseudo-disk's per-batch section loads amortise
        # over the same query set.
        options = QueryOptions(
            alpha=alpha, batch_size=num_queries, prefilter="off"
        )

        # --- all-RAM reference pass -----------------------------------
        segments = [
            (seg.meta.name, seg.meta.count) for seg in index._segments
        ]
        ram_results, _, ram_seconds = _query_batch(index, queries, options)
        index.close()

        # Pre-demotion copies: the prediction needs each cold segment's
        # store file, which demotion deletes locally.
        model_dir = tmp / "model"
        model_dir.mkdir()
        for name, _count in segments:
            shutil.copy(
                tmp / "archive" / f"{name}.store",
                model_dir / f"{name}.store",
            )

        # --- tiered measured pass -------------------------------------
        archive_bytes = sum(
            (tmp / "archive" / f"{name}.store").stat().st_size
            for name, _count in segments
        )
        budget_bytes = int(budget_fraction * archive_bytes)
        index = SegmentedS3Index.open(
            tmp / "archive",
            storage=StorageConfig(
                budget_bytes=budget_bytes,
                cold_dir=str(tmp / "cold"),
                promote_after=10 ** 6,  # measure steady-state cold scans
            ),
        )
        tiers = index.storage_info()["tiers"]
        cold_names = {
            seg.meta.name
            for seg in index._segments
            if seg.meta.tier == "cold"
        }
        tiered_results, stats, tiered_seconds = _query_batch(
            index, queries, options
        )
        snapshot = index.storage_info()["manager"]
        index.close()

        bit_identical = all(
            _results_equal(a, b)
            for a, b in zip(ram_results, tiered_results)
        )

        # --- eq.-(5) prediction ---------------------------------------
        # The gated limit reuses the pseudo-disk's stage-1 machinery
        # (its own layout, rebuilt from the copied fingerprints — fully
        # independent of the tier manager's sidecar-keys path) and sums
        # each cold segment's merged batch-union row count.
        predicted = 0
        emulated = 0
        stride = row_bytes(NDIMS)
        for name, count in segments:
            if name not in cold_names:
                continue
            # memory_rows=count keeps construction trivial (r=0); the
            # finite-granularity emulation below uses an explicit
            # 2^MODEL_R regular split of the same layout instead.
            searcher = PseudoDiskSearcher(
                model_dir / f"{name}.store",
                model,
                memory_rows=count,
                depth=depth,
            )
            cache: dict = {}
            per_query = []
            for q in queries:
                sel = statistical_blocks_cached(
                    q, model, searcher.layout.curve, depth, alpha,
                    cache=cache,
                )
                per_query.append(
                    searcher.layout.block_row_ranges(
                        sel.prefixes, sel.depth
                    )
                )
            union = _union_ranges(per_query)
            predicted += sum(e - s for s, e in union) * stride
            # Pseudo-disk at 2^MODEL_R sections: every section the
            # batch union touches loads whole (§IV-B's cyclic pass).
            for sec_start, sec_stop in searcher.layout.curve_sections(
                MODEL_R
            ):
                if sec_start >= sec_stop:
                    continue
                if any(
                    s < sec_stop and e > sec_start for s, e in union
                ):
                    emulated += (sec_stop - sec_start) * stride

        return StorageTiersResult(
            db_rows=db_rows,
            num_segments=num_segments,
            num_queries=num_queries,
            alpha=alpha,
            sigma=sigma,
            ndims=NDIMS,
            depth=depth,
            archive_bytes=archive_bytes,
            budget_bytes=budget_bytes,
            tiers=tiers,
            build_seconds=build_seconds,
            ram_seconds=ram_seconds,
            tiered_seconds=tiered_seconds,
            measured_cold_bytes=stats.cold_bytes,
            predicted_cold_bytes=predicted,
            emulated_cold_bytes=emulated,
            cold_segments_scanned=stats.cold_segments,
            cold_fetch_seconds=stats.cold_fetch_seconds,
            prefetch_hit_ratio=snapshot["counters"]["prefetch_hit_ratio"],
            bit_identical=bit_identical,
        )

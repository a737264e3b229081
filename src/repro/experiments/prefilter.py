"""Segment-sketch pre-filter — skip rate and wall-clock, bit-identity.

Every sealed segment of a :class:`~repro.index.segmented.SegmentedS3Index`
carries an always-resident sketch (coarse Hilbert-key occupancy bitmap +
per-block component bounds, see :mod:`repro.index.segmented.sketch`).  A
query's selected curve prefixes are intersected with each segment's
bitmap *before* the segment's store or mmap is touched; segments (or
block runs) the sketch proves empty are skipped outright.
The skip is admissible — an empty prefix contributes no rows, so the
merged results are bit-identical with the pre-filter off (the property
verified both here and in ``tests/index/test_prefilter.py``).

The workload models the operational archive: each day's broadcast seals
its own segment, so segments are *temporally clustered* — their key
populations cover distinct slices of the curve — and any single
key-frame query intersects only a few of them.  We synthesise that
directly: each segment's fingerprints cluster around a per-segment
centroid, queries are distorted members of randomly chosen segments.

Results serialise to ``BENCH_prefilter.json`` (one record per corpus
scale) so later PRs have a skip-rate/latency trajectory to regress
against.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..distortion.model import NormalDistortionModel
from ..index.batch import BatchQueryExecutor
from ..index.options import QueryOptions
from ..index.segmented import CompactionPolicy, SegmentedS3Index
from ..rng import SeedLike, resolve_rng
from .common import format_table, host_block

SCHEMA_VERSION = 2

#: Fingerprint dimension of the synthetic archive (matches the paper's
#: 20-dimensional local fingerprints).
NDIMS = 20


@dataclass
class PrefilterBenchResult:
    """Skip rates, timings and equivalence checks of one scale."""

    db_rows: int
    num_segments: int
    num_queries: int
    batch_size: int
    alpha: float
    epsilon: float
    sigma: float
    ndims: int
    depth: int
    sketch_depth: int
    block_rows: int
    resident_bytes: int
    build_seconds: float
    # statistical queries (occupancy pruning)
    on_seconds: float
    off_seconds: float
    segments_skipped: int
    blocks_skipped: int
    bit_identical: bool
    # ε-range queries (occupancy + per-block bounds pruning)
    range_on_seconds: float
    range_off_seconds: float
    range_segments_skipped: int
    range_bit_identical: bool

    @property
    def segment_skip_rate(self) -> float:
        """Skipped (query, segment) pairs over all scannable pairs."""
        total = self.num_queries * self.num_segments
        return self.segments_skipped / max(total, 1)

    @property
    def range_segment_skip_rate(self) -> float:
        total = self.num_queries * self.num_segments
        return self.range_segments_skipped / max(total, 1)

    @property
    def speedup(self) -> float:
        """Statistical-query wall-clock, pre-filter on over off."""
        return self.off_seconds / max(self.on_seconds, 1e-9)

    @property
    def range_speedup(self) -> float:
        return self.range_off_seconds / max(self.range_on_seconds, 1e-9)

    def render(self) -> str:
        table = format_table(
            ["query kind", "off s", "on s", "speedup", "skip rate"],
            [
                ("statistical", self.off_seconds, self.on_seconds,
                 f"{self.speedup:.2f}x",
                 f"{self.segment_skip_rate:.1%}"),
                ("range", self.range_off_seconds, self.range_on_seconds,
                 f"{self.range_speedup:.2f}x",
                 f"{self.range_segment_skip_rate:.1%}"),
            ],
            title=(
                f"Segment-sketch pre-filter — {self.num_queries} queries, "
                f"{self.db_rows} rows / {self.num_segments} segments "
                f"(alpha={self.alpha}, sketch depth={self.sketch_depth})"
            ),
        )
        return (
            table
            + f"\nskipped: {self.segments_skipped} (query, segment) pairs "
            f"({self.segment_skip_rate:.1%}), {self.blocks_skipped} "
            "selected prefixes\n"
            f"sketches resident: {self.resident_bytes / 1e3:.1f} kB for "
            f"{self.num_segments} segments\n"
            f"bit-identical: statistical={self.bit_identical} "
            f"range={self.range_bit_identical}"
        )

    def to_json(self) -> dict:
        return {
            "config": {
                "db_rows": self.db_rows,
                "num_segments": self.num_segments,
                "num_queries": self.num_queries,
                "batch_size": self.batch_size,
                "alpha": self.alpha,
                "epsilon": self.epsilon,
                "sigma": self.sigma,
                "ndims": self.ndims,
                "depth": self.depth,
                "sketch_depth": self.sketch_depth,
                "block_rows": self.block_rows,
            },
            "sketches": {"resident_bytes": self.resident_bytes},
            "build_seconds": self.build_seconds,
            "statistical": {
                "off_seconds": self.off_seconds,
                "on_seconds": self.on_seconds,
                "speedup": self.speedup,
                "segments_skipped": self.segments_skipped,
                "blocks_skipped": self.blocks_skipped,
                "segment_skip_rate": self.segment_skip_rate,
                "bit_identical": self.bit_identical,
            },
            "range": {
                "off_seconds": self.range_off_seconds,
                "on_seconds": self.range_on_seconds,
                "speedup": self.range_speedup,
                "segments_skipped": self.range_segments_skipped,
                "segment_skip_rate": self.range_segment_skip_rate,
                "bit_identical": self.range_bit_identical,
            },
        }


def write_prefilter_json(
    results: Sequence[PrefilterBenchResult], path
) -> Path:
    """Write the suite record (one entry per corpus scale)."""
    path = Path(path)
    payload = {
        "benchmark": "prefilter",
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
    """A segmented archive of *num_segments* clustered sealed segments.

    Returns the open index and the ``(num_segments, NDIMS)`` centroid
    matrix the queries are drawn around.
    """
    model = NormalDistortionModel(NDIMS, sigma)
    index = SegmentedS3Index.create(
        directory,
        ndims=NDIMS,
        model=model,
        flush_rows=db_rows + 1,  # seal manually, one flush per segment
        policy=CompactionPolicy(max_segments=2 * num_segments + 4),
        auto_compact=False,
        sync=False,
    )
    centroids = rng.uniform(40.0, 216.0, size=(num_segments, NDIMS))
    per_segment = db_rows // num_segments
    for seg in range(num_segments):
        rows = per_segment + (db_rows % num_segments if seg == 0 else 0)
        fingerprints = np.clip(
            rng.normal(centroids[seg], 12.0, size=(rows, NDIMS)),
            0.0, 255.0,
        ).astype(np.uint8)
        index.add(
            fingerprints,
            np.full(rows, seg, dtype=np.uint32),
            np.arange(rows, dtype=np.float64),
        )
        index.flush()
    return index, centroids


def _results_equal(a, b) -> bool:
    return (
        np.array_equal(a.rows, b.rows)
        and np.array_equal(a.ids, b.ids)
        and np.array_equal(a.timecodes, b.timecodes)
        and np.array_equal(a.fingerprints, b.fingerprints)
    )


def run_prefilter(
    db_rows: int = 1_000_000,
    num_segments: int = 64,
    num_queries: int = 64,
    batch_size: int = 32,
    alpha: float = 0.8,
    epsilon: float = 60.0,
    sigma: float = 10.0,
    seed: SeedLike = 0,
    directory: Optional[Path] = None,
) -> PrefilterBenchResult:
    """Measure the pre-filter at one corpus scale.

    Runs the batched statistical engine and the solo ε-range path with
    the pre-filter off and on, verifies bit-identity, and reports skip
    rates per (query, segment) pair — the unit the engine counts a skip
    in, whether a whole segment's selection pruned to nothing or its
    surviving block runs were bounds-pruned to zero.
    """
    rng = resolve_rng(seed)
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        t0 = time.perf_counter()
        index, centroids = _build_archive(
            Path(tmp) / "archive", db_rows, num_segments, sigma, rng
        )
        build_seconds = time.perf_counter() - t0
        with index:
            model = index.model
            home = rng.integers(0, num_segments, size=num_queries)
            queries = np.clip(
                centroids[home] + model.sample(num_queries, rng=rng),
                0.0, 255.0,
            )

            info = index.prefilter_info()
            timings: dict[str, float] = {}
            stats: dict[str, tuple[int, int]] = {}
            results: dict[str, list] = {}
            for mode in ("off", "auto"):
                opts = QueryOptions(
                    alpha=alpha, batch_size=batch_size, prefilter=mode
                )
                executor = BatchQueryExecutor(index, options=opts)
                t0 = time.perf_counter()
                out = []
                for start in range(0, num_queries, batch_size):
                    index.reset_threshold_cache()
                    out.extend(executor.query_batch(
                        queries[start:start + batch_size]
                    ))
                timings[mode] = time.perf_counter() - t0
                stats[mode] = (
                    executor.stats.segments_skipped,
                    executor.stats.blocks_skipped,
                )
                results[mode] = out
            bit_identical = all(
                _results_equal(a, b)
                for a, b in zip(results["off"], results["auto"])
            )

            range_timings: dict[str, float] = {}
            range_skipped: dict[str, int] = {}
            range_results: dict[str, list] = {}
            for mode in ("off", "auto"):
                opts = QueryOptions(alpha=alpha, prefilter=mode)
                t0 = time.perf_counter()
                out, skipped = [], 0
                for q in queries:
                    result = index.range_query(q, epsilon, options=opts)
                    skipped += result.stats.segments_skipped
                    out.append(result)
                range_timings[mode] = time.perf_counter() - t0
                range_skipped[mode] = skipped
                range_results[mode] = out
            range_bit_identical = all(
                _results_equal(a, b)
                for a, b in zip(range_results["off"], range_results["auto"])
            )

            return PrefilterBenchResult(
                db_rows=len(index),
                num_segments=index.num_segments,
                num_queries=num_queries,
                batch_size=batch_size,
                alpha=alpha,
                epsilon=epsilon,
                sigma=sigma,
                ndims=NDIMS,
                depth=index.depth,
                sketch_depth=info["depth"],
                block_rows=info["block_rows"],
                resident_bytes=info["resident_bytes"],
                build_seconds=build_seconds,
                on_seconds=timings["auto"],
                off_seconds=timings["off"],
                segments_skipped=stats["auto"][0],
                blocks_skipped=stats["auto"][1],
                bit_identical=bit_identical,
                range_on_seconds=range_timings["auto"],
                range_off_seconds=range_timings["off"],
                range_segments_skipped=range_skipped["auto"],
                range_bit_identical=range_bit_identical,
            )

"""Batched multi-query engine — speedup over the per-fingerprint loop.

Acceptance gate for the batched engine: on a >= 50k-fingerprint corpus
with batch >= 32, the shared block selection + coalesced scan must be at
least 2x faster than the sequential per-fingerprint loop while returning
bit-identical results (and therefore bit-identical detections) in
deterministic mode.  The run also refreshes ``BENCH_batch_query.json``
at the repo root — the machine-readable perf record later PRs regress
against (schema in ``docs/batch-query.md``).

``python benchmarks/bench_batch_query.py --smoke`` runs a scaled-down
corpus without pytest-benchmark — the CI smoke gate: batched must not be
slower than sequential, results must not diverge.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_batch_query_speedup(benchmark, capsys):
    from conftest import run_and_report

    from repro.experiments import run_batch_query

    result = run_and_report(
        benchmark,
        capsys,
        lambda: run_batch_query(
            db_rows=50_000,
            num_queries=256,
            batch_size=64,
            alpha=0.8,
            seed=0,
            json_path=REPO_ROOT / "BENCH_batch_query.json",
        ),
    )
    # Equivalence: deterministic batched == deterministic sequential,
    # row for row, bit for bit — so the voting stage agrees too.
    assert result.bit_identical_results
    assert result.identical_detections
    assert result.num_detections > 0
    # Acceptance: >= 2x over the sequential per-fingerprint loop.  The
    # warm-chained loop is the fastest sequential baseline; clearing it
    # clears the deterministic one a fortiori.
    assert result.speedup_vs_warm >= 2.0
    assert result.speedup_vs_deterministic >= 2.0
    # Coalescing actually deduplicates rows across the batch.
    assert result.coalescing_factor > 1.0


def _smoke() -> int:
    """Tiny-corpus CI gate: never slower, never divergent."""
    from repro.experiments import run_batch_query

    result = run_batch_query(
        db_rows=8_000,
        num_queries=96,
        batch_size=32,
        alpha=0.8,
        seed=0,
    )
    print(result.render())
    failures = []
    if not result.bit_identical_results:
        failures.append("batched results diverge from the sequential loop")
    if not result.identical_detections:
        failures.append("batched detections diverge from the sequential loop")
    if result.speedup_vs_warm < 1.0:
        failures.append(
            "batched slower than the warm sequential loop "
            f"({result.speedup_vs_warm:.2f}x)"
        )
    if result.speedup_vs_deterministic < 1.0:
        failures.append(
            "batched slower than the deterministic sequential loop "
            f"({result.speedup_vs_deterministic:.2f}x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        raise SystemExit(_smoke())
    print(__doc__)
    raise SystemExit(2)

#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 perf/compare.py A.json B.json

One row per (end-to-end metric, workload): each side's median and
quartiles over its repeats, how much worse B's median is than A's (as a
share of A's, signed so that positive is worse), the metric's bound from
``BENCHMARK.json``, and a verdict:

* ``within``      B is no worse than A by more than the bound;
* ``worse``       B is worse than A by more than the bound;
* ``unresolved``  a side's own quartile spread is wider than the bound,
                  so the runs cannot tell ``within`` from ``worse``.

Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(a_median: float, b_median: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if a_median == 0:
        return 0.0
    change = (b_median - a_median) / abs(a_median)
    return change if better == "lower" else -change


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    delta = worse_by(quartiles(a)[1], quartiles(b)[1], better)
    return "worse" if delta > bound else "within"


def collect(path: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values over the untraced repeats``."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"]
            )
    return values


def compare(a_path: Path, b_path: Path, spec: dict) -> tuple[list[tuple], bool]:
    a_values, b_values = collect(a_path), collect(b_path)
    rows = []
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = a_values[key], b_values[key]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= outcome == "worse"
            rows.append((
                workload, metric["name"], metric["unit"], quartiles(a),
                quartiles(b), len(a), len(b),
                worse_by(quartiles(a)[1], quartiles(b)[1], metric["better"]),
                metric["bound"], outcome,
            ))
    return rows, any_worse


def render(rows: list[tuple]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<18} {'A median [q1, q3] (n)':<38} "
        f"{'B median [q1, q3] (n)':<38} {'worse by':>9} {'bound':>6}  verdict"
    ]
    for (workload, name, unit, a, b, na, nb, delta, bound, outcome) in rows:
        def side(q: tuple, n: int) -> str:
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {unit} ({n})"

        lines.append(
            f"{workload:<16} {name:<18} {side(a, na):<38} "
            f"{side(b, nb):<38} {delta:>+8.1%} {bound:>6.0%}  {outcome}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, any_worse = compare(Path(argv[0]), Path(argv[1]), spec)
    print(render(rows))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

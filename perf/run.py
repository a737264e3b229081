#!/usr/bin/env python3
"""The repo's one benchmark: frames in → verdict out, five workloads.

Two ways to call it::

    # one workload, one run (what BENCHMARK.json's command does)
    python3 perf/run.py --workload clip_detect --seed 0 --seconds 10 --trace 0

    # every workload, each in a fresh process, results collected
    python3 perf/run.py --seed 0 [--repeats 3] [--traced] [--smoke] [--out A.json]

A single-workload run prints every metric by name with its unit, checks
the answers, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; it exits non-zero
when a check fails.  ``--trace 0`` reports the end-to-end metrics from
an untraced timed window, ``--trace 1`` the per-layer metrics from a
traced replay (plus a stage table and ``perf/out/trace-<name>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

SMOKE_SECONDS = 3.0
#: Share of a traced run's window spent untraced, to price the tracing.
TRACE_BASELINE_SHARE = 0.25
#: Layers whose share of operation wall time a traced run reports.
TRACED_LAYERS = ("fingerprint", "cbcd", "index", "storage", "serve", "cluster")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# one workload, one run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one run measured, whichever mode it ran in."""

    group: str  # the BENCHMARK.json list the values belong to
    values: dict
    check: object
    attempted: int
    failed: int
    errors: list
    samples: dict


@contextmanager
def set_up(workload, seed: int, sizes: dict, repeats: int) -> Iterator[tuple]:
    """Set the workload up *repeats* times, keeping the last; yields
    ``(state, seconds each set-up took)`` and tears down on exit."""
    times = []
    state = None
    try:
        for _ in range(repeats):
            if state is not None:
                workload.teardown(state)
                state = None
            start = time.perf_counter()
            state = workload.setup(seed, sizes)
            times.append(time.perf_counter() - start)
        yield state, times
    finally:
        if state is not None:
            workload.teardown(state)


def timed_run(workload, state, seconds: float, setup_s: float) -> Outcome:
    """``--trace 0``: one untraced window, the end-to-end metrics."""
    import harness

    window = harness.run_window(workload.clients(state), seconds)
    values = harness.end_to_end_metrics(window, setup_s)
    reads = len(window.latencies[harness.READ])
    return Outcome(
        "end_to_end", values, workload.verify(state), window.attempted,
        window.failed, window.errors,
        {"read": reads, "write": len(window.latencies[harness.WRITE]),
         "p90_supported": harness.tail_supported(reads, 90.0)},
    )


def traced_run(workload, state, seconds: float) -> Outcome:
    """``--trace 1``: a short untraced window to price the tracing, then
    the traced replay; the per-layer metrics."""
    import harness
    from spans import Recorder
    from workloads.base import OUT_DIR

    traced_seconds = seconds * (1.0 - TRACE_BASELINE_SHARE)
    baseline = harness.run_window(
        workload.clients(state), seconds - traced_seconds
    )
    rec = Recorder()
    layer = workload.trace(state, rec, traced_seconds)
    traced_ops = layer.pop("ops")
    check = workload.verify(state)
    layer.update(state.layer)
    layer["trace.overhead_share"] = 1.0 - (traced_ops / traced_seconds) / (
        baseline.completed / baseline.seconds
    )
    layer["trace.covered_share"] = rec.covered_share()
    for prefix in TRACED_LAYERS:
        layer[f"trace.{prefix}_share"] = rec.layer_share((prefix + ".",))
    # End-to-end in kind, but undefined or constant on some workloads,
    # which the end-to-end list may not be: reported with this set.
    layer["answer_quality"] = check.quality
    layer["failed_ops_share"] = baseline.failed / baseline.attempted
    writes = baseline.latencies[harness.WRITE]
    if writes:
        layer["write_latency_p50_ms"] = harness.percentile(writes, 50.0) * 1e3
        layer["write_latency_p90_ms"] = harness.percentile(writes, 90.0) * 1e3
    print(rec.stage_table(workload.name))
    rec.dump(OUT_DIR / f"trace-{workload.name}.json")
    return Outcome(
        "per_layer", layer, check, traced_ops + baseline.attempted,
        baseline.failed, baseline.errors, {},
    )


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    try:
        import repro  # noqa: F401 - the program under test
    except ModuleNotFoundError:
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS
    from workloads.base import OUT_DIR

    # A terminated run must still stop its servers and replica processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[name]
    nproc = os.cpu_count() or 1
    if workload.num_clients > nproc:
        print(
            f"{name}: {workload.num_clients} client connections exceed "
            f"nproc={nproc}; refusing to start", file=sys.stderr,
        )
        return 2
    sizes = workload.sizes(smoke)
    host = harness.host_info()
    repeats = 1 if smoke else workload.setup_repeats
    with set_up(workload, seed, sizes, repeats) as (state, setup_times):
        if trace:
            outcome = traced_run(workload, state, seconds)
        else:
            outcome = timed_run(
                workload, state, seconds, statistics.median(setup_times)
            )

    units = {m["name"]: m["unit"] for m in load_spec()[outcome.group]}
    undeclared = sorted(set(outcome.values) - set(units))
    if undeclared:
        raise RuntimeError(f"not declared in BENCHMARK.json: {undeclared}")
    # A per-layer metric the workload does not exercise reads 0 there.
    metrics = {
        key: {"value": float(outcome.values.get(key, 0.0)), "unit": unit}
        for key, unit in units.items()
    }
    check = outcome.check
    correct = check.ok and outcome.failed == 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{name}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "op": workload.op,
        "clients": workload.num_clients, "sizes": sizes, "host": host,
        "setup_times_s": setup_times, "samples": outcome.samples,
        "answer_quality": check.quality, "check": check.detail,
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "errors": outcome.errors,
        "metrics": metrics,
    }, indent=1) + "\n")

    print(f"{name}  seed={seed}  window={seconds:g}s  trace={int(trace)}"
          f"  load1m={host['loadavg_1m']:.2f}")
    print(f"  op: {workload.op}")
    if outcome.samples:
        s = outcome.samples
        note = "" if s["p90_supported"] else "  (p90 undersampled: <10 beyond it)"
        print(f"  samples: {s['read']} read, {s['write']} write{note}")
    for key, metric in metrics.items():
        if metric["value"] or not trace:
            print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  check: {check.detail} -> {'ok' if check.ok else 'FAILED'}; "
          f"{outcome.failed} of {outcome.attempted} ops failed")
    for error in outcome.errors:
        print(f"  op error: {error}", file=sys.stderr)
    if not correct:
        return 1
    print(json.dumps({
        "correct": True, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# every workload, fresh process each
# ----------------------------------------------------------------------
def run_suite(args, seconds: float) -> int:
    names = [w["name"] for w in load_spec()["workloads"]]
    runs = []
    status = 0
    for repeat in range(args.repeats):
        for name in names:
            for trace in ([0, 1] if args.traced else [0]):
                cmd = [
                    sys.executable, str(PERF_DIR / "run.py"),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                ] + (["--smoke"] if args.smoke else [])
                proc = subprocess.run(cmd, cwd=ROOT)
                if proc.returncode != 0:
                    print(f"{name} (trace {trace}) exited "
                          f"{proc.returncode}", file=sys.stderr)
                    status = 1
                    continue
                result = PERF_DIR / "out" / f"result-{name}-trace{trace}.json"
                runs.append({**json.loads(result.read_text()), "repeat": repeat})
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
             "runs": runs}, indent=1) + "\n")
        print(f"wrote {args.out} ({len(runs)} runs)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="suite: also run each workload with --trace 1; "
                             "single workload: same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="rows / 10, 3 s window, one set-up per run")
    parser.add_argument("--repeats", type=int, default=1,
                        help="suite only: runs per workload")
    parser.add_argument("--out", help="suite only: write all results to this file")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else load_spec()["run_seconds"]
    )
    if args.workload is None:
        return run_suite(args, seconds)
    import harness

    harness.adopt_orphans()
    try:
        return run_one(
            args.workload, args.seed, seconds,
            bool(args.trace) or args.traced, args.smoke,
        )
    finally:
        # On every path out: no process this run started outlives it.
        harness.stop_descendants()


if __name__ == "__main__":
    sys.exit(main())

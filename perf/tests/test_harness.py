"""Tests of the benchmark harness itself.

Run with ``python -m pytest perf/tests`` — outside tier-1's
``testpaths``, because the last test runs every workload once.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
from spans import Recorder, Span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from workloads.base import digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# latency summaries
# ----------------------------------------------------------------------
def test_percentile_interpolates_and_refuses_empty():
    samples = [float(v) for v in range(1, 101)]
    assert harness.percentile(samples, 50.0) == pytest.approx(50.5)
    assert harness.percentile(samples, 90.0) == pytest.approx(90.1)
    assert harness.percentile([7.0], 90.0) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50.0)


def test_p90_needs_ten_samples_beyond_it():
    assert harness.tail_supported(100, 90.0)
    assert not harness.tail_supported(99, 90.0)
    assert harness.tail_supported(20, 50.0)
    assert not harness.tail_supported(1000, 99.9)


def test_window_counts_failures_and_refuses_too_many_clients():
    calls = []

    def op(seq: int) -> str:
        calls.append(seq)
        if seq % 2:
            raise RuntimeError("odd ops fail")
        return harness.READ

    window = harness.run_window([op], 0.05)
    assert window.attempted == len(calls)
    assert window.failed == len(calls) // 2
    assert len(window.latencies[harness.READ]) == window.completed
    too_many = [op] * ((os.cpu_count() or 1) + 1)
    with pytest.raises(RuntimeError, match="exceed nproc"):
        harness.run_window(too_many, 0.01)


# ----------------------------------------------------------------------
# nothing outlives a run
# ----------------------------------------------------------------------
_LEAKY_RUN = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
import harness
from multiprocessing import resource_tracker, shared_memory

harness.adopt_orphans()
# An orphan: the shell that started it has ended before we look.
subprocess.run(["sh", "-c", "sleep 300 & echo $!"])
probe = shared_memory.SharedMemory(create=True, size=8)  # starts the tracker
probe.close()
probe.unlink()
print(resource_tracker._resource_tracker._pid, flush=True)
print(len(harness.stop_descendants(grace=2.0)), len(harness.process_tree()))
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_stop_descendants_ends_orphans_and_the_resource_tracker():
    proc = subprocess.run(
        [sys.executable, "-c", _LEAKY_RUN, str(PERF)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    sleeper, tracker, counts = proc.stdout.split("\n", 2)
    # the tracker ended on its cue, the orphaned sleep had to be found and
    # stopped, and the run had no descendant left when it ended
    assert counts.split() == ["1", "1"]
    assert not _alive(int(sleeper)) and not _alive(int(tracker))


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    rec = Recorder()
    rec.spans = [
        Span("op", 0, 100, None, 1),        # 0
        Span("layer.a", 10, 40, 0, 1),      # 1
        Span("layer.b", 50, 70, 0, 1),      # 2
        Span("layer.a.inner", 20, 30, 1, 1),  # 3
        Span("op", 200, 260, None, 2),      # 4
        Span("layer.a", 200, 250, 4, 2),    # 5
    ]
    selfs = rec.self_times()
    assert selfs["op"] == (50 + 10, 2)
    assert selfs["layer.a"] == (20 + 50, 2)
    assert selfs["layer.b"] == (20, 1)
    assert selfs["layer.a.inner"] == (10, 1)
    # Self times add up to the operations' wall time: nothing counted twice.
    assert sum(ns for ns, _ in selfs.values()) == rec.root_wall_ns() == 160
    assert rec.covered_share() == pytest.approx(1 - 60 / 160)
    assert rec.layer_share(("layer.a",)) == pytest.approx(80 / 160)
    assert "layer.a.inner" in rec.stage_table("t")


def test_recorder_nests_spans_and_reported_durations():
    rec = Recorder()
    with rec.span("op", request=7) as root:
        with rec.span("child"):
            pass
        rec.add("reported", root, rec.spans[root].start_ns, 5)
    child, reported = rec.spans[1], rec.spans[2]
    assert child.parent == root and child.request == 7
    assert reported.parent == root and reported.duration_ns == 5
    assert rec.spans[root].duration_ns >= child.duration_ns


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]
    sizes = workload.sizes(smoke=True)
    first = digest(workload.generate(3, sizes, {}))
    assert digest(workload.generate(3, sizes, {})) == first
    assert digest(workload.generate(4, sizes, {})) != first


# ----------------------------------------------------------------------
# BENCHMARK.json and what the runs print
# ----------------------------------------------------------------------
def test_spec_is_well_formed():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(WORKLOADS[w].num_clients <= 2 for w in WORKLOADS)


def test_compare_verdicts(tmp_path):
    def result_file(name: str, values: list[float]) -> Path:
        runs = [
            {"workload": "stat_scan", "trace": 0, "metrics": {
                "latency_p50_ms": {"value": v, "unit": "ms"},
                "throughput_ops_s": {"value": 1000.0 / v, "unit": "ops/s"},
            }}
            for v in values
        ]
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return path

    base = result_file("a.json", [10.0, 10.1, 9.9])
    bound = next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "latency_p50_ms"
    )
    slow = 10.0 * (1 + 2 * bound)
    cases = {
        "within": [10.2, 10.0, 10.1],
        "worse": [slow, slow * 1.01, slow * 0.99],
        "unresolved": [6.0, 10.0, 16.0],
    }
    for expected, values in cases.items():
        rows, any_worse = compare.compare(
            base, result_file(f"{expected}.json", values), SPEC
        )
        verdicts = {row[1]: row[-1] for row in rows}
        assert verdicts["latency_p50_ms"] == expected
        assert any_worse == (expected == "worse")
        # throughput is "higher is better": the same runs, same verdict
        assert verdicts["throughput_ops_s"] == expected


# ----------------------------------------------------------------------
# one --smoke pass of every workload, both modes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_pass_prints_exactly_the_declared_metrics(name, trace):
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", name,
         "--seed", "5", "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    group = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert set(result["metrics"]) == set(declared)
    for metric_name, metric in result["metrics"].items():
        assert metric["unit"] == declared[metric_name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

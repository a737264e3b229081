"""Measurement plumbing shared by every workload.

Nothing here knows what a workload does: this module times closed-loop
operation windows, summarises latency samples, and reads CPU time and
peak memory for the benchmark process *and its children* (replica
servers, scan-pool workers) from ``/proc``.
"""

from __future__ import annotations

import os
import platform
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

READ = "read"
WRITE = "write"

#: A percentile is reported as supported only when at least this many
#: samples lie beyond it (p90 therefore needs 100 samples).
MIN_TAIL_SAMPLES = 10


# ----------------------------------------------------------------------
# latency summaries
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile *q* (0..100) of *samples*.

    Raises on an empty sample: every metric this feeds must be measured,
    never defaulted.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_supported(num_samples: int, q: float) -> bool:
    """Whether *q* has :data:`MIN_TAIL_SAMPLES` samples beyond it."""
    return num_samples * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


# ----------------------------------------------------------------------
# process-tree accounting
# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` split after the parenthesised command."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name may contain spaces; fields resume after ')'.
    return raw[raw.rfind(")") + 2:].split()


def process_tree(root: int | None = None) -> list[int]:
    """PIDs of *root* (default: this process) and all live descendants."""
    root = os.getpid() if root is None else root
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            parents[int(entry)] = int(fields[1])  # ppid
    tree = [root]
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent:
                tree.append(pid)
                frontier.append(pid)
    return tree


def tree_cpu_seconds() -> float:
    """user+sys CPU of this process, its live descendants, and every
    child already reaped (scan-pool workers torn down earlier)."""
    total = 0.0
    for pid in process_tree():
        fields = _stat_fields(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) / _TICKS
    reaped = os.times()
    return total + reaped.children_user + reaped.children_system


def tree_peak_rss_mb() -> float:
    """Sum of the peak resident sets (``VmHWM``) over the live tree."""
    total_kb = 0
    for pid in process_tree():
        try:
            with open(f"/proc/{pid}/status", "rb") as fh:
                for line in fh:
                    if line.startswith(b"VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def adopt_orphans() -> bool:
    """Make this process the one orphaned descendants are re-parented to
    (Linux ``PR_SET_CHILD_SUBREAPER``), so that :func:`stop_descendants`
    still finds and reaps them.  Without it a replica's helper process
    outlives the replica as a child of pid 1 — which, in a container
    whose pid 1 reaps nothing, stays a zombie for good.
    """
    import ctypes

    try:
        return ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _gone(pid: int) -> bool:
    """Whether *pid* has ended (reaping it if it is our child)."""
    try:
        if os.waitpid(pid, os.WNOHANG)[0] == pid:
            return True
    except ChildProcessError:  # not our child, or already reaped
        pass
    fields = _stat_fields(pid)
    return fields is None or fields[0] == "Z"


def stop_descendants(grace: float = 5.0) -> list[int]:
    """Stop every process this one started and wait until each has ended;
    returns the PIDs that were still alive when called.

    Workload teardown already stops servers, replicas and scan pools.
    What remains are the helpers ``multiprocessing`` starts behind the
    program's back — the resource tracker spawned by the first shared
    memory probe (``host_block()`` makes one; so does every replica),
    which by design ends only *after* its parent has — and anything a
    failed teardown left behind.
    """
    try:  # the tracker ignores SIGTERM; closing its pipe is its exit cue
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # noqa: BLE001 - private API; the sweep below covers it
        pass
    me = os.getpid()
    left = [pid for pid in process_tree() if pid != me and not _gone(pid)]
    # Orphaned helpers end by themselves once their pipe closes: wait
    # first, then ask, then insist.
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        pending = [pid for pid in left if not _gone(pid)]
        if not pending:
            break
        for pid in pending if sig is not None else ():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline and not all(map(_gone, pending)):
            time.sleep(0.01)
    return left


def host_info() -> dict:
    """Where and under what load a result was measured."""
    from repro.experiments.common import host_block

    return {
        **host_block(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "node": platform.node(),
    }


# ----------------------------------------------------------------------
# the timed closed-loop window
# ----------------------------------------------------------------------
@dataclass
class Window:
    """Everything one timed window observed."""

    seconds: float = 0.0
    cpu_seconds: float = 0.0
    failed: int = 0
    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {READ: [], WRITE: []}
    )
    errors: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    @property
    def attempted(self) -> int:
        return self.completed + self.failed


#: One closed-loop client: called with the op's sequence number, performs
#: exactly one operation, returns its kind (:data:`READ`/:data:`WRITE`);
#: raising counts the op as failed.
ClientOp = Callable[[int], str]


def _client_loop(
    op: ClientOp, deadline: float, window: Window, lock: threading.Lock
) -> None:
    samples: dict[str, list[float]] = {READ: [], WRITE: []}
    failed = 0
    errors: list[str] = []
    seq = 0
    while True:
        start = time.perf_counter()
        if start >= deadline:
            break
        try:
            kind = op(seq)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            failed += 1
            if len(errors) < 5:
                errors.append(repr(exc))
        else:
            samples[kind].append(time.perf_counter() - start)
        seq += 1
    with lock:
        for kind, values in samples.items():
            window.latencies[kind].extend(values)
        window.failed += failed
        window.errors.extend(errors)


def run_window(clients: Sequence[ClientOp], seconds: float) -> Window:
    """Drive every client closed-loop for *seconds*; one thread each.

    A single client runs on the calling thread, so in-process workloads
    pay no thread hand-off.  The window ends when the last client
    finishes the op it had started before the deadline.
    """
    nproc = os.cpu_count() or 1
    if len(clients) > nproc:
        raise RuntimeError(
            f"{len(clients)} client threads exceed nproc={nproc}; the load "
            "generator would compete with the system under test"
        )
    window = Window()
    lock = threading.Lock()
    cpu0 = tree_cpu_seconds()
    start = time.perf_counter()
    deadline = start + seconds
    if len(clients) == 1:
        _client_loop(clients[0], deadline, window, lock)
    else:
        threads = [
            threading.Thread(
                target=_client_loop, args=(op, deadline, window, lock)
            )
            for op in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    window.seconds = time.perf_counter() - start
    window.cpu_seconds = tree_cpu_seconds() - cpu0
    return window


def end_to_end_metrics(window: Window, setup_seconds: float) -> dict:
    """The end-to-end metric values of one untraced window."""
    reads = window.latencies[READ]
    return {
        "setup_s": setup_seconds,
        "throughput_ops_s": window.completed / window.seconds,
        "latency_p50_ms": percentile(reads, 50.0) * 1e3,
        "latency_p90_ms": percentile(reads, 90.0) * 1e3,
        "cpu_s_per_op": window.cpu_seconds / max(window.completed, 1),
        "peak_rss_mb": tree_peak_rss_mb(),
    }

"""In-memory span recorder for the traced run.

Spans wrap the *calls into* each layer, from the benchmark's side of the
boundary; nothing inside ``src/`` is instrumented.  A span is
``(name, start_ns, end_ns, parent, request)``; spans of one operation
share its request id.  They stay in memory and are written out once,
when the run ends.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover, so a stage table adds up to the
operation's wall time with no double counting.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Collects spans; one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[int]:
        """Time the enclosed block as a child of the innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, 0, 0, parent, request))
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield index
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            span = self.spans[index]
            span.start_ns, span.end_ns = start, end

    def add(
        self, name: str, parent: int, start_ns: int, duration_ns: int
    ) -> int:
        """Record a span from a duration the program itself reported.

        Used where a layer boundary lies inside one public call and the
        call's public stats output carries the split (for example
        ``BatchQueryStats.filter_seconds``): the reported duration becomes
        a child of the span that wrapped the call.
        """
        request = self.spans[parent].request
        with self._lock:
            self.spans.append(Span(
                name, start_ns, start_ns + int(duration_ns), parent, request
            ))
            return len(self.spans) - 1

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, tuple[int, int]]:
        """``name -> (summed self time in ns, span count)``."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration_ns
        totals: dict[str, tuple[int, int]] = {}
        for span, child_ns in zip(self.spans, covered):
            self_ns = max(span.duration_ns - child_ns, 0)
            total, count = totals.get(span.name, (0, 0))
            totals[span.name] = (total + self_ns, count + 1)
        return totals

    def root_wall_ns(self) -> int:
        """Summed duration of the root spans — the operations' wall time."""
        return sum(s.duration_ns for s in self.spans if s.parent is None)

    def root_count(self) -> int:
        return sum(1 for s in self.spans if s.parent is None)

    def covered_share(self) -> float:
        """Share of operation wall time attributed to a child span.

        What is left is the root spans' own self time: glue the
        benchmark could not attribute to any layer.
        """
        wall = self.root_wall_ns()
        if wall == 0:
            return 0.0
        roots = {s.name for s in self.spans if s.parent is None}
        uncovered = sum(
            ns for name, (ns, _) in self.self_times().items() if name in roots
        )
        return 1.0 - uncovered / wall

    def layer_share(self, prefixes: tuple[str, ...]) -> float:
        """Share of operation wall that is self time of spans whose
        name starts with one of *prefixes* (root spans excluded)."""
        wall = self.root_wall_ns()
        if wall == 0:
            return 0.0
        roots = {s.name for s in self.spans if s.parent is None}
        picked = sum(
            ns for name, (ns, _) in self.self_times().items()
            if name not in roots and name.startswith(prefixes)
        )
        return picked / wall

    def stage_table(self, title: str) -> str:
        """Self time per span name: ns per operation and % of op wall."""
        wall = self.root_wall_ns()
        ops = max(self.root_count(), 1)
        rows = sorted(
            self.self_times().items(), key=lambda item: -item[1][0]
        )
        width = max([len(name) for name, _ in rows] + [5])
        lines = [
            f"{title}: {ops} traced ops, "
            f"{wall / ops:,.0f} ns op wall (self time per stage)",
            f"  {'stage'.ljust(width)}  {'ns/op':>14}  {'% wall':>7}  "
            f"{'spans':>7}",
        ]
        for name, (self_ns, count) in rows:
            share = 100.0 * self_ns / wall if wall else 0.0
            lines.append(
                f"  {name.ljust(width)}  {self_ns / ops:>14,.0f}  "
                f"{share:>6.1f}%  {count:>7}"
            )
        return "\n".join(lines)

    def dump(self, path: Path) -> None:
        """Write every span as JSON (the run's trace file)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = [
            [s.name, s.start_ns, s.end_ns, s.parent, s.request]
            for s in self.spans
        ]
        path.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "request"],
            "spans": payload,
        }))

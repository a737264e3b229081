"""Shared result containers and rendering for the experiment modules.

Every experiment module (one per paper table/figure) produces a structured
result object holding the series the paper plots plus a ``render()`` method
printing them as aligned text tables — the form the benchmark harness
reports them in.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass, field
from typing import Sequence


def host_block() -> dict:
    """The shared ``host`` block a benchmark record embeds.

    Benchmark numbers are meaningless without the host that produced
    them: a 1-core container's "speedup" and a 16-core bare-metal run
    must be distinguishable from the JSON alone.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


@dataclass
class Series:
    """One named data series (a curve of a paper figure)."""

    name: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one (x, y) point."""
        self.x.append(float(x))
        self.y.append(float(y))

    def __len__(self) -> int:
        return len(self.x)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in cells)) if cells
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)

"""Background maintenance for the segmented index.

Seal and compaction are the two heavy jobs on the write path: sealing
curve-sorts the memtable and writes a segment, compaction rewrites many
segments into one.  Inline (the pre-pipelined behaviour) they run on
whatever thread called ``add`` — in the detection service that is the
single engine lane, so a compaction storm stalls every queued query.

:class:`MaintenanceThread` moves both off-lane: ``add`` only appends to
the WAL and memtable, then *requests* a seal; one daemon worker drains a
tiny bounded queue of job kinds (``seal`` / ``compact``),
performing the heavy work under the index's maintenance lock while
queries keep scanning a pinned snapshot view (see
:meth:`SegmentedS3Index._read_view`).  Jobs of the same kind coalesce —
requesting ``seal`` twice while one is queued is one seal.

Backpressure instead of stalls: when unsealed rows exceed
``backpressure_rows`` the index sheds the ingest with
:class:`~repro.errors.IngestBackpressure`, which the serving layer maps
to the retryable wire code ``unavailable`` — clients back off and
resend, queries never queue behind maintenance.

``compact_mb_per_s`` rate-limits compaction I/O: after each merge the
worker sleeps long enough that sustained compaction throughput stays at
or below the limit, keeping page-cache and disk bandwidth available to
foreground scans.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from ...errors import ConfigurationError

#: Job kinds the worker understands, in the order add() escalates them.
JOB_KINDS = ("seal", "compact")


@dataclass(frozen=True)
class MaintenanceConfig:
    """Knobs of the background maintenance worker.

    ``backpressure_rows`` — unsealed rows (active + frozen memtables)
    above which ``add`` sheds with :class:`IngestBackpressure`;
    ``None`` defaults to ``4 * flush_rows``.

    ``queue_limit`` — bound on distinct queued jobs; a full queue also
    sheds ingest rather than growing without bound.

    ``compact_mb_per_s`` — compaction I/O rate limit (``None`` = no
    limit).

    ``on_change`` — called (from the worker thread) with the job kind
    after a seal or compaction actually changed the segment set; the
    serving layer uses it to invalidate result caches whose row
    numbering just moved.
    """

    queue_limit: int = 16
    backpressure_rows: Optional[int] = None
    compact_mb_per_s: Optional[float] = None
    on_change: Optional[Callable[[str], None]] = None

    def __post_init__(self):
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.backpressure_rows is not None and self.backpressure_rows < 1:
            raise ConfigurationError(
                "backpressure_rows must be >= 1, got "
                f"{self.backpressure_rows}"
            )
        if self.compact_mb_per_s is not None and self.compact_mb_per_s <= 0:
            raise ConfigurationError(
                "compact_mb_per_s must be > 0, got "
                f"{self.compact_mb_per_s}"
            )


class MaintenanceThread:
    """One daemon worker draining seal/compact jobs for an index.

    Created by :meth:`SegmentedS3Index.start_maintenance`; stopped (and
    drained) by :meth:`SegmentedS3Index.stop_maintenance` or ``close``.
    """

    def __init__(self, index, config: MaintenanceConfig):
        self.index = index
        self.config = config
        self._cond = threading.Condition()
        self._queue: deque[str] = deque()
        self._pending: set[str] = set()
        self._closed = False
        self._busy = False
        # Counters, read via stats() (ints: GIL-atomic to bump).
        self.seals = 0
        self.compactions = 0
        self.errors = 0
        self.last_error: Optional[str] = None
        self.queue_high_water = 0
        self.rate_limit_seconds = 0.0
        self._thread = threading.Thread(
            target=self._run, name="s3-maintenance", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def request(self, kind: str) -> bool:
        """Enqueue a job of *kind*; ``False`` when the queue is full.

        Same-kind requests coalesce: a kind already queued is reported
        accepted without growing the queue.
        """
        if kind not in JOB_KINDS:
            raise ConfigurationError(f"unknown maintenance job {kind!r}")
        with self._cond:
            if self._closed:
                return False
            if kind in self._pending:
                return True
            if len(self._queue) >= self.config.queue_limit:
                return False
            self._queue.append(kind)
            self._pending.add(kind)
            self.queue_high_water = max(
                self.queue_high_water, len(self._queue)
            )
            self._cond.notify_all()
            return True

    def request_seal(self) -> bool:
        return self.request("seal")

    def request_compact(self) -> bool:
        return self.request("compact")

    @property
    def queue_depth(self) -> int:
        """Queued jobs plus the one in flight (the pressure gauge)."""
        with self._cond:
            return len(self._queue) + (1 if self._busy else 0)

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until the queue is empty and the worker idle."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._queue or self._busy:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def close(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop the worker (after finishing queued jobs when *drain*)."""
        if drain:
            self.drain(timeout)
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout)

    def stats(self) -> dict:
        """Activity snapshot for ``serve stats`` / ``info --json``."""
        with self._cond:
            depth = len(self._queue) + (1 if self._busy else 0)
        return {
            "queue_depth": depth,
            "queue_limit": self.config.queue_limit,
            "queue_high_water": self.queue_high_water,
            "seals": self.seals,
            "compactions": self.compactions,
            "errors": self.errors,
            "last_error": self.last_error,
            "rate_limit_seconds": self.rate_limit_seconds,
            "compact_mb_per_s": self.config.compact_mb_per_s,
        }

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                kind = self._queue.popleft()
                self._pending.discard(kind)
                self._busy = True
            try:
                self._execute(kind)
            except Exception as exc:  # noqa: BLE001 - keep the worker alive
                self.errors += 1
                self.last_error = f"{kind}: {exc}"
            finally:
                with self._cond:
                    self._busy = False
                    self._cond.notify_all()

    def _execute(self, kind: str) -> None:
        if kind == "seal":
            sealed = self.index._background_seal()
            if sealed:
                self.seals += 1
                self._notify("seal")
        elif kind == "compact":
            result = self.index._background_compact()
            if result is not None:
                self.compactions += 1
                self._throttle(result)
                self._notify("compact")

    def _throttle(self, result) -> None:
        """Sleep off the compaction's I/O debt under the rate limit."""
        rate = self.config.compact_mb_per_s
        if not rate:
            return
        merged_bytes = result.merged_rows * (self.index.ndims + 4 + 8)
        budget = merged_bytes / (rate * 1e6)
        pause = budget - result.seconds
        if pause > 0:
            self.rate_limit_seconds += pause
            time.sleep(min(pause, 5.0))

    def _notify(self, reason: str) -> None:
        callback = self.config.on_change
        if callback is None:
            return
        try:
            callback(reason)
        except Exception:  # noqa: BLE001 - observer must not kill the worker
            pass

"""Background maintenance for the segmented index.

Seal and compaction are the two heavy jobs on the write path: sealing
curve-sorts the memtable and writes a segment, compaction rewrites many
segments into one.  Inline they run on whatever thread called ``add`` —
in the detection service that is the single engine lane, so a
compaction storm stalls every queued query.

:class:`MaintenanceThread` runs the same code on another thread: its
seal job is :meth:`SegmentedS3Index.flush` (seal, compact per policy
when ``auto_compact``, enforce the storage budget) and its compact job
is :meth:`SegmentedS3Index.compact`.  ``add`` only appends to the WAL
and memtable, then *requests* a seal; the worker runs the job under the
index's maintenance lock while queries keep scanning a pinned snapshot
view (see :meth:`SegmentedS3Index._read_view`).  A request is a pending
flag, so requesting a seal twice before the worker gets to it is one
seal.

Backpressure instead of stalls: while the worker runs, ``add`` sheds
with :class:`~repro.errors.IngestBackpressure` once unsealed rows reach
``4 * flush_rows``, which the serving layer maps to the retryable wire
code ``unavailable`` — clients back off and resend, queries never queue
behind maintenance.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional


class MaintenanceThread:
    """One daemon worker running ``flush()``/``compact()`` for an index.

    Created by :meth:`SegmentedS3Index.start_maintenance`; stopped (and
    drained) by :meth:`SegmentedS3Index.stop_maintenance` or ``close``.
    ``on_change`` is called (from the worker thread) with the job kind
    after a job sealed or compacted segments; the serving layer uses it
    to invalidate result caches whose row numbering just moved.
    """

    def __init__(
        self, index, on_change: Optional[Callable[[str], None]] = None
    ):
        self.index = index
        self.on_change = on_change
        self._cond = threading.Condition()
        self._seal = False
        self._compact = False
        self._closed = False
        self._busy = False
        # Counters, read via stats() (ints: GIL-atomic to bump).
        self.seals = 0
        self.compactions = 0
        self.errors = 0
        self.last_error: Optional[str] = None
        self._thread = threading.Thread(
            target=self._run, name="s3-maintenance", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def request_seal(self) -> None:
        """Have the worker run ``flush()``."""
        with self._cond:
            if not self._closed:
                self._seal = True
                self._cond.notify_all()

    def request_compact(self) -> None:
        """Have the worker run ``compact()``."""
        with self._cond:
            if not self._closed:
                self._compact = True
                self._cond.notify_all()

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until no job is pending and the worker is idle."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._seal or self._compact or self._busy:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def close(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop the worker (after finishing pending jobs when *drain*)."""
        if drain:
            self.drain(timeout)
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout)

    def stats(self) -> dict:
        """Activity snapshot for ``serve stats`` / ``info --json``."""
        with self._cond:
            pending = [
                kind for kind, flag in
                (("seal", self._seal), ("compact", self._compact)) if flag
            ]
            busy = self._busy
        return {
            "pending": pending,
            "busy": busy,
            "seals": self.seals,
            "compactions": self.compactions,
            "errors": self.errors,
            "last_error": self.last_error,
        }

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not (self._seal or self._compact or self._closed):
                    self._cond.wait()
                if self._seal:
                    kind, self._seal = "seal", False
                elif self._compact:
                    kind, self._compact = "compact", False
                else:
                    return  # closed and drained
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
        index = self.index
        # The maintenance lock (reentrant) brackets the counter reads,
        # so an inline flush()/compact() on another thread is never
        # counted as this job's work.
        with index._maint_lock:
            seals, compactions = index._seals, index._compactions
            if kind == "seal":
                index.flush()
            else:
                index.compact()
            sealed = index._seals - seals
            compacted = index._compactions - compactions
        self.seals += sealed
        self.compactions += compacted
        if (sealed or compacted) and self.on_change is not None:
            try:
                self.on_change(kind)
            except Exception:  # noqa: BLE001 - observer must not kill the worker
                pass

"""Dynamic micro-batching: many connections, one coalesced engine call.

Independent clients each send one statistical query per key-frame — the
paper's deployed traffic shape.  Executed naively that is one block
selection descent and one section scan per request.  The micro-batcher
instead parks each arriving fingerprint in a bounded queue and lets a
single drain loop assemble batches dynamically:

* the first queued fingerprint opens a batch and starts a window of
  ``max_wait_ms``;
* fingerprints arriving inside the window join, up to ``max_batch``;
* the batch drains through **one**
  :meth:`~repro.index.batch.BatchQueryExecutor.query_batch` call on the
  server's serialised engine lane, and results are demultiplexed back to
  the per-fingerprint futures.

So N concurrent clients cost one shared descent and one coalesced scan
instead of N — the cross-request analogue of PR 2's in-process batching.
A query's block selection depends on nothing but the query, so every
served result is **bit-identical** to a solo
:meth:`~repro.index.s3.S3Index.statistical_query` regardless of which
requests happened to share a batch (tested in
``tests/serve/test_server.py``).

Admission control is all-or-nothing per request: if a request's
fingerprints would push the queue past ``queue_limit`` the whole request
is shed with :class:`ServiceOverloaded` — an explicit, immediate signal
the client can back off on, instead of unbounded buffering.  Deadlines
propagate: a fingerprint whose request deadline passes while it is still
queued is completed with :class:`DeadlineExceeded` and never reaches the
engine.

With a :class:`~repro.serve.cache.ServeCache` attached, admission
consults the cache first: cached fingerprints are answered without
queueing, a fingerprint identical to one already queued or executing
becomes a *follower* of that leader's future (in-flight deduplication —
single execution, fanned-out replies), and only genuinely new
fingerprints count against ``queue_limit``.  Results are stored under
the index token captured on the engine lane, so a batch racing an
ingest can never populate the cache with pre-mutation answers (the
token guard drops them).

A ``query`` request may carry each fingerprint's selected blocks (a
cluster router ships the selections it already made).  Those items skip
the selection and are only scanned, and they bypass the cache and the
in-flight dedupe: their answer is a function of the blocks, so storing
it under the fingerprint would let a bogus block set answer later plain
queries.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import ReproError
from ..index.batch import BatchQueryExecutor
from ..index.filtering import SelectionBatch
from ..index.s3 import SearchResult
from .cache import index_cache_token
from .metrics import LatencyWindow

if TYPE_CHECKING:
    from .server import ServeConfig


class ServiceOverloaded(ReproError):
    """The request was shed: admitting it would overflow the queue."""


class ServiceClosed(ReproError):
    """The service is shutting down and no longer admits requests."""


class DeadlineExceeded(ReproError):
    """The request's deadline passed before its queries ran."""


@dataclass
class BatcherStats:
    """Aggregate micro-batcher counters (exposed via ``stats``)."""

    queries: int = 0
    #: Queries that arrived with their blocks selected (a cluster
    #: router's shipped selections): the engine only scanned them.
    shipped: int = 0
    batches: int = 0
    shed: int = 0
    expired: int = 0
    fill_sum: int = 0
    max_queue_depth: int = 0
    #: Engine-lane stall: the delay between handing a batch to the
    #: engine executor and the engine thread actually picking it up.
    #: Near-zero when the lane is idle; it grows when something else —
    #: historically an inline compaction — occupies the lane, which is
    #: exactly what background maintenance is meant to prevent.
    stall: LatencyWindow = field(default_factory=LatencyWindow)

    @property
    def mean_fill(self) -> float:
        """Average fingerprints per engine call (> 1 means sharing)."""
        if self.batches == 0:
            return 0.0
        return self.fill_sum / self.batches

    def snapshot(self, queue_depth: int) -> dict:
        return {
            "queries": self.queries,
            "shipped": self.shipped,
            "batches": self.batches,
            "shed": self.shed,
            "expired": self.expired,
            "mean_fill": self.mean_fill,
            "queue_depth": queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "engine_stall": self.stall.snapshot(),
        }


@dataclass
class _Pending:
    """One queued fingerprint awaiting its batch.

    ``key`` is the fingerprint's cache key when a cache is attached
    (``None`` otherwise); it marks this pending entry as the in-flight
    *leader* for that key.  ``blocks`` are the curve prefixes already
    selected for it, when they came with the request.
    """

    fingerprint: np.ndarray
    future: asyncio.Future
    deadline: Optional[float] = None
    key: Optional[tuple] = None
    blocks: Optional[np.ndarray] = None


_STOP = object()


@dataclass
class MicroBatcher:
    """Collects fingerprints across requests and drains them in batches.

    Parameters
    ----------
    executor:
        The shared :class:`BatchQueryExecutor`; its ``batch_size`` should
        be at least ``config.max_batch`` (one engine call per drain).
    engine:
        A **single-threaded** executor serialising the query batches
        (one deterministic descent at a time).  Ingest no longer shares
        it — writes run on the server's dedicated ingest lane and
        queries pin snapshot views — so the lane's only other occupant
        is a previous batch, which ``stats.stall`` makes visible.
    config:
        The service's :class:`~repro.serve.server.ServeConfig`; the
        batcher reads its batching window ``max_wait_ms``, batch cap
        ``max_batch`` and admission limit ``queue_limit``.
    """

    executor: BatchQueryExecutor
    engine: Executor
    config: ServeConfig
    #: Optional :class:`~repro.serve.cache.ServeCache`; when set,
    #: admission answers repeats from the cache and dedupes identical
    #: in-flight fingerprints (see the module docstring).
    cache: Optional[object] = None

    def __post_init__(self) -> None:
        self.stats = BatcherStats()
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the drain loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._drain_loop()
            )

    async def drain_and_stop(self) -> None:
        """Stop admitting, run every queued fingerprint, join the loop."""
        if self._closing:
            return
        self._closing = True
        self._queue.put_nowait(_STOP)
        if self._task is not None:
            await self._task
            self._task = None

    @property
    def queue_depth(self) -> int:
        """Fingerprints currently queued (not yet picked into a batch)."""
        depth = self._queue.qsize()
        # The stop sentinel is not a query.
        return max(0, depth - 1) if self._closing else depth

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    async def submit_many(
        self,
        fingerprints: np.ndarray,
        deadline: Optional[float] = None,
        blocks: Optional[SelectionBatch] = None,
    ) -> list[SearchResult]:
        """Queue a request's fingerprints and await their results.

        Admission is all-or-nothing: either every fingerprint is queued
        or the request is shed.  Raises :class:`ServiceOverloaded`,
        :class:`ServiceClosed`, or :class:`DeadlineExceeded` (when any
        fingerprint expired before running).

        With *blocks* (one selection per fingerprint) the engine scans
        those blocks instead of selecting.  Such an answer is a function
        of the blocks, not of the fingerprint alone, so it bypasses the
        cache: it is never looked up, stored, led or followed.
        """
        fingerprints = np.asarray(fingerprints, dtype=np.float64)
        if fingerprints.ndim == 1:
            fingerprints = fingerprints[None, :]
        count = fingerprints.shape[0]
        if self._closing:
            raise ServiceClosed("service is shutting down")
        loop = asyncio.get_running_loop()
        # Pass 1 — classify each fingerprint without side effects beyond
        # counters: cached result, follower of an executing leader, or a
        # genuinely new query.  Only new queries face admission control.
        plan: list[tuple] = []
        new_queries = count
        if self.cache is not None and blocks is None:
            cache = self.cache
            local_leaders: set = set()
            for i in range(count):
                key = cache.result_key(
                    fingerprints[i], self.executor.alpha,
                    self.executor.depth,
                )
                hit = cache.get(key)
                if hit is not None:
                    plan.append(("hit", key, hit))
                    continue
                leader = cache.leader(key)
                if leader is not None:
                    cache.stats.inflight_deduped += 1
                    plan.append(("follow", key, leader))
                elif key in local_leaders:
                    # Duplicate within this very request: follow the
                    # leader this request is about to register.
                    cache.stats.inflight_deduped += 1
                    plan.append(("follow_local", key, None))
                else:
                    local_leaders.add(key)
                    plan.append(("new", key, None))
            new_queries = len(local_leaders)
        else:
            plan = [("new", None, None)] * count
        if self.queue_depth + new_queries > self.config.queue_limit:
            self.stats.shed += count
            raise ServiceOverloaded(
                f"queue is full ({self.queue_depth}/"
                f"{self.config.queue_limit} queued; request adds "
                f"{new_queries})"
            )
        # Pass 2 — admitted: register leaders and queue the new queries.
        shipped = [None] * count if blocks is None else np.split(
            blocks.prefixes, blocks.bounds[1:-1]
        )
        slots: list[tuple] = []
        items: list[_Pending] = []
        leaders: dict = {}
        for i, (kind, key, payload) in enumerate(plan):
            if kind == "hit":
                slots.append(("value", payload))
            elif kind == "follow":
                slots.append(("future", payload))
            elif kind == "follow_local":
                slots.append(("future", leaders[key]))
            else:
                item = _Pending(
                    fingerprints[i], loop.create_future(), deadline,
                    key=key,
                    blocks=shipped[i],
                )
                if key is not None:
                    self.cache.register_inflight(key, item.future)
                    leaders[key] = item.future
                items.append(item)
                slots.append(("future", item.future))
        for item in items:
            self._queue.put_nowait(item)
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, self.queue_depth
        )
        # Shield shared futures: an error propagating out of this gather
        # must not cancel a leader another request's follower awaits.
        pending = [
            payload for kind, payload in slots if kind == "future"
        ]
        awaited = iter(await asyncio.gather(
            *(asyncio.shield(f) for f in pending)
        ))
        return [
            payload if kind == "value" else next(awaited)
            for kind, payload in slots
        ]

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    async def _drain_loop(self) -> None:
        loop = asyncio.get_running_loop()
        stopping = False
        while True:
            item = await self._queue.get()
            if item is _STOP:
                # Drain whatever arrived before the sentinel, then exit.
                stopping = True
                if self._queue.empty():
                    return
                item = self._queue.get_nowait()
            batch = [item]
            window_ends = loop.time() + self.config.max_wait_ms / 1e3
            while len(batch) < self.config.max_batch:
                if stopping:
                    if self._queue.empty():
                        break
                    nxt = self._queue.get_nowait()
                else:
                    remaining = window_ends - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                if nxt is _STOP:
                    stopping = True
                    continue
                batch.append(nxt)
            await self._run_batch(batch, loop)
            if stopping and self._queue.empty():
                return

    async def _run_batch(
        self, batch: list[_Pending], loop: asyncio.AbstractEventLoop
    ) -> None:
        now = loop.time()
        live: list[_Pending] = []
        for item in batch:
            if item.deadline is not None and now > item.deadline:
                self.stats.expired += 1
                if not item.future.done():
                    item.future.set_exception(DeadlineExceeded(
                        "deadline passed while the query was queued"
                    ))
            else:
                live.append(item)
        if not live:
            return
        queries = np.stack([item.fingerprint for item in live])
        blocks = [item.blocks for item in live]
        try:
            results, token = await loop.run_in_executor(
                self.engine, self._call_engine, queries, blocks,
                time.perf_counter(),
            )
        except Exception as exc:  # surface engine failures per future
            # Followers share the leader's outcome, errors included:
            # their clients see the same failure they would have seen
            # executing themselves, and retry identically.
            for item in live:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        self.stats.queries += len(live)
        self.stats.shipped += sum(b is not None for b in blocks)
        self.stats.batches += 1
        self.stats.fill_sum += len(live)
        for item, result in zip(live, results):
            if not item.future.done():
                item.future.set_result(result)
            if item.key is not None:
                # Guarded by the token captured on the engine lane: if
                # an ingest invalidated the cache since this batch ran,
                # the put is dropped, never served stale.
                self.cache.put(item.key, result, token)

    def _call_engine(
        self, queries: np.ndarray, blocks: list, submitted: float
    ) -> tuple[list[SearchResult], Optional[tuple]]:
        # How long the batch sat behind the lane's previous occupant —
        # the stall a foreground query pays for lane contention.
        self.stats.stall.record(time.perf_counter() - submitted)
        # Items that came with blocks are not searched, only scanned.
        results = self.executor.query_batch(queries, blocks)
        if self.cache is None:
            return results, None
        # Captured on the serialised engine lane, so the token names
        # exactly the index state this batch queried.
        return results, index_cache_token(self.executor.index)

"""The asyncio detection server: admission control, shedding, drain.

:class:`DetectionServer` fronts one :class:`~repro.index.s3.S3Index` or
:class:`~repro.index.segmented.lsm.SegmentedS3Index` with the framing
protocol of :mod:`.protocol`.  Request flow:

* ``query`` and ``detect`` push their fingerprints through the shared
  :class:`~repro.serve.batcher.MicroBatcher`, so concurrent requests —
  from any mix of connections — drain through one coalesced engine call;
  a ``query`` that carries its ``blocks`` (a cluster router's shipped
  selections) is only scanned;
* ``ingest`` (segmented indexes only) runs on a dedicated multi-worker
  ingest lane: the segmented index is internally thread-safe (queries
  pin a snapshot view), and concurrent appends coalesce into one WAL
  group commit — one ``fsync`` acknowledges many requests.  Heavy seal
  and compaction work runs on the index's background
  :class:`~repro.index.segmented.maintenance.MaintenanceThread`, never
  on the engine lane; when unsealed rows outrun the worker the ingest
  is shed with the retryable ``unavailable`` code instead of stalling
  queries;
* ``stats`` and ``health`` are served inline from counters and the
  shared :func:`~repro.index.summary.index_summary`.

Saturation is explicit: a request that would overflow the bounded queue
is answered immediately with an ``overloaded`` error (and counted), not
buffered — the client's capped-backoff retry loop is the intended
response.  Deadlines propagate: ``deadline_ms`` bounds queueing, and
work that cannot meet it is abandoned with ``deadline_exceeded``.

Shutdown is graceful by construction: :meth:`stop` stops accepting,
answers new requests with ``shutting_down``, drains every queued
fingerprint through the engine, lets in-flight responses flush, and
closes the segmented index's WAL handle — every acknowledged ingest is
already durable, so the directory reopens replayable.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional

from ..cbcd.detector import DetectorConfig
from ..cbcd.voting import vote
from ..errors import (
    ColdFetchError,
    ConfigurationError,
    IngestBackpressure,
    ReproError,
)
from ..index.batch import BatchQueryExecutor
from ..index.options import (
    QueryOptions,
    config_options,
    validate_durability,
)
from ..index.summary import index_summary
from . import protocol
from .batcher import (
    DeadlineExceeded,
    MicroBatcher,
    ServiceClosed,
    ServiceOverloaded,
)
from .cache import CACHE_MODES, ServeCache, index_cache_token
from .metrics import Counter, LatencyWindow


class NotReady(ReproError):
    """The server is up but still loading; requests are not admitted."""


class WireOpError(ReproError):
    """An op failed with a specific wire error code to propagate.

    Raised by op handlers (primarily the cluster router relaying an
    upstream shard's error) when the response frame must carry a code
    other than the blanket ``bad_request``/``internal`` mapping.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


#: Replayed ``ingest`` responses remembered per server.  4096 uuids ×
#: a small counts dict is well under a megabyte; a replay arriving after
#: eviction is indistinguishable from a fresh ingest, so the cap bounds
#: memory at the cost of dedupe horizon, not correctness of the common
#: retry (which lands within milliseconds of the original).
INGEST_DEDUPE_CAPACITY = 4096

#: The ``stats.requests`` key every op outside the op table counts under.
UNKNOWN_OP = "unknown"

#: Threads of the ingest lane, whose concurrent appends group-commit.
INGEST_WORKERS = 4


@dataclass(frozen=True)
class ServeConfig:
    """Everything the service needs beyond the index itself.

    Engine tuning (the prefilter mode) lives in ``options``,
    the unified :class:`~repro.index.options.QueryOptions`; when given,
    its ``alpha`` wins.  After construction ``options`` is always
    populated.

    ``max_batch``, ``max_wait_ms`` and ``queue_limit`` are the
    :class:`~repro.serve.batcher.MicroBatcher`'s batch cap, batching
    window and admission limit.  ``max_batch`` always wins as the engine
    batch size; ``max_wait_ms = 0`` degenerates to one batch per
    arrival, the unbatched serving baseline.

    ``cache`` controls the serve-path caching stack
    (:mod:`repro.serve.cache`): ``"auto"`` enables the result LRU and
    in-flight dedupe, ``"off"`` disables both.  Both modes serve
    bit-identical results; the result LRU is invalidated on every
    ingest and whenever a background seal or compaction changes the
    segment set.

    ``durability`` is the WAL fsync policy of the ingest path
    (:data:`~repro.index.options.DURABILITY_MODES`): ``"group"`` — the
    default — coalesces concurrent appends into one fsync, still
    durable before acknowledging.  Whoever opens the index applies the
    mode (the CLI, the cluster supervisor) and passes it here too; the
    value cannot re-configure an already-open WAL, and ``stats``
    reports the index's own.

    ``maintenance`` moves seal/compaction onto the index's background
    worker (segmented indexes only), which sheds ingest once
    ``4 * flush_rows`` rows are unsealed.

    ``detect`` votes with :func:`~repro.cbcd.voting.vote`'s default
    parameters and, unless a request names its own ``threshold``,
    :class:`~repro.cbcd.detector.DetectorConfig`'s decision threshold.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    alpha: float = QueryOptions.alpha
    max_batch: int = 32
    max_wait_ms: float = 2.0
    queue_limit: int = 1024
    cache: str = "auto"
    durability: str = "group"
    maintenance: bool = True
    options: Optional[QueryOptions] = None

    def __post_init__(self) -> None:
        validate_durability(self.durability, api="ServeConfig.durability")
        if self.cache not in CACHE_MODES:
            raise ConfigurationError(
                f"cache must be one of {CACHE_MODES!r}, "
                f"got {self.cache!r}"
            )
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if not self.max_wait_ms >= 0:
            raise ConfigurationError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        if self.queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        opts = config_options(self.alpha, self.options)
        object.__setattr__(self, "alpha", opts.alpha)
        # The micro-batcher owns batching: its max_batch is the engine
        # batch size, whatever the options said.
        object.__setattr__(
            self, "options", opts.replace(batch_size=self.max_batch)
        )

    def settings(self) -> dict:
        """Every setting once, as a flat dict.

        The fields, with ``options`` spread in: its ``alpha`` is
        ``alpha`` and its ``batch_size`` is ``max_batch``, so neither is
        repeated.  ``stats.config`` reports this, and the cluster
        supervisor rebuilds a replica's ``serve`` command line from it.
        """
        flat = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "options"
        }
        for f in fields(self.options):
            if f.name not in ("alpha", "batch_size"):
                flat[f.name] = getattr(self.options, f.name)
        return flat


@dataclass
class ServerStats:
    """Top-level request counters, merged with batcher stats on demand."""

    started_at: float = field(default_factory=time.time)
    requests: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    connections_total: int = 0
    connections_open: int = 0
    latency: LatencyWindow = field(default_factory=LatencyWindow)


class SocketFrameServer:
    """Shared asyncio core of every frame-speaking service.

    Owns the accept loop, per-connection framing, the dispatch skeleton
    (version gate, drain gate, error-to-frame mapping, latency
    accounting) and the top-level counters.  :class:`DetectionServer`
    and the cluster's scatter-gather router
    (:class:`repro.cluster.router.ClusterRouter`) are both subclasses —
    they differ only in their op handlers and lifecycle, so the wire
    behaviour (including malformed-frame and unknown-op handling) cannot
    drift between a shard and the router fronting it.

    Subclasses provide :meth:`_op_table` and may override :meth:`_gate`
    to reject admissible-looking requests early (the readiness gate).
    *config* is the subclass's config: its ``host``, ``port`` and the
    one ``alpha`` every request is served at.
    """

    def __init__(self, config):
        self.config = config
        self.stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()
        self._inflight = 0
        self._closing = False
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's choice)."""
        if self._server is None:
            raise ReproError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def _bind(self) -> None:
        """Open the listening socket (requests may arrive immediately)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` completes (started elsewhere)."""
        await self._stopped.wait()

    async def _stop_listener(self) -> None:
        """Stop accepting, let responses flush, disconnect idle readers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _drain_connections(self) -> None:
        # In-flight handlers hold resolved futures; wait until every
        # response has been written (bounded), then disconnect idle
        # readers — clients keeping the connection open must not block
        # shutdown.
        deadline = asyncio.get_running_loop().time() + 5.0
        while self._inflight and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.005)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.wait(self._connections, timeout=1.0)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self.stats.connections_total += 1
        self.stats.connections_open += 1
        try:
            while True:
                try:
                    request = await protocol.read_message(
                        reader, protocol.MAX_FRAME_BYTES
                    )
                except protocol.ProtocolError as exc:
                    # Framing is broken: answer once, drop the connection.
                    await protocol.write_message(
                        writer,
                        protocol.error_response(
                            None, protocol.ERR_BAD_REQUEST, str(exc)
                        ),
                    )
                    break
                if request is None:  # clean EOF
                    break
                self._inflight += 1
                try:
                    response = await self._dispatch(request)
                    await protocol.write_message(writer, response)
                finally:
                    self._inflight -= 1
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self.stats.connections_open -= 1
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _op_table(self) -> dict:
        """Map of op name to async handler; supplied by the subclass."""
        raise NotImplementedError

    def _gate(self, op: str, request: dict) -> None:
        """Admission hook run after the version/drain gates; raise
        :class:`NotReady` (or any mapped error) to refuse the request."""

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        handler = self._op_table().get(op) if isinstance(op, str) else None
        # Unknown ops share one counter key: a client sending distinct
        # op names must not grow the stats payload.
        self.stats.requests.add(key=op if handler else UNKNOWN_OP)
        try:
            protocol.request_version(request)
        except protocol.ProtocolError:
            # An error frame advertising the one version, not a hangup.
            self.stats.errors.add(key=protocol.ERR_VERSION)
            return protocol.version_error(request, request.get("v"))
        if self._closing:
            self.stats.errors.add(key=protocol.ERR_SHUTTING_DOWN)
            return protocol.error_response(
                request, protocol.ERR_SHUTTING_DOWN,
                "server is draining; no new requests admitted",
            )
        if handler is None:
            self.stats.errors.add(key=protocol.ERR_BAD_REQUEST)
            return protocol.error_response(
                request, protocol.ERR_BAD_REQUEST,
                f"unknown op {op!r}; expected one of "
                "query/detect/ingest/stats/health",
            )
        t0 = time.perf_counter()
        try:
            self._gate(op, request)
            result = await handler(request)
        except protocol.ProtocolError as exc:
            self.stats.errors.add(key=protocol.ERR_BAD_REQUEST)
            return protocol.error_response(
                request, protocol.ERR_BAD_REQUEST, str(exc)
            )
        except NotReady as exc:
            self.stats.errors.add(key=protocol.ERR_NOT_READY)
            return protocol.error_response(
                request, protocol.ERR_NOT_READY, str(exc)
            )
        except WireOpError as exc:
            self.stats.errors.add(key=exc.code)
            return protocol.error_response(request, exc.code, exc.message)
        except ServiceOverloaded as exc:
            self.stats.errors.add(key=protocol.ERR_OVERLOADED)
            return protocol.error_response(
                request, protocol.ERR_OVERLOADED, str(exc)
            )
        except DeadlineExceeded as exc:
            self.stats.errors.add(key=protocol.ERR_DEADLINE)
            return protocol.error_response(
                request, protocol.ERR_DEADLINE, str(exc)
            )
        except ServiceClosed as exc:
            self.stats.errors.add(key=protocol.ERR_SHUTTING_DOWN)
            return protocol.error_response(
                request, protocol.ERR_SHUTTING_DOWN, str(exc)
            )
        except IngestBackpressure as exc:
            # The background maintenance worker is behind: unsealed rows
            # crossed the shedding threshold.  The write was refused
            # before touching the WAL, so a capped-backoff retry is
            # exactly right — the same retryable code the router and
            # clients already handle for cold-fetch outages.
            self.stats.errors.add(key=protocol.ERR_UNAVAILABLE)
            return protocol.error_response(
                request, protocol.ERR_UNAVAILABLE, str(exc)
            )
        except ColdFetchError as exc:
            # Tiered storage: the blob backend failed mid-query.  The
            # index itself is intact and a retry may hit a recovered
            # backend, so the failure maps to the retryable
            # ``unavailable`` code — never a silent partial answer, never
            # a connection teardown.
            self.stats.errors.add(key=protocol.ERR_UNAVAILABLE)
            return protocol.error_response(
                request, protocol.ERR_UNAVAILABLE, str(exc)
            )
        except ReproError as exc:
            self.stats.errors.add(key=protocol.ERR_BAD_REQUEST)
            return protocol.error_response(
                request, protocol.ERR_BAD_REQUEST, str(exc)
            )
        except Exception as exc:  # never leak a traceback over the wire
            self.stats.errors.add(key=protocol.ERR_INTERNAL)
            return protocol.error_response(
                request, protocol.ERR_INTERNAL,
                f"{type(exc).__name__}: {exc}",
            )
        self.stats.latency.record(time.perf_counter() - t0)
        return protocol.ok_response(request, result)

    # ------------------------------------------------------------------
    # shared request helpers
    # ------------------------------------------------------------------
    def _check_alpha(self, request: dict) -> None:
        alpha = request.get("alpha")
        if alpha is not None and alpha != self.config.alpha:
            raise protocol.ProtocolError(
                f"this service batches across requests at "
                f"alpha={self.config.alpha}; per-request alpha={alpha} "
                "is not supported (start another server for it)"
            )

    def _deadline(self, request: dict) -> Optional[float]:
        deadline_ms = protocol.deadline_ms_from_wire(request)
        if deadline_ms is None:
            return None
        return asyncio.get_running_loop().time() + deadline_ms / 1e3

    def base_stats(self) -> dict:
        """The counters every frame server's ``stats`` payload shares."""
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.stats.started_at,
            "connections": {
                "open": self.stats.connections_open,
                "total": self.stats.connections_total,
            },
            "requests": dict(self.stats.requests.by_key),
            "errors": dict(self.stats.errors.by_key),
            "latency": self.stats.latency.snapshot(),
        }


class DetectionServer(SocketFrameServer):
    """Serve statistical queries, detection, and ingestion over sockets."""

    def __init__(self, index, config: Optional[ServeConfig] = None):
        super().__init__(config or ServeConfig())
        self.index = index
        self._engine: Optional[ThreadPoolExecutor] = None
        self._ingest_lane: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[BatchQueryExecutor] = None
        self.batcher: Optional[MicroBatcher] = None
        self.cache: Optional[ServeCache] = None
        self._ready = False
        self.ingest_deduped = 0
        self._ingest_seen: OrderedDict[str, dict] = OrderedDict()
        self._ingest_inflight: dict[str, asyncio.Future] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether the engine is warm and requests are admitted."""
        return self._ready and not self._closing

    async def start(self) -> None:
        """Bind the socket, then warm the engine and flip to ready.

        ``health`` reports ``status="loading"`` and work ops get
        ``not_ready`` until the engine and batcher are up.
        """
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        # One engine lane serialises the query batches (one descent at
        # a time).
        self._engine = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-engine"
        )
        # Ingest runs on its own multi-worker lane: the segmented index
        # is internally thread-safe (queries pin a snapshot view), and
        # appends that overlap on the lane coalesce into one WAL group
        # commit — the whole point of durability="group".
        self._ingest_lane = ThreadPoolExecutor(
            max_workers=INGEST_WORKERS,
            thread_name_prefix="serve-ingest",
        )
        if cfg.maintenance and hasattr(self.index, "start_maintenance"):
            # Seal/compaction off both lanes; segment-set changes are
            # reported back onto the event loop to invalidate caches.
            self.index.start_maintenance(
                on_change=self._notify_index_change
            )
        executor = BatchQueryExecutor(self.index, options=cfg.options)
        self._executor = executor
        if cfg.cache != "off":
            self.cache = ServeCache(token=index_cache_token(self.index))
        self.batcher = MicroBatcher(
            executor, self._engine, cfg, cache=self.cache
        )
        self.batcher.start()
        await self._bind()
        self._ready = True

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, flush, close."""
        if self._closing:
            await self._stopped.wait()
            return
        self._closing = True
        self._ready = False
        await self._stop_listener()
        if self.batcher is not None:
            await self.batcher.drain_and_stop()
        await self._drain_connections()
        if self._ingest_lane is not None:
            self._ingest_lane.shutdown(wait=True)
        if self._engine is not None:
            self._engine.shutdown(wait=True)
        if hasattr(self.index, "close"):
            # Drains and stops the maintenance worker, then closes the
            # segmented WAL handle.
            self.index.close()
        self._stopped.set()

    # ------------------------------------------------------------------
    # background-maintenance observer
    # ------------------------------------------------------------------
    def _notify_index_change(self, kind: str) -> None:
        """Called from the maintenance worker thread after a seal or
        compaction (*kind*) changed the segment set; hop onto the event
        loop."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._on_index_change)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def _on_index_change(self) -> None:
        if self.cache is None:
            return
        # Result rows are bit-identical across seal/compaction, but the
        # index token moved; adopt it so in-flight batches that queried
        # the pre-change view cannot repopulate the LRU.
        self.cache.invalidate(index_cache_token(self.index))

    # ------------------------------------------------------------------
    # dispatch hooks
    # ------------------------------------------------------------------
    def _op_table(self) -> dict:
        return {
            "query": self._op_query,
            "detect": self._op_detect,
            "ingest": self._op_ingest,
            "stats": self._op_stats,
            "health": self._op_health,
        }

    def _gate(self, op: str, request: dict) -> None:
        # stats/health always answer (they are the probes); work ops
        # wait for the engine warm-up.
        if op in ("query", "detect", "ingest") and not self._ready:
            raise NotReady(
                "server is loading (engine warm-up in progress); "
                "retry after backoff or probe health for readiness"
            )

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def _op_query(self, request: dict) -> dict:
        self._check_alpha(request)
        queries = protocol.fingerprints_from_wire(
            request.get("fingerprints"), self.index.ndims
        )
        include_fp = bool(request.get("include_fingerprints", False))
        blocks = None
        if "blocks" in request:
            blocks = protocol.blocks_from_wire(
                request["blocks"], queries.shape[0],
                self._executor.selection_depth,
            )
        results = await self.batcher.submit_many(
            queries, deadline=self._deadline(request), blocks=blocks
        )
        return {
            "alpha": self.config.alpha,
            "results": [
                protocol.result_to_wire(r, include_fp) for r in results
            ],
        }

    async def _op_detect(self, request: dict) -> dict:
        self._check_alpha(request)
        fingerprints = protocol.fingerprints_from_wire(
            request.get("fingerprints"), self.index.ndims
        )
        timecodes = protocol.column_from_wire(
            request.get("timecodes", []), fingerprints.shape[0], "timecodes"
        )
        threshold = protocol.threshold_from_wire(
            request, DetectorConfig.decision_threshold
        )
        results = await self.batcher.submit_many(
            fingerprints, deadline=self._deadline(request)
        )
        # The vote is pure CPU: off the event loop, so other connections
        # keep being answered while it runs.
        votes = await asyncio.get_running_loop().run_in_executor(
            None, lambda: vote(
                [(tc, r.ids, r.timecodes) for tc, r in zip(timecodes, results)]
            ),
        )
        return {
            "num_queries": int(fingerprints.shape[0]),
            "detections": protocol.detections_to_wire(votes, threshold),
        }

    async def _op_ingest(self, request: dict) -> dict:
        if not hasattr(self.index, "add"):
            raise protocol.ProtocolError(
                "this server fronts a static (monolithic) index; "
                "ingest needs a segmented index directory"
            ) from None
        request_id = protocol.request_dedupe_id(request)
        if request_id is not None:
            replay = self._ingest_replay(request_id)
            if replay is not None:
                return await replay
        fingerprints, ids, timecodes = protocol.ingest_from_wire(
            request, self.index.ndims
        )
        future: Optional[asyncio.Future] = None
        if request_id is not None:
            future = asyncio.get_running_loop().create_future()
            self._ingest_inflight[request_id] = future
        try:
            loop = asyncio.get_running_loop()
            # The dedicated ingest lane: concurrent appends group-commit
            # through one WAL fsync, and queries keep scanning their
            # pinned snapshot views — a write never blocks a batch.
            added = await loop.run_in_executor(
                self._ingest_lane,
                lambda: self.index.add(fingerprints, ids, timecodes),
            )
            if self.cache is not None:
                # Every cached result predates this write; adopt the
                # post-ingest token so in-flight batches that queried
                # the old state cannot repopulate the LRU.
                self.cache.invalidate(index_cache_token(self.index))
            result = {
                "added": int(added),
                "rows": len(self.index),
                "pending_rows": self.index.pending_rows,
                "num_segments": self.index.num_segments,
            }
            if request_id is not None:
                # Remember the reply only once the write is durable, so a
                # replayed frame can never be acknowledged ahead of it.
                self._ingest_seen[request_id] = result
                while len(self._ingest_seen) > INGEST_DEDUPE_CAPACITY:
                    self._ingest_seen.popitem(last=False)
                future.set_result(result)
            return result
        except BaseException as exc:
            if future is not None and not future.done():
                # A failed ingest is not remembered: the retry must run.
                future.set_exception(exc)
                future.exception()  # consumed here; replayers re-raise
            raise
        finally:
            if request_id is not None:
                self._ingest_inflight.pop(request_id, None)

    def _ingest_replay(self, request_id: str):
        """A coroutine answering a replayed ingest, or ``None`` if new.

        Two layers: completed ingests are answered from the remembered
        counts; an ingest still on the engine lane (the retry raced the
        original, e.g. through two connections) is awaited rather than
        re-applied.
        """
        seen = self._ingest_seen.get(request_id)
        if seen is not None:
            self._ingest_seen.move_to_end(request_id)

            async def _replay_done() -> dict:
                self.ingest_deduped += 1
                return {**seen, "deduped": True}

            return _replay_done()
        inflight = self._ingest_inflight.get(request_id)
        if inflight is not None:

            async def _replay_inflight() -> dict:
                result = await asyncio.shield(inflight)
                self.ingest_deduped += 1
                return {**result, "deduped": True}

            return _replay_inflight()
        return None

    async def _op_stats(self, request: dict) -> dict:
        return self.stats_snapshot()

    async def _op_health(self, request: dict) -> dict:
        # Liveness vs readiness (v3): ``live`` is true whenever this
        # handler runs at all; ``ready`` only once the engine is warm and
        # until draining begins.  Supervisors route on ``ready``.
        if self._closing:
            status = "draining"
        elif not self._ready:
            status = "loading"
        else:
            status = "ok"
        return {
            "status": status,
            "live": True,
            "ready": self.ready,
            "alpha": self.config.alpha,
            # The partition depth shipped blocks must come at; None
            # until the engine is built.
            "depth": (
                self._executor.selection_depth if self._executor else None
            ),
            "index": index_summary(self.index),
        }

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The ``stats`` payload (also handy for in-process inspection)."""
        batcher = self.batcher.stats.snapshot(
            self.batcher.queue_depth
        ) if self.batcher else {}
        engine_stats = self._executor.stats if self._executor else None
        prefilter = {
            "mode": self.config.options.prefilter,
            "enabled": self.config.options.prefilter_enabled,
            "segments_skipped": (
                engine_stats.segments_skipped if engine_stats else 0
            ),
            "blocks_skipped": (
                engine_stats.blocks_skipped if engine_stats else 0
            ),
        }
        if hasattr(self.index, "prefilter_info"):
            prefilter["sketches"] = self.index.prefilter_info()
        cache = (
            self.cache.snapshot() if self.cache is not None
            else {"enabled": False}
        )
        cache["mode"] = self.config.cache
        storage = (
            self.index.storage_info()
            if hasattr(self.index, "storage_info")
            else {"tiered": False}
        )
        ingest = (
            self.index.ingest_info()
            if hasattr(self.index, "ingest_info")
            else {}
        )
        ingest["writable"] = hasattr(self.index, "add")
        ingest["deduped"] = self.ingest_deduped
        return {
            **self.base_stats(),
            "ready": self.ready,
            "ingest": ingest,
            "batcher": batcher,
            "prefilter": prefilter,
            "cache": cache,
            "storage": storage,
            "config": {
                **self.config.settings(),
                "durability": getattr(
                    self.index, "durability", self.config.durability
                ),
            },
        }

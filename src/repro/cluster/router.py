"""The scatter-gather router: one endpoint, many shard servers.

:class:`ClusterRouter` speaks the **unmodified** detection-service
protocol — an existing :class:`~repro.serve.client.ServeClient` points
at it with zero changes — and fans every request out to the shard
servers of a planned cluster:

* ``query`` / ``detect``: the router selects each query's blocks once,
  with the same statistical block selection a shard engine would
  compute (a selection depends only on the query, the model, the depth
  and α, so a router-side per-request selection equals the shard-side
  one bit for bit).  A shard whose occupancy does not intersect a
  query's selection provably holds no match for it and is not sent that
  query; a shard left with no queries is skipped outright.  The queries
  a shard is sent carry their selected blocks, so the shard only scans
  them.  Shard answers are reassembled by :mod:`.merge` into single-node row
  order, so merged results are **bit-identical** to one server over the
  unsharded index.
  Every query reaches the shards it needs: the router caches no
  answers, since routed traffic is unique per query and an out-of-band
  ingest into a replica would give a cache no invalidation signal.
* ``ingest``: each row is routed by its Hilbert key to the one shard
  whose planned key range contains it, and written to **all** replicas
  of that shard (tagged ``<request_id>/s<shard>`` so shard-side dedupe
  absorbs router retries and client resubmissions alike).  The rows'
  blocks join the shard's occupancy before the writes are sent, so
  skipping stays exact.  One acknowledging replica is enough to
  succeed; replicas that missed the write are counted and resync via
  re-planning.
* ``stats`` / ``health``: aggregated locally (per-shard latency, skip,
  failover and replica state), never fanned out on the hot path.

Failover: each shard is tried on its preferred replica first; a
connection loss, per-attempt timeout, or transient server state
(``shutting_down`` / ``not_ready`` / ``overloaded``) marks that replica
down for a cooldown and moves to the next, for up to
``FAILOVER_ROUNDS`` passes over the replica set within the request
deadline.  Query retries are naturally safe; ingest retries are safe by
shard-side dedupe.  Only when every replica of a needed shard fails
does the client see an error — ``unavailable``, which its retry loop
already treats as transient backpressure.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..cbcd.detector import DetectorConfig
from ..cbcd.voting import vote
from ..distortion.model import NormalDistortionModel
from ..errors import ConfigurationError, ReproError
from ..hilbert.butz import HilbertCurve
from ..hilbert.vectorized import encode_batch
from ..index.filtering import SelectionBatch, statistical_blocks_multi
from ..index.options import QueryOptions
from ..serve import protocol
from ..serve.metrics import Counter, LatencyWindow
from ..serve.server import (
    NotReady,
    ServeConfig,
    SocketFrameServer,
    WireOpError,
)
from .merge import ShardMap, merge_query_wires
from .plan import ClusterManifest, ShardPresence

_FAILOVER_CODES = frozenset({
    protocol.ERR_SHUTTING_DOWN,
    protocol.ERR_NOT_READY,
    protocol.ERR_OVERLOADED,
    protocol.ERR_UNAVAILABLE,
})


#: Bound on opening a connection to one replica.
CONNECT_TIMEOUT = 5.0
#: How long a failed replica is skipped before being retried.
DOWN_COOLDOWN = 1.0
#: Full passes over a shard's replica set before giving up.
FAILOVER_ROUNDS = 2
#: Pause between failover rounds (lets a healing replica bind).
ROUND_BACKOFF = 0.2
#: Bound on waiting for every shard to report ready at startup.
STARTUP_TIMEOUT = 60.0


@dataclass(frozen=True)
class RouterConfig:
    """Router socket and selection knobs.

    ``alpha`` must be the shard servers' — the router computes
    selections (for skipping, and for the shards to scan) at this
    value, and
    :meth:`ClusterRouter.start` refuses shards that serve at another.
    ``detect`` votes like a shard server: :func:`~repro.cbcd.voting.vote`'s
    default parameters and, unless a request names its own
    ``threshold``, :class:`~repro.cbcd.detector.DetectorConfig`'s
    decision threshold.
    """

    host: str = ServeConfig.host
    port: int = ServeConfig.port
    alpha: float = QueryOptions.alpha
    #: Per-attempt cap on one replica answering one scatter message.
    shard_timeout: float = 30.0

    def __post_init__(self) -> None:
        QueryOptions(alpha=self.alpha)  # validates alpha


class _Replica:
    """One persistent connection to one shard replica."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.lock = asyncio.Lock()
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.down_until = 0.0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def marked_down(self) -> bool:
        return time.monotonic() < self.down_until

    def mark_down(self) -> None:
        self.down_until = time.monotonic() + DOWN_COOLDOWN

    def mark_up(self) -> None:
        self.down_until = 0.0

    async def _close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass
        self.reader = None
        self.writer = None

    async def request(self, message: dict, timeout: float) -> dict:
        """One request/response over the persistent connection.

        Raises ``OSError`` / ``TimeoutError`` / ``ProtocolError`` on
        transport trouble (connection closed first, so the next attempt
        reconnects cleanly).
        """
        async with self.lock:
            try:
                if self.writer is None:
                    self.reader, self.writer = await asyncio.wait_for(
                        asyncio.open_connection(self.host, self.port),
                        timeout=CONNECT_TIMEOUT,
                    )
                await asyncio.wait_for(
                    protocol.write_message(
                        self.writer,
                        {**message, "v": protocol.PROTOCOL_VERSION},
                    ),
                    timeout=timeout,
                )
                response = await asyncio.wait_for(
                    protocol.read_message(
                        self.reader, protocol.MAX_FRAME_BYTES
                    ),
                    timeout=timeout,
                )
            except BaseException:
                await self._close()
                raise
            if response is None:
                await self._close()
                raise ConnectionResetError(
                    f"{self.address} closed the connection mid-request"
                )
            return response

    async def close(self) -> None:
        async with self.lock:
            await self._close()


@dataclass
class _ShardStats:
    """Per-shard router-side counters (surfaced through ``stats``).

    ``fanouts`` and ``latency`` count query scatters only: no health
    probe and no ingest write.
    """

    fanouts: int = 0
    skips: int = 0
    failovers: int = 0
    replica_misses: int = 0
    latency: LatencyWindow = field(default_factory=LatencyWindow)


class _ShardClient:
    """Failover-aware request path to one shard's replica set."""

    def __init__(
        self,
        shard: int,
        replicas: list[_Replica],
        config: RouterConfig,
        stats: _ShardStats,
    ):
        self.shard = shard
        self.replicas = replicas
        self.config = config
        self.stats = stats
        self._preferred = 0

    def _attempt_order(self) -> list[_Replica]:
        n = len(self.replicas)
        return [self.replicas[(self._preferred + i) % n] for i in range(n)]

    async def request(
        self, message: dict, deadline: Optional[float]
    ) -> dict:
        """Scatter one message, failing over across replicas.

        Returns the shard's ``result`` payload.  Raises
        :class:`WireOpError` — ``unavailable`` when every replica is
        unreachable within the budget, or the shard's own error code for
        a non-transient refusal (relayed verbatim to the client).
        """
        last_failure = "no replicas"
        loop = asyncio.get_running_loop()
        for round_no in range(FAILOVER_ROUNDS):
            if round_no:
                await asyncio.sleep(ROUND_BACKOFF)
            for offset, replica in enumerate(self._attempt_order()):
                # Down-marked replicas are skipped unless nothing else
                # is left standing — then they are exactly what we try.
                if replica.marked_down and any(
                    not r.marked_down for r in self.replicas
                ):
                    continue
                timeout = self.config.shard_timeout
                if deadline is not None:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        raise WireOpError(
                            protocol.ERR_DEADLINE,
                            f"deadline exhausted while contacting shard "
                            f"{self.shard} ({last_failure})",
                        )
                    timeout = min(timeout, remaining)
                try:
                    response = await replica.request(message, timeout)
                except (OSError, asyncio.TimeoutError,
                        protocol.ProtocolError) as exc:
                    replica.mark_down()
                    if offset or round_no:
                        self.stats.failovers += 1
                    last_failure = f"{replica.address}: {exc}"
                    continue
                if response.get("ok"):
                    replica.mark_up()
                    if offset or round_no:
                        self.stats.failovers += 1
                        self._preferred = self.replicas.index(replica)
                    return response.get("result", {})
                error = response.get("error") or {}
                code = error.get("code", protocol.ERR_INTERNAL)
                if code in _FAILOVER_CODES:
                    replica.mark_down()
                    if offset or round_no:
                        self.stats.failovers += 1
                    last_failure = f"{replica.address}: [{code}]"
                    continue
                # Non-transient: the shard understood and refused; relay.
                raise WireOpError(code, error.get("message", ""))
        raise WireOpError(
            protocol.ERR_UNAVAILABLE,
            f"shard {self.shard}: no replica answered within "
            f"{FAILOVER_ROUNDS} round(s); last: {last_failure}",
        )

    async def close(self) -> None:
        for replica in self.replicas:
            await replica.close()


class ClusterRouter(SocketFrameServer):
    """Scatter-gather frontend over a planned shard cluster."""

    def __init__(
        self,
        manifest: ClusterManifest,
        endpoints: dict[int, list[tuple[str, int]]],
        config: Optional[RouterConfig] = None,
    ):
        config = config or RouterConfig()
        super().__init__(config)
        self.manifest = manifest
        missing = [
            spec.shard for spec in manifest.shards
            if not endpoints.get(spec.shard)
        ]
        if missing:
            raise ConfigurationError(
                f"no endpoints for shard(s) {missing}"
            )
        self.shard_stats = {
            spec.shard: _ShardStats() for spec in manifest.shards
        }
        self.shards = [
            _ShardClient(
                spec.shard,
                [
                    _Replica(host, port)
                    for host, port in endpoints[spec.shard]
                ],
                config,
                self.shard_stats[spec.shard],
            )
            for spec in manifest.shards
        ]
        self.maps = [ShardMap.from_spec(s) for s in manifest.shards]
        self._boundaries = np.asarray(
            [s.key_lo for s in manifest.shards], dtype=np.uint64
        )
        self.curve = HilbertCurve(manifest.ndims, manifest.order)
        self.model = (
            NormalDistortionModel(manifest.ndims, manifest.sigma)
            if manifest.sigma is not None else None
        )
        # Each shard's occupancy: the planned presence, plus the blocks
        # of every row the router has routed to it since.
        self._presence: dict[int, ShardPresence] = {
            spec.shard: spec.presence for spec in manifest.shards
        }
        # Shards found at start-up to hold rows the plan does not
        # (out-of-band ingests): their occupancy is unknown, so they are
        # never skipped.
        self._dirty: set[int] = set()
        self._ready = False
        self.ingest_rows = 0
        # Replica ingest refusals carrying the retryable ``unavailable``
        # code — shard-side backpressure sheds (the shard's background
        # seal/compaction fell behind), distinct from replicas that were
        # simply unreachable.
        self.ingest_shed = 0
        self.queries_routed = Counter()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        return self._ready and not self._closing

    async def start(self) -> None:
        """Bind, then hold readiness until every shard reports ready.

        Like the shard server, the listener opens first so health probes
        answer ``loading`` while the shards warm up behind the router.
        A shard that serves at another α than the router's is refused
        with :class:`~repro.errors.ConfigurationError`: the router's
        selections would no longer be the shards'.
        """
        await self._bind()
        try:
            await self._await_shards_ready()
        except BaseException:
            await self.stop()
            raise
        self._ready = True

    async def _await_shards_ready(self) -> None:
        deadline = asyncio.get_running_loop().time() + STARTUP_TIMEOUT
        for client, spec in zip(self.shards, self.manifest.shards):
            while True:
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    raise ReproError(
                        f"shard {client.shard} not ready within "
                        f"{STARTUP_TIMEOUT:.0f}s"
                    )
                try:
                    health = await client.request(
                        {"op": "health"},
                        asyncio.get_running_loop().time()
                        + min(remaining, 5.0),
                    )
                except WireOpError:
                    await asyncio.sleep(0.05)
                    continue
                if health.get("ready"):
                    if health.get("alpha") != self.config.alpha:
                        raise ConfigurationError(
                            f"shard {client.shard} serves at alpha="
                            f"{health.get('alpha')}, this router at "
                            f"alpha={self.config.alpha}; start both at "
                            "one alpha"
                        )
                    if health.get("depth") != self.manifest.depth:
                        raise ConfigurationError(
                            f"shard {client.shard} selects at depth="
                            f"{health.get('depth')}, this cluster at "
                            f"depth={self.manifest.depth}; its shipped "
                            "blocks would all be refused"
                        )
                    rows = (health.get("index") or {}).get("rows")
                    if rows is not None and int(rows) != spec.rows:
                        # The replica already diverged from the plan
                        # (out-of-band ingest); never skip this shard.
                        self._dirty.add(client.shard)
                    break
                await asyncio.sleep(0.05)

    async def stop(self) -> None:
        if self._closing:
            await self._stopped.wait()
            return
        self._closing = True
        self._ready = False
        await self._stop_listener()
        await self._drain_connections()
        for client in self.shards:
            await client.close()
        self._stopped.set()

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
        if op in ("query", "detect", "ingest") and not self._ready:
            raise NotReady(
                "router is waiting for its shards to become ready; "
                "retry after backoff or probe health"
            )

    # ------------------------------------------------------------------
    # scatter-gather query path
    # ------------------------------------------------------------------
    def _shard_query_indices(
        self, queries: np.ndarray
    ) -> tuple[Optional[SelectionBatch], list[np.ndarray]]:
        """The batch's block selection, and which query rows each shard
        must answer.

        With a statistical model, runs the engines' block selection
        for the batch and keeps, per shard, only the queries whose
        selection intersects the shard's occupancy — an exact skip, as
        proven by the sketch tier it reuses: one occupancy test over
        every selected prefix of the batch, and a count of the hits per
        query.  Dirty shards get every query; model-less clusters get
        every query and no selection.
        """
        num = queries.shape[0]
        everything = np.arange(num, dtype=np.int64)
        if self.model is None:
            return None, [everything for _ in self.shards]
        batch = statistical_blocks_multi(
            queries,
            self.model,
            self.curve,
            self.manifest.depth,
            self.config.alpha,
        )
        owner = np.repeat(everything, batch.counts)
        per_shard = []
        for client in self.shards:
            if client.shard in self._dirty:
                per_shard.append(everything)
                continue
            presence = self._presence[client.shard]
            keep = presence.keep_mask(batch.prefixes, batch.depth)
            hits = np.bincount(owner[keep], minlength=num)
            per_shard.append(np.flatnonzero(hits))
        return batch, per_shard

    async def _scatter_queries(
        self, request: dict, queries: np.ndarray, include_fp: bool
    ) -> list[dict]:
        """Fan a query batch out and merge back into per-query wires of
        columns."""
        deadline = self._deadline(request)
        loop = asyncio.get_running_loop()
        selections, per_shard = await loop.run_in_executor(
            None, self._shard_query_indices, queries
        )

        async def _one(client, indices) -> Optional[list[dict]]:
            stats = self.shard_stats[client.shard]
            if indices.size == 0:
                stats.skips += 1
                return None
            message = {
                "op": "query",
                "fingerprints": protocol.fingerprints_to_wire(
                    queries[indices]
                ),
            }
            if selections is not None and selections.depth < 64:
                # The shard scans these instead of selecting again (a
                # 64-bit prefix would not fit the wire's int64 column;
                # such a shard selects for itself).
                shipped = selections.take(indices)
                message["blocks"] = {
                    "prefixes": shipped.prefixes.astype(np.int64),
                    "counts": shipped.counts,
                    "depth": shipped.depth,
                }
            if include_fp:
                message["include_fingerprints"] = True
            if deadline is not None:
                message["deadline_ms"] = max(
                    1.0, (deadline - loop.time()) * 1e3
                )
            t0 = time.perf_counter()
            result = await client.request(message, deadline)
            stats.fanouts += 1
            stats.latency.record(time.perf_counter() - t0)
            return result["results"]

        gathered = await asyncio.gather(*[
            _one(client, indices)
            for client, indices in zip(self.shards, per_shard)
        ])
        # Each query's answer from each shard that was asked it.
        contributions: list[list] = [[] for _ in range(queries.shape[0])]
        for shard_map, indices, wires in zip(self.maps, per_shard, gathered):
            if wires is not None:
                for b, wire in zip(indices.tolist(), wires):
                    contributions[b].append((shard_map, wire))
        total_sealed = self.manifest.total_rows
        merged = [
            merge_query_wires(shards, total_sealed, include_fp)
            for shards in contributions
        ]
        self.queries_routed.add(queries.shape[0])
        return merged

    async def _op_query(self, request: dict) -> dict:
        self._check_alpha(request)
        queries = protocol.fingerprints_from_wire(
            request.get("fingerprints"), self.manifest.ndims
        )
        include_fp = bool(request.get("include_fingerprints", False))
        merged = await self._scatter_queries(request, queries, include_fp)
        return {"alpha": self.config.alpha, "results": merged}

    async def _op_detect(self, request: dict) -> dict:
        self._check_alpha(request)
        fingerprints = protocol.fingerprints_from_wire(
            request.get("fingerprints"), self.manifest.ndims
        )
        timecodes = protocol.column_from_wire(
            request.get("timecodes", []), fingerprints.shape[0], "timecodes"
        )
        threshold = protocol.threshold_from_wire(
            request, DetectorConfig.decision_threshold
        )
        merged = await self._scatter_queries(request, fingerprints, False)
        # Off the event loop, like the shard servers' vote: scatters and
        # probes of other connections keep moving while it runs.
        votes = await asyncio.get_running_loop().run_in_executor(
            None, lambda: vote(
                [(tc, w["ids"], w["timecodes"])
                 for tc, w in zip(timecodes, merged)]
            ),
        )
        return {
            "num_queries": int(fingerprints.shape[0]),
            "detections": protocol.detections_to_wire(votes, threshold),
        }

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    def _route_rows(
        self, fingerprints: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Owning shard of each row, by planned Hilbert key range, and
        the rows' keys."""
        quantised = np.ascontiguousarray(fingerprints, dtype=np.uint8)
        keys = encode_batch(
            quantised, self.manifest.order, self.manifest.key_levels
        )
        # boundaries[i] = key_lo of shard i (ascending, boundaries[0]=0):
        # the owner is the last boundary <= key.
        owners = np.searchsorted(self._boundaries, keys, side="right") - 1
        return owners.astype(np.int64), keys

    async def _op_ingest(self, request: dict) -> dict:
        fingerprints, ids, timecodes = protocol.ingest_from_wire(
            request, self.manifest.ndims
        )
        count = fingerprints.shape[0]
        request_id = protocol.request_dedupe_id(request) or uuid.uuid4().hex
        deadline = self._deadline(request)
        owners, keys = self._route_rows(fingerprints)

        async def _one_shard(client, rows: np.ndarray) -> dict:
            """Write this shard's rows to every replica; >=1 ack wins.

            The per-shard request id is derived from the client's, so a
            client resubmission re-derives the same ids and the shard
            servers dedupe instead of double-applying.
            """
            message = {
                "op": "ingest",
                "fingerprints": protocol.fingerprints_to_wire(
                    fingerprints[rows]
                ),
                "ids": ids[rows],
                "timecodes": timecodes[rows],
                "request_id": f"{request_id}/s{client.shard}",
            }
            if deadline is not None:
                message["deadline_ms"] = max(
                    1.0,
                    (deadline - asyncio.get_running_loop().time()) * 1e3,
                )
            acks = 0
            misses = 0
            error: Optional[WireOpError] = None
            for replica in client.replicas:
                single = _ShardClient(
                    client.shard, [replica], self.config,
                    self.shard_stats[client.shard],
                )
                try:
                    await single.request(message, deadline)
                    acks += 1
                except WireOpError as exc:
                    misses += 1
                    if exc.code == protocol.ERR_UNAVAILABLE:
                        # Shard-side ingest backpressure (or a cold
                        # fetch outage): retryable, and worth counting
                        # separately from dead replicas.
                        self.ingest_shed += 1
                    error = exc
            if not acks:
                assert error is not None
                raise error
            self.shard_stats[client.shard].replica_misses += misses
            return {
                "shard": client.shard,
                "rows": int(rows.size),
                "acks": acks,
                "misses": misses,
            }

        tasks = []
        for client in self.shards:
            rows = np.flatnonzero(owners == client.shard)
            if rows.size == 0:
                continue
            # The rows' blocks join the shard's occupancy before any
            # replica holds them, so no query skips a shard that does.
            self._presence[client.shard] = self._presence[
                client.shard
            ].with_keys(keys[rows], self.manifest.key_bits)
            tasks.append(_one_shard(client, rows))
        outcomes = await asyncio.gather(*tasks)
        self.ingest_rows += count
        return {
            "added": int(count),
            "request_id": request_id,
            "shards": outcomes,
        }

    # ------------------------------------------------------------------
    # local ops
    # ------------------------------------------------------------------
    async def _op_stats(self, request: dict) -> dict:
        return {
            **self.base_stats(),
            "ready": self.ready,
            "cluster": {
                "shards": len(self.shards),
                "total_rows": self.manifest.total_rows,
                "queries_routed": self.queries_routed.total,
                "ingest_rows": self.ingest_rows,
                "ingest_shed": self.ingest_shed,
                "dirty_shards": sorted(self._dirty),
                # The router caches nothing; always zero (see the
                # perf-compat note in repro.index.batch).
                "cache": {"hits": 0, "misses": 0},
                "per_shard": [
                    {
                        "shard": client.shard,
                        "fanouts": stats.fanouts,
                        "skips": stats.skips,
                        "failovers": stats.failovers,
                        "replica_misses": stats.replica_misses,
                        "latency": stats.latency.snapshot(),
                        "replicas": [
                            {
                                "address": r.address,
                                "connected": r.writer is not None,
                                "marked_down": r.marked_down,
                            }
                            for r in client.replicas
                        ],
                    }
                    for client, stats in (
                        (c, self.shard_stats[c.shard]) for c in self.shards
                    )
                ],
            },
        }

    async def _op_health(self, request: dict) -> dict:
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
            "index": {
                "kind": "cluster",
                "rows": self.manifest.total_rows,
                "ndims": self.manifest.ndims,
                "order": self.manifest.order,
                "key_levels": self.manifest.key_levels,
                "depth": self.manifest.depth,
                "sigma": self.manifest.sigma,
                "shards": len(self.shards),
            },
        }

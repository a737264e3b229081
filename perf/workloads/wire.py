"""What the two over-the-wire workloads share: seeded per-connection
operation plans, the closed-loop client, durable-row read-back and the
framing micro-measurements."""

from __future__ import annotations

import socket
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from harness import READ, WRITE, ClientOp
from spans import Recorder
from workloads.base import STREAM_OPS, State, stream

from repro.corpus import model_queries, resample_fingerprints
from repro.index.segmented import SegmentedS3Index
from repro.serve import protocol
from repro.serve.client import ServeClient, WireResult

#: Identifiers of rows ingested during a run; above the filler range.
INGEST_ID_BASE = 2_000_000
#: Acknowledged rows looked up individually after the reopen.
READBACK_SAMPLE = 128


@dataclass
class OpPlan:
    """One connection's operations, fixed by the seed before the run.

    ``is_write[i]`` says what op *i* is; a query op sends
    ``queries[i]`` (``fingerprints_per_query`` rows), an ingest op sends
    block ``write_slot[i]`` of ``rows``.
    """

    is_write: np.ndarray
    queries: np.ndarray
    write_slot: np.ndarray
    rows: np.ndarray
    row_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.is_write.shape[0])


def make_plan(
    store, seed: int, lane: int, *, ops: int, write_share: float,
    fingerprints_per_query: int, ingest_rows: int, sigma: float,
    hot: np.ndarray | None = None, hot_share: float = 0.0,
    zipf_s: float = 1.1,
) -> OpPlan:
    """Connection *lane*'s plan: model queries ``Q = S + dS`` of stored
    rows, every one distinct unless drawn (with *hot_share*) from the
    Zipf-ranked *hot* set; ingests of fresh jittered rows."""
    rng = stream(seed, STREAM_OPS, lane)
    is_write = rng.random(ops) < write_share
    queries = model_queries(
        store, ops * fingerprints_per_query, sigma, rng=rng
    ).queries.reshape(ops, fingerprints_per_query, -1)
    if hot is not None:
        ranks = np.arange(1, len(hot) + 1, dtype=np.float64) ** -zipf_s
        picks = rng.choice(len(hot), size=ops, p=ranks / ranks.sum())
        from_hot = rng.random(ops) < hot_share
        queries[from_hot, 0] = hot[picks[from_hot]]
    writes = int(is_write.sum())
    fresh = resample_fingerprints(store, writes * ingest_rows, rng=rng)
    write_slot = np.cumsum(is_write) - 1
    # One identifier per ingest op, unique across connections.
    row_ids = INGEST_ID_BASE + lane * 1_000_000 + np.arange(writes)
    return OpPlan(
        is_write=is_write, queries=queries, write_slot=write_slot,
        rows=fresh.fingerprints.reshape(writes, ingest_rows, -1),
        row_ids=row_ids,
    )


class WireClient:
    """One closed-loop connection replaying its :class:`OpPlan`.

    The cursor persists across windows so a later window continues the
    plan instead of re-sending queries the caches have already seen.
    Acknowledged ingests are remembered for the durability check.
    """

    def __init__(self, port: int, plan: OpPlan, layer: str):
        self.client = ServeClient(port=port, timeout=60.0, retries=8)
        self.plan = plan
        self.cursor = 0
        self.acked: list[int] = []  # write slots the server acknowledged
        #: the layer the connection ends at ("serve" or "cluster")
        self.layer = layer
        self.rec: Recorder | None = None  # set for a traced window

    def close(self) -> None:
        self.client.close()

    @contextmanager
    def _traced(self, kind: str) -> Iterator[None]:
        """Span the enclosed call when a traced window is running."""
        if self.rec is None:
            yield
            return
        with self.rec.span(f"client.{kind}", request=self.cursor):
            with self.rec.span(f"{self.layer}.{kind}_rtt"):
                yield

    def op(self, _seq: int) -> str:
        plan = self.plan
        if self.cursor >= len(plan):
            raise RuntimeError("operation plan exhausted; raise plan_ops")
        i = self.cursor
        self.cursor += 1
        if plan.is_write[i]:
            slot = int(plan.write_slot[i])
            rows = plan.rows[slot]
            ids = np.full(len(rows), plan.row_ids[slot])
            timecodes = np.arange(len(rows), dtype=np.float64)
            with self._traced("ingest"):
                self.client.ingest(rows, ids, timecodes)
            self.acked.append(slot)
            return WRITE
        with self._traced("query"):
            self.client.query(plan.queries[i])
        return READ


def open_clients(
    state: State, port: int, plans: list[OpPlan], layer: str
) -> list[WireClient]:
    clients = [WireClient(port, plan, layer) for plan in plans]
    for client in clients:
        state.resources.callback(client.close)
    return clients


def client_ops(clients: list[WireClient]) -> list[ClientOp]:
    return [client.op for client in clients]


def traced_window(
    clients: list[WireClient], rec: Recorder, seconds: float
) -> int:
    """Run the clients closed-loop with spans on; returns ops completed."""
    from harness import run_window

    for client in clients:
        client.rec = rec
    try:
        window = run_window(client_ops(clients), seconds)
    finally:
        for client in clients:
            client.rec = None
    if window.failed:
        raise RuntimeError(f"traced window: {window.errors}")
    return window.completed


# ----------------------------------------------------------------------
# acknowledged => durable
# ----------------------------------------------------------------------
def acknowledged_rows(clients: list[WireClient]) -> tuple[np.ndarray, np.ndarray]:
    """``(fingerprints, ids)`` of every row a server acknowledged."""
    fingerprints, ids = [], []
    for client in clients:
        for slot in client.acked:
            rows = client.plan.rows[slot]
            fingerprints.append(rows)
            ids.append(np.full(len(rows), client.plan.row_ids[slot]))
    if not fingerprints:
        return np.empty((0, 0), dtype=np.uint8), np.empty(0, dtype=np.int64)
    return np.concatenate(fingerprints), np.concatenate(ids)


def read_back(
    directories: list, fingerprints: np.ndarray, ids: np.ndarray, seed: int
) -> tuple[int, int, int]:
    """Reopen each directory and look acknowledged rows up.

    Returns ``(rows held over all directories, sample found, sample
    size)``: the caller checks the row total against what was there
    before plus what was acknowledged; each sampled row is searched with
    an exact-match range query and must turn up in some directory.
    """
    sample = stream(seed, STREAM_OPS, lane=99).permutation(len(ids))
    sample = sample[:READBACK_SAMPLE]
    found = np.zeros(len(sample), dtype=bool)
    rows = 0
    for directory in directories:
        with SegmentedS3Index.open(directory, auto_compact=False) as index:
            rows += len(index)
            for k, j in enumerate(sample):
                hit = index.range_query(
                    fingerprints[j].astype(np.float64), 0.5
                )
                found[k] |= bool(np.any(hit.ids == ids[j]))
    return rows, int(found.sum()), len(sample)


# ----------------------------------------------------------------------
# framing micro-measurements on captured payloads
# ----------------------------------------------------------------------
def framing_costs(query: np.ndarray, result, repeats: int = 200) -> dict:
    """Encode/decode cost of one query's request and response frames.

    *result* is a real ``SearchResult`` for *query*.  Decoding goes
    through ``protocol.recv_message`` on a local socket pair, so it
    includes the read syscalls a client or server pays.
    """
    def encode() -> tuple[bytes, bytes]:
        request = protocol.encode_frame({
            "op": "query", "v": protocol.PROTOCOL_VERSION,
            "fingerprints": protocol.fingerprints_to_wire(query),
        })
        response = protocol.encode_frame(protocol.ok_response(
            {"op": "query"},
            {"alpha": 0.8, "results": [protocol.result_to_wire(result)]},
        ))
        return request, response

    start = time.perf_counter()
    for _ in range(repeats):
        request, response = encode()
    encode_us = (time.perf_counter() - start) / repeats * 1e6

    left, right = socket.socketpair()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            left.sendall(request)
            message = protocol.recv_message(right)
            protocol.fingerprints_from_wire(
                message["fingerprints"], query.shape[-1]
            )
            left.sendall(response)
            message = protocol.recv_message(right)
            WireResult.from_wire(message["result"]["results"][0])
        decode_us = (time.perf_counter() - start) / repeats * 1e6
    finally:
        left.close()
        right.close()
    return {
        "serve.frame_encode_us": encode_us,
        "serve.frame_decode_us": decode_us,
    }


def median_seconds(call, args) -> float:
    """Median wall time of ``call(arg)`` over *args*."""
    samples = []
    for arg in args:
        start = time.perf_counter()
        call(arg)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def health_rtt_us(client: ServeClient) -> float:
    """Median ``health`` round trip in µs: the wire with no work behind it."""
    return median_seconds(lambda _: client.health(), range(50)) * 1e6


def counter_delta(after: dict, before: dict, *path: str) -> float:
    """``after[path] - before[path]`` for a nested stats payload."""
    for key in path:
        after, before = after[key], before[key]
    return after - before

"""Detection service walk-through — server, wire client, micro-batching.

Boots the asyncio detection server on a background thread over a live
segmented index, then drives it the way a monitoring fleet would: eight
concurrent clients each streaming statistical queries over their own
connection.  Shows the micro-batcher merging those requests into shared
engine calls, verifies one served result bit-identical to a solo
in-process query, ingests new material over the wire, and reads the
service counters back through ``stats``.

Run:  python examples/serve_client.py
"""

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro import NormalDistortionModel
from repro.corpus import build_reference_corpus, scale_store
from repro.index.segmented import SegmentedS3Index
from repro.serve import ServeClient, ServeConfig, ServerThread

ALPHA = 0.8
NUM_CLIENTS = 8
QUERIES_PER_CLIENT = 6


def main() -> None:
    # --- a live index to serve ------------------------------------------
    print("building a segmented reference index ...")
    corpus = build_reference_corpus(num_videos=6, frames_per_video=100, seed=5)
    store = scale_store(corpus.store, 8_000, rng=5)
    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    index = SegmentedS3Index.create(
        workdir / "live", ndims=store.ndims,
        model=NormalDistortionModel(store.ndims, 12.0),
    )
    index.add(store.fingerprints, store.ids, store.timecodes)
    index.flush()
    print(f"  serving {len(index)} fingerprints from {index.directory}")

    model = NormalDistortionModel(store.ndims, 12.0)
    rng = np.random.default_rng(11)

    # --- boot the server on a background thread -------------------------
    config = ServeConfig(port=0, alpha=ALPHA, max_batch=32, max_wait_ms=5.0)
    with ServerThread(index, config) as server:
        print(f"server listening on {config.host}:{server.port}")

        # --- concurrent monitoring clients ------------------------------
        # Each thread opens its own connection and sends one query per
        # key-frame; the server merges requests that land inside the
        # 5 ms window into shared engine calls.
        def run_client(i: int) -> None:
            rows = (np.arange(QUERIES_PER_CLIENT) + i * 7) % len(corpus.store)
            queries = np.clip(
                corpus.store.fingerprints[rows].astype(np.float64)
                + model.sample(QUERIES_PER_CLIENT, rng=np.random.default_rng(i)),
                0.0, 255.0,
            )
            with ServeClient(port=server.port) as client:
                for query in queries:
                    (result,) = client.query(query)
                    assert len(result.rows) >= 0

        threads = [
            threading.Thread(target=run_client, args=(i,))
            for i in range(NUM_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        with ServeClient(port=server.port) as client:
            stats = client.stats()
            batcher = stats["batcher"]
            print(f"\n{NUM_CLIENTS} clients x {QUERIES_PER_CLIENT} queries "
                  f"-> {batcher['batches']} engine calls "
                  f"(mean fill {batcher['mean_fill']:.1f} "
                  f"fingerprints/call, shed {batcher['shed']})")
            latency = stats["latency"]
            print(f"request latency: p50 {latency['p50_ms']:.1f} ms, "
                  f"p99 {latency['p99_ms']:.1f} ms")

            # --- served == solo deterministic in-process query ----------
            probe = np.clip(
                corpus.store.fingerprints[0].astype(np.float64)
                + model.sample(1, rng=rng)[0],
                0.0, 255.0,
            )
            (wire,) = client.query(probe, include_fingerprints=True)
            solo = index.statistical_query(probe, ALPHA)
            identical = (
                np.array_equal(solo.rows, wire.rows)
                and np.array_equal(solo.fingerprints, wire.fingerprints)
            )
            print(f"served result bit-identical to solo query: {identical}")

            # --- on-the-fly referencing over the wire -------------------
            new = corpus.store.fingerprints[:50].astype(np.float64)
            reply = client.ingest(
                new,
                ids=np.full(50, 999, dtype=np.int64),
                timecodes=np.arange(50, dtype=np.float64),
            )
            print(f"\ningested {reply['added']} rows over the wire "
                  f"({reply['pending_rows']} pending in WAL); "
                  f"searchable from the next batch on")

            health = client.health()
            print(f"health: {health['status']}, index rows "
                  f"{health['index']['rows']}")

    print("\nserver drained and stopped; WAL closed cleanly")


if __name__ == "__main__":
    main()

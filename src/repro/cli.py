"""Command-line interface: ``repro-s3``.

Drives the whole system from the shell — generate material, extract
fingerprints, build an index, query it, run copy detection::

    repro-s3 synth --frames 200 --seed 1 --out clip.npy
    repro-s3 extract clip.npy --video-id 0 --out db.fp
    repro-s3 merge db0.fp db1.fp --out db.fp
    repro-s3 build db.fp --sigma 20 --out archive
    repro-s3 query archive --alpha 0.8 --from-row 7
    repro-s3 detect archive candidate.npy --alpha 0.8 --threshold 10
    repro-s3 info db.fp

The segmented live index (online ingestion, see
:mod:`repro.index.segmented`) lives in a *directory* instead of a file
prefix; ``query``, ``detect`` and ``info`` accept either form::

    repro-s3 ingest live/ db0.fp db1.fp --sigma 20
    repro-s3 ingest live/ db2.fp --flush
    repro-s3 compact live/ --force
    repro-s3 info live/
    repro-s3 query live/ --from-row 7

The detection service (:mod:`repro.serve`) exposes either index over a
socket, micro-batching queries across clients; ``request`` is the
matching wire client::

    repro-s3 serve live/ --port 8765 --max-batch 32 --max-wait-ms 2
    repro-s3 request query --port 8765 --queries q.npy
    repro-s3 request health --port 8765
    repro-s3 info live/ --json

Videos are exchanged as ``.npy`` arrays of shape ``(T, H, W)`` uint8;
fingerprint stores use the single-file binary format of
:mod:`repro.index.store`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .cbcd.detector import CopyDetector, DetectorConfig
from .cluster.router import RouterConfig
from .distortion.model import NormalDistortionModel
from .errors import ConfigurationError, ReproError
from .fingerprint.extractor import FingerprintExtractor
from .index.batch import BatchQueryExecutor
from .index.options import DURABILITY_MODES, PREFILTER_MODES, QueryOptions
from .index.s3 import S3Index
from .index.segmented import CompactionPolicy, Manifest, SegmentedS3Index
from .index.store import FingerprintStore, expected_file_size, read_header
from .index.summary import index_summary, store_file_summary
from .serve.cache import CACHE_MODES
from .serve.server import ServeConfig
from .video.synthetic import VideoClip, generate_clip


@contextmanager
def _flag_errors(args: argparse.Namespace):
    """Let a config built from flags name the flag it refuses.

    A config's :class:`ConfigurationError` starts with the field name,
    which is the flag's ``dest``: ``batch_size must be >= 1`` becomes
    ``--batch-size must be >= 1``, a one-line ``error:`` instead of a
    traceback from deep inside the engine.
    """
    try:
        yield
    except ConfigurationError as exc:
        name, _, rest = str(exc).partition(" ")
        if name not in vars(args):
            raise
        raise ConfigurationError(
            f"--{name.replace('_', '-')} {rest}"
        ) from None


def _parse_bytes(text: str) -> int:
    """Parse a byte budget like ``64M``, ``2G``, ``512K`` or ``1048576``."""
    raw = text.strip()
    scale = 1
    suffixes = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    if raw and raw[-1].upper() in suffixes:
        scale = suffixes[raw[-1].upper()]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"invalid byte size {text!r}; expected e.g. 64M, 2G or a "
            "plain byte count"
        ) from None
    if value < 0:
        raise ConfigurationError(f"byte size must be >= 0, got {text!r}")
    return int(value * scale)


def _storage_config(args: argparse.Namespace):
    """The tiered-storage config the flags describe, or ``None``.

    ``None`` (no flag passed) keeps whatever the index directory's
    manifest already records — an explicit config overrides and
    re-persists it (see ``SegmentedS3Index.attach_storage``).
    """
    budget = getattr(args, "storage_budget", None)
    cold_dir = getattr(args, "cold_dir", None)
    if budget is None and cold_dir is None:
        return None
    from .storage import StorageConfig

    return StorageConfig(
        budget_bytes=None if budget is None else _parse_bytes(budget),
        cold_dir=cold_dir,
    )


def _query_options(args: argparse.Namespace) -> QueryOptions:
    """The unified :class:`QueryOptions` a subcommand's flags describe."""
    given = {
        name: getattr(args, name)
        for name in ("alpha", "batch_size", "prefilter")
        if name in vars(args)
    }
    with _flag_errors(args):
        return QueryOptions(**given)


def serve_config_from_args(args: argparse.Namespace) -> ServeConfig:
    """The :class:`ServeConfig` ``repro-s3 serve``'s flags describe.

    The inverse of :func:`repro.cluster.supervisor.serve_argv`.
    """
    options = _query_options(args)
    with _flag_errors(args):
        return ServeConfig(
            host=args.host, port=args.port, max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms, queue_limit=args.queue_limit,
            cache=args.cache, durability=args.durability,
            maintenance=not args.no_maintenance, options=options,
        )


def _cmd_synth(args: argparse.Namespace) -> int:
    clip = generate_clip(args.frames, seed=args.seed)
    np.save(args.out, clip.frames)
    print(f"wrote {args.frames} frames ({clip.height}x{clip.width}) to {args.out}")
    return 0


def _load_clip(path: str) -> VideoClip:
    frames = np.load(path)
    return VideoClip(frames)


def _cmd_extract(args: argparse.Namespace) -> int:
    clip = _load_clip(args.video)
    extractor = FingerprintExtractor()
    result = extractor.extract(clip, video_id=args.video_id)
    result.store.save(args.out)
    print(
        f"extracted {len(result.store)} fingerprints "
        f"({result.keyframes.size} key-frames) -> {args.out}"
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    stores = [FingerprintStore.load(path) for path in args.stores]
    merged = FingerprintStore.concatenate(stores)
    merged.save(args.out)
    print(f"merged {len(stores)} stores ({len(merged)} fingerprints) -> {args.out}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    store = FingerprintStore.load(args.store)
    model = NormalDistortionModel(store.ndims, args.sigma)
    index = S3Index(store, depth=args.depth, model=model)
    index.save(args.out)
    print(
        f"indexed {len(index)} fingerprints at depth p={index.depth} "
        f"-> {args.out}.store / {args.out}.meta.json"
    )
    return 0


def _load_index(
    path: str, mmap: bool = False, storage=None, durability="always"
) -> "S3Index | SegmentedS3Index":
    """Open *path* as a segmented directory or a static index prefix.

    ``mmap=True`` maps fingerprint bytes from disk instead of reading
    them — long-lived consumers (the service) keep sealed stores out of
    the process's private memory.
    ``storage`` (a :class:`repro.storage.StorageConfig`) attaches tiered
    segment storage; directories whose manifest already records a
    storage block attach it automatically even when ``storage=None``.
    ``durability`` selects the WAL fsync policy of the ingest path
    (segmented directories only; static indexes have no WAL and
    silently ignore it).
    """
    if Path(path).is_dir():
        return SegmentedS3Index.open(
            path, mmap=mmap, storage=storage, durability=durability
        )
    if storage is not None:
        raise ConfigurationError(
            "--storage-budget/--cold-dir apply to segmented index "
            "directories only"
        )
    return S3Index.load(path, mmap=mmap)


def _cmd_query(args: argparse.Namespace) -> int:
    options = _query_options(args)
    index = _load_index(args.index)
    if args.queries is not None:
        queries = np.load(args.queries).astype(np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
    elif args.from_row is not None:
        if isinstance(index, SegmentedS3Index):
            fp, _id, _tc = index.record(args.from_row)
        else:
            fp = index.store.fingerprints[args.from_row]
        queries = fp[None, :].astype(np.float64)
    else:
        print("error: pass --queries FILE or --from-row N", file=sys.stderr)
        return 2
    executor = BatchQueryExecutor(index, options=options)
    for i, result in enumerate(executor.query_all(queries)):
        stats = result.stats
        print(
            f"query {i}: {len(result)} results, "
            f"{stats.blocks_selected} blocks, "
            f"{stats.total_seconds * 1e3:.2f} ms"
        )
        for row in range(min(len(result), args.limit)):
            print(
                f"  id={result.ids[row]} tc={result.timecodes[row]:.1f}"
            )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    config = DetectorConfig(
        decision_threshold=args.threshold,
        options=_query_options(args),
    )
    index = _load_index(args.index)
    detector = CopyDetector(index, config)
    clip = _load_clip(args.video)
    report = detector.detect_clip(clip)
    if not report.detections:
        print("no copy detected")
        return 1
    for det in report.detections:
        print(
            f"copy of video {det.video_id}: offset b={det.offset:.1f} frames, "
            f"n_sim={det.nsim}/{det.num_candidates}"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    path = Path(args.store)
    if args.json:
        print(json.dumps(_info_payload(path), indent=2))
        return 0
    if path.is_dir():
        return _segmented_info(path)
    count, ndims = read_header(args.store)
    size = path.stat().st_size
    print(f"{args.store}: {count} fingerprints, dimension {ndims}, "
          f"{size / 1e6:.2f} MB")
    return 0


def _info_payload(path: Path) -> dict:
    """The machine-readable ``info --json`` summary of *path*.

    Same schema as the detection service's ``health`` payload (both are
    built by :mod:`repro.index.summary`), so monitoring can consume
    either interchangeably.
    """
    if path.is_dir():
        with SegmentedS3Index.open(path) as index:
            payload = index_summary(index)
            payload["path"] = str(path)
            for seg in payload["segments"]:
                store_path = path / (seg["name"] + ".store")
                # Cold segments have no local .store — report the size
                # their blob holds (byte-identical to the file it was).
                seg["bytes"] = (
                    store_path.stat().st_size if store_path.is_file()
                    else expected_file_size(seg["count"], payload["ndims"])
                )
            return payload
    payload = store_file_summary(path)
    if path.with_suffix(".meta.json").is_file():
        payload["index"] = index_summary(
            S3Index.load(str(path.with_suffix("")))
        )
    return payload


def _segmented_info(directory: Path) -> int:
    manifest = Manifest.load(directory)
    with SegmentedS3Index.open(directory) as index:
        print(f"{directory}: segmented index, {len(index)} fingerprints, "
              f"dimension {manifest.ndims}")
        print(f"  geometry: order={manifest.order} "
              f"key_levels={manifest.key_levels} depth={manifest.depth} "
              f"sigma={manifest.sigma}")
        print(f"  wal: {manifest.wal} "
              f"({index.pending_rows} unsealed fingerprints)")
        print(f"  segments: {index.num_segments}")
        for seg in index.segments:
            store_path = directory / (seg.name + ".store")
            size = (
                store_path.stat().st_size if store_path.is_file()
                else expected_file_size(seg.count, manifest.ndims)
            )
            tier_note = f" [{seg.tier}]" if seg.tier != "hot" else ""
            print(f"    {seg.name}: {seg.count} fingerprints, "
                  f"{size / 1e6:.2f} MB{tier_note}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    stores = [FingerprintStore.load(path) for path in args.stores]
    handle = dict(
        flush_rows=args.memtable_rows,
        policy=CompactionPolicy(max_segments=args.max_segments),
        durability=args.durability,
    )
    if Manifest.exists(directory):
        index = SegmentedS3Index.open(directory, **handle)
    else:
        ndims = args.ndims if args.ndims is not None else stores[0].ndims
        index = SegmentedS3Index.create(
            directory, ndims=ndims, depth=args.depth,
            model=NormalDistortionModel(ndims, args.sigma), **handle,
        )
        print(f"created segmented index at {directory} "
              f"(ndims={ndims}, depth={index.depth})")
    with index:
        added = 0
        for store in stores:
            added += index.add(
                store.fingerprints, store.ids, store.timecodes
            )
        if args.flush:
            index.flush()
        print(f"ingested {added} fingerprints -> {directory} "
              f"({index.num_segments} segments, "
              f"{index.pending_rows} unsealed)")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    with SegmentedS3Index.open(
        args.directory,
        policy=CompactionPolicy(max_segments=args.max_segments),
        auto_compact=False,
    ) as index:
        if args.flush:
            index.flush()
        before = index.num_segments
        result = index.compact(force=args.force)
        if result is None:
            print(f"nothing to compact ({before} segments, "
                  f"max {index.policy.max_segments})")
        else:
            print(f"compacted {result.merged_segments} segments "
                  f"({result.merged_rows} fingerprints) into "
                  f"{result.segment_name} in {result.seconds:.2f} s; "
                  f"{before} -> {index.num_segments} segments")
    return 0


def _cmd_tier(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ConfigurationError(
            f"tier {args.tier_cmd} needs a segmented index directory, "
            f"got {args.directory}"
        )
    storage = _storage_config(args)  # always None for `status`
    if args.tier_cmd == "attach" and storage is None:
        raise ConfigurationError(
            "tier attach needs --storage-budget and/or --cold-dir"
        )
    # Opening with an explicit config persists it to MANIFEST.json and
    # demotes down to the budget before returning, so later opens (the
    # CLI, serve, the cluster supervisor) inherit the tiering.
    with SegmentedS3Index.open(directory, storage=storage) as index:
        info = index.storage_info()
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    manager = info.get("manager")
    if info["tiered"] and manager is not None:
        budget = manager["budget_bytes"]
        print(f"{args.directory}: tiered storage attached "
              f"(budget {'unlimited' if budget is None else budget} bytes, "
              f"backend {manager['backend']}, "
              f"cold_dir {manager['cold_dir']})")
    else:
        print(f"{args.directory}: tiered storage not attached "
              "(every segment resident)")
    for tier in ("hot", "warm", "cold"):
        t = info["tiers"][tier]
        print(f"  {tier}: {t['segments']} segment(s), {t['rows']} rows, "
              f"{t['bytes'] / 1e6:.2f} MB")
    if info["tiered"] and manager is not None:
        counters = manager["counters"]
        print(f"  resident: {manager['resident_bytes'] / 1e6:.2f} MB")
        print(f"  activity: {counters['fetches']} range fetch(es) "
              f"({counters['fetch_bytes']} bytes), "
              f"{counters['demotions']} demotion(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.server import DetectionServer

    config = serve_config_from_args(args)
    # mmap: the server is long-lived; sealed stores stay file-backed.
    index = _load_index(
        args.index, mmap=True, storage=_storage_config(args),
        durability=config.durability,
    )

    async def _run() -> None:
        server = DetectionServer(index, config)
        await server.start()
        if args.port_file:
            # Atomic write: a supervisor polling the file never reads a
            # partial port number.
            tmp = Path(args.port_file).with_suffix(".tmp")
            tmp.write_text(f"{server.port}\n")
            os.replace(tmp, args.port_file)
        print(
            f"serving {args.index} on {config.host}:{server.port} "
            f"(alpha={config.alpha}, max_batch={config.max_batch}, "
            f"max_wait_ms={config.max_wait_ms}, "
            f"queue_limit={config.queue_limit})",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining and shutting down ...")
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_cluster_plan(args: argparse.Namespace) -> int:
    from .cluster import plan_cluster

    storage = _storage_config(args)
    manifest = plan_cluster(
        args.source,
        args.cluster_dir,
        num_shards=args.shards,
        replicas=args.replicas,
        seal=args.seal,
        storage_budget=None if storage is None else storage.budget_bytes,
        cold_dir=args.cold_dir,
    )
    print(
        f"planned {manifest.num_shards} shard(s) x "
        f"{manifest.replicas_per_shard} replica(s) over "
        f"{manifest.total_rows} rows -> {args.cluster_dir}"
    )
    for spec in manifest.shards:
        print(
            f"  shard {spec.shard}: {spec.rows} rows, "
            f"{len(spec.segments)} segment(s), "
            f"keys [{spec.key_lo}, {spec.key_hi})"
        )
    return 0


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .cluster import ClusterManifest, ClusterRouter, ClusterSupervisor

    with _flag_errors(args):
        config = RouterConfig(
            host=args.host, port=args.port, alpha=args.alpha,
            shard_timeout=args.shard_timeout,
        )
    manifest = ClusterManifest.load(args.cluster_dir)
    supervisor = ClusterSupervisor(
        args.cluster_dir,
        mode=args.mode,
        serve_config=ServeConfig(port=0, alpha=config.alpha),
    )

    async def _run(router: ClusterRouter) -> None:
        await router.start()
        print(
            f"cluster router for {args.cluster_dir} on "
            f"{config.host}:{router.port} "
            f"({manifest.num_shards} shard(s) x "
            f"{manifest.replicas_per_shard} replica(s), "
            f"alpha={config.alpha}, mode={args.mode})",
            flush=True,
        )
        try:
            await router.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining and shutting down ...")
            await router.stop()

    supervisor.start()
    try:
        router = ClusterRouter(manifest, supervisor.endpoints(), config)
        try:
            asyncio.run(_run(router))
        except KeyboardInterrupt:
            pass
    finally:
        supervisor.stop()
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    from .cluster import ClusterManifest

    manifest = ClusterManifest.load(args.cluster_dir)
    payload = {
        "cluster_dir": str(args.cluster_dir),
        "source": manifest.source,
        "shards": manifest.num_shards,
        "replicas_per_shard": manifest.replicas_per_shard,
        "total_rows": manifest.total_rows,
        "key_bits": manifest.key_bits,
        "plan": [
            {
                "shard": s.shard,
                "rows": s.rows,
                "segments": [a.name for a in s.segments],
                "key_lo": s.key_lo,
                "key_hi": s.key_hi,
                "replicas": list(s.replicas),
            }
            for s in manifest.shards
        ],
    }
    if args.port is not None:
        from .serve.client import ServeClient

        with ServeClient(host=args.host, port=args.port) as client:
            payload["router"] = {
                "health": client.health(),
                "stats": client.stats(),
            }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_request(args: argparse.Namespace) -> int:
    from .serve.client import ServeClient

    with ServeClient(
        host=args.host, port=args.port, timeout=args.timeout,
        retries=args.retries,
    ) as client:
        if args.op in ("health", "stats"):
            payload = client.health() if args.op == "health" \
                else client.stats()
            print(json.dumps(payload, indent=2))
            return 0
        if args.op == "query":
            if args.queries is None:
                print("error: query needs --queries FILE", file=sys.stderr)
                return 2
            queries = np.load(args.queries).astype(np.float64)
            results = client.query(queries, deadline_ms=args.deadline_ms)
            for i, result in enumerate(results):
                print(f"query {i}: {len(result)} results")
                for row in range(min(len(result), args.limit)):
                    print(f"  id={result.ids[row]} "
                          f"tc={result.timecodes[row]:.1f}")
            return 0
        if args.op == "detect":
            if args.queries is None:
                print("error: detect needs --queries FILE (fingerprints)",
                      file=sys.stderr)
                return 2
            fingerprints = np.load(args.queries).astype(np.float64)
            timecodes = (
                np.load(args.timecodes).astype(np.float64)
                if args.timecodes is not None
                else np.arange(fingerprints.shape[0], dtype=np.float64)
            )
            detections = client.detect(
                fingerprints, timecodes, threshold=args.threshold,
                deadline_ms=args.deadline_ms,
            )
            if not detections:
                print("no copy detected")
                return 1
            for det in detections:
                print(
                    f"copy of video {det['video_id']}: "
                    f"offset b={det['offset']:.1f} frames, "
                    f"n_sim={det['nsim']}/{det['num_candidates']}"
                )
            return 0
        # ingest
        if not args.stores:
            print("error: ingest needs store files", file=sys.stderr)
            return 2
        for path in args.stores:
            store = FingerprintStore.load(path)
            reply = client.ingest(
                store.fingerprints, store.ids, store.timecodes
            )
            print(
                f"ingested {reply['added']} fingerprints from {path} "
                f"({reply['num_segments']} segments, "
                f"{reply['pending_rows']} unsealed)"
            )
    return 0


# Each flag group is declared once, by one helper, with its defaults
# taken from the dataclass that owns the setting.
def _add_query_flags(
    p: argparse.ArgumentParser, alpha_help: str,
    batch: bool = True, prefilter: bool = True,
) -> None:
    """``--alpha``, and ``--batch-size`` / ``--prefilter`` if asked."""
    p.add_argument("--alpha", type=float, default=QueryOptions.alpha,
                   help=alpha_help)
    if batch:
        p.add_argument("--batch-size", type=int,
                       default=QueryOptions.batch_size,
                       help="queries per batched engine call")
    if prefilter:
        p.add_argument("--prefilter", choices=PREFILTER_MODES,
                       default=QueryOptions.prefilter,
                       help="segment-sketch pre-filter: skip segments the "
                            "always-resident sketches prove empty for the "
                            "query (admissible — results are "
                            "bit-identical); off disables, auto enables")


def _add_endpoint_flags(
    p: argparse.ArgumentParser, owner: type, port_help: str,
    optional_port: bool = False,
) -> None:
    """``--host`` and ``--port`` of *owner*'s service."""
    p.add_argument("--host", default=owner.host)
    p.add_argument("--port", type=int,
                   default=None if optional_port else owner.port,
                   help=port_help)


def _add_storage_flags(p: argparse.ArgumentParser) -> None:
    """``--storage-budget`` and ``--cold-dir`` (see :func:`_storage_config`)."""
    p.add_argument("--storage-budget", default=None, metavar="BYTES",
                   help="tiered-storage resident budget (K/M/G suffixes, "
                        "e.g. 64M); segments beyond it demote to the "
                        "cold blob tier")
    p.add_argument("--cold-dir", default=None,
                   help="cold-tier blob directory (default: cold/ inside "
                        "the index directory)")


def _add_durability_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--durability", choices=DURABILITY_MODES,
                   default=ServeConfig.durability,
                   help="WAL fsync policy: always (fsync every append), "
                        "group (one fsync per batch of concurrent "
                        "appends, still durable before acknowledging; "
                        "default), async (no fsync — fastest, a crash "
                        "can lose the unsealed tail)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-s3`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-s3",
        description="Statistical similarity search / video copy detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a procedural test clip")
    p.add_argument("--frames", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="extract fingerprints from a video")
    p.add_argument("video", help="(T, H, W) uint8 .npy file")
    p.add_argument("--video-id", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("merge", help="concatenate fingerprint stores")
    p.add_argument("stores", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("build", help="build an S3 index from a store")
    p.add_argument("store")
    p.add_argument("--sigma", type=float, default=20.0)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser(
        "ingest",
        help="add fingerprint stores to a segmented live index directory",
    )
    p.add_argument("directory", help="segmented index directory "
                   "(created on first ingest)")
    p.add_argument("stores", nargs="+", help="fingerprint store files")
    p.add_argument("--ndims", type=int, default=None,
                   help="dimension when creating (default: first store's)")
    p.add_argument("--sigma", type=float, default=20.0,
                   help="distortion severity when creating")
    p.add_argument("--depth", type=int, default=None,
                   help="partition depth when creating")
    p.add_argument("--memtable-rows", type=int, default=8192,
                   help="seal the memtable past this many rows")
    p.add_argument("--max-segments", type=int,
                   default=CompactionPolicy.max_segments,
                   help="compaction trigger (segment-count cap)")
    p.add_argument("--flush", action="store_true",
                   help="seal the memtable after ingesting")
    _add_durability_flag(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "compact", help="merge segments of a segmented index directory"
    )
    p.add_argument("directory")
    p.add_argument("--max-segments", type=int,
                   default=CompactionPolicy.max_segments)
    p.add_argument("--flush", action="store_true",
                   help="seal the memtable before compacting")
    p.add_argument("--force", action="store_true",
                   help="merge everything into a single segment")
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser("query", help="run statistical queries")
    p.add_argument("index", help="index prefix (from `build --out`) "
                   "or segmented index directory")
    _add_query_flags(p, alpha_help="expectation of the statistical query")
    p.add_argument("--queries", default=None, help="(N, D) .npy of queries")
    p.add_argument("--from-row", type=int, default=None,
                   help="query with a stored fingerprint (sanity check)")
    p.add_argument("--limit", type=int, default=5,
                   help="matches to print per query")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("detect", help="detect copies in a candidate video")
    p.add_argument("index", help="index prefix or segmented index directory")
    p.add_argument("video", help="(T, H, W) uint8 .npy file")
    _add_query_flags(p, alpha_help="expectation of the statistical query")
    p.add_argument("--threshold", type=int, default=10)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser(
        "info",
        help="describe a fingerprint store file or segmented index directory",
    )
    p.add_argument("store")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable summary (same schema as "
                        "the detection service's health payload)")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser(
        "serve",
        help="run the detection service over an index (Ctrl-C drains)",
    )
    p.add_argument("index", help="index prefix or segmented index directory")
    _add_endpoint_flags(p, ServeConfig, "0 binds an ephemeral port")
    _add_query_flags(
        p, alpha_help="the expectation every request is served at",
        batch=False,
    )
    p.add_argument("--max-batch", type=int, default=ServeConfig.max_batch,
                   help="fingerprints per coalesced engine call")
    p.add_argument("--max-wait-ms", type=float,
                   default=ServeConfig.max_wait_ms,
                   help="micro-batching window")
    p.add_argument("--queue-limit", type=int,
                   default=ServeConfig.queue_limit,
                   help="queued fingerprints before requests are shed")
    p.add_argument("--cache", choices=CACHE_MODES,
                   default=ServeConfig.cache,
                   help="serve-path caching: result LRU and in-flight "
                        "dedupe (answers stay bit-identical; invalidated "
                        "on ingest)")
    _add_storage_flags(p)
    p.add_argument("--port-file", default=None,
                   help="write the bound port here after startup "
                        "(atomically; used by the cluster supervisor)")
    _add_durability_flag(p)
    p.add_argument("--no-maintenance", action="store_true",
                   help="run seal/compaction inline on the write path "
                        "instead of the background maintenance worker "
                        "(debugging aid; stalls are visible in "
                        "stats.batcher.engine_stall)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "tier",
        help="inspect tiered segment storage (see docs/storage-tiers.md)",
    )
    tsub = p.add_subparsers(dest="tier_cmd", required=True)
    tp = tsub.add_parser(
        "status",
        help="per-tier residency and activity of a segmented index",
    )
    tp.add_argument("directory", help="segmented index directory")
    tp.add_argument("--json", action="store_true",
                    help="emit the machine-readable storage block (same "
                         "schema as the serve stats payload)")
    tp.set_defaults(func=_cmd_tier)
    tp = tsub.add_parser(
        "attach",
        help="persist a tier budget/cold directory into the manifest "
             "and demote down to it",
    )
    tp.add_argument("directory", help="segmented index directory")
    _add_storage_flags(tp)
    tp.add_argument("--json", action="store_true",
                    help="emit the resulting storage block as JSON")
    tp.set_defaults(func=_cmd_tier)

    p = sub.add_parser(
        "cluster",
        help="shard a sealed segmented index and serve it scatter-gather",
    )
    csub = p.add_subparsers(dest="cluster_cmd", required=True)

    cp = csub.add_parser(
        "plan",
        help="partition a sealed segmented index into shard directories "
             "(storage flags are stamped into every replica's manifest)",
    )
    cp.add_argument("source", help="sealed segmented index directory")
    cp.add_argument("cluster_dir", help="output cluster directory")
    cp.add_argument("--shards", type=int, required=True,
                    help="number of shards (<= number of segments)")
    cp.add_argument("--replicas", type=int, default=1,
                    help="full copies per shard (failover targets)")
    cp.add_argument("--seal", action="store_true",
                    help="flush unsealed rows in the source first")
    _add_storage_flags(cp)
    cp.set_defaults(func=_cmd_cluster_plan)

    cp = csub.add_parser(
        "serve",
        help="launch all shard replicas plus the scatter-gather router",
    )
    cp.add_argument("cluster_dir", help="planned cluster directory")
    _add_endpoint_flags(
        cp, RouterConfig, "router port (0 binds an ephemeral port)"
    )
    _add_query_flags(
        cp, alpha_help="cluster-wide alpha (router and every shard)",
        batch=False, prefilter=False,
    )
    cp.add_argument("--mode", choices=["process", "thread"],
                    default="process",
                    help="replica isolation: one process per replica "
                         "(production) or in-process threads (tests)")
    cp.add_argument("--shard-timeout", type=float,
                    default=RouterConfig.shard_timeout,
                    help="per-attempt cap on one replica answering")
    cp.set_defaults(func=_cmd_cluster_serve)

    cp = csub.add_parser(
        "status",
        help="print the cluster plan (and live router stats with --port)",
    )
    cp.add_argument("cluster_dir", help="planned cluster directory")
    _add_endpoint_flags(
        cp, RouterConfig, "also query a running router at this port",
        optional_port=True,
    )
    cp.set_defaults(func=_cmd_cluster_status)

    p = sub.add_parser(
        "request",
        help="send one request to a running detection service",
    )
    p.add_argument("op", choices=["query", "detect", "ingest",
                                  "stats", "health"])
    _add_endpoint_flags(p, ServeConfig, "the service's port")
    p.add_argument("--queries", default=None,
                   help="(N, D) .npy of fingerprints (query/detect)")
    p.add_argument("--timecodes", default=None,
                   help="(N,) .npy of candidate timecodes (detect)")
    p.add_argument("stores", nargs="*",
                   help="fingerprint store files (ingest)")
    p.add_argument("--threshold", type=int, default=None,
                   help="detection decision threshold (detect)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request deadline propagated to the server")
    p.add_argument("--limit", type=int, default=5,
                   help="matches to print per query")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--retries", type=int, default=4)
    p.set_defaults(func=_cmd_request)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

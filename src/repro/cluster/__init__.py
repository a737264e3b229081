"""Sharded scatter-gather detection cluster with replica failover.

The paper's service scenario outgrows one machine once the reference
archive does; this package scales the detection service horizontally
while keeping the wire contract — and the *answers* — exactly those of
a single node:

* :mod:`.plan` — the offline shard planner: partitions a sealed
  segmented index into N shards by Hilbert key range (whole segments as
  assignment units), materialises replica directories and writes
  ``CLUSTER.json``;
* :mod:`.supervisor` — launches one detection server per replica,
  watches them, and respawns crashed ones on the same port;
* :mod:`.merge` — reassembles shard-local results into single-node row
  order (the bit-identity core);
* :mod:`.router` — the asyncio scatter-gather frontend speaking the
  unmodified client protocol: it selects each query's blocks once and
  ships them to the shards, with occupancy-based shard skipping and
  replica failover.

``repro-s3 cluster plan|serve|status`` is the CLI surface; see
``docs/cluster.md`` for the guarantees and their boundaries.
"""

from .merge import ShardMap, build_shard_maps, merge_query_wires
from .plan import (
    ClusterManifest,
    SegmentAssignment,
    ShardPresence,
    ShardSpec,
    plan_cluster,
    shard_dirname,
)
from .router import ClusterRouter, RouterConfig
from .supervisor import ClusterSupervisor, ReplicaHandle

__all__ = [
    "ClusterManifest",
    "ClusterRouter",
    "ClusterSupervisor",
    "ReplicaHandle",
    "RouterConfig",
    "SegmentAssignment",
    "ShardMap",
    "ShardPresence",
    "ShardSpec",
    "build_shard_maps",
    "merge_query_wires",
    "plan_cluster",
    "shard_dirname",
]

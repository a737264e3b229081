"""Shard planner invariants: exactly-once assignment, covering ranges.

The two properties everything downstream leans on:

* every source segment is assigned to **exactly one** shard (else the
  merged results would duplicate or drop rows);
* the shard key ranges are **disjoint and cover** ``[0, 2^key_bits)``
  (else an ingest key could route to zero or two shards).
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterManifest,
    ClusterSupervisor,
    plan_cluster,
)
from repro.distortion.model import NormalDistortionModel
from repro.errors import ConfigurationError
from repro.index.segmented import Manifest, SegmentedS3Index

NDIMS = 8
SIGMA = 10.0
NUM_SEGMENTS = 6
ROWS_PER_SEGMENT = 300


def make_source(directory, rows=NUM_SEGMENTS * ROWS_PER_SEGMENT, seed=0):
    rng = np.random.default_rng(seed)
    fp = rng.integers(0, 256, size=(rows, NDIMS), dtype=np.uint8)
    ids = rng.integers(0, 9, size=rows).astype(np.uint32)
    tcs = rng.uniform(0, 100, rows)
    index = SegmentedS3Index.create(
        directory,
        ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=ROWS_PER_SEGMENT,
        auto_compact=False,
    )
    for start in range(0, rows, ROWS_PER_SEGMENT):
        index.add(
            fp[start:start + ROWS_PER_SEGMENT],
            ids[start:start + ROWS_PER_SEGMENT],
            tcs[start:start + ROWS_PER_SEGMENT],
        )
    index.flush()
    index.close()
    return fp, ids, tcs


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    directory = tmp_path_factory.mktemp("plan") / "src"
    make_source(directory)
    return directory


@pytest.mark.parametrize("num_shards", [1, 2, 3, NUM_SEGMENTS])
def test_exactly_once_assignment(source, tmp_path, num_shards):
    manifest = plan_cluster(
        source, tmp_path / "c", num_shards=num_shards
    )
    source_manifest = Manifest.load(source)
    source_names = [seg.name for seg in source_manifest.segments]
    assigned = [
        a.name for spec in manifest.shards for a in spec.segments
    ]
    # Every segment in exactly one shard: same multiset, no repeats.
    assert sorted(assigned) == sorted(source_names)
    assert len(set(assigned)) == len(assigned)
    assert (
        sum(spec.rows for spec in manifest.shards)
        == source_manifest.total_sealed()
    )
    for spec in manifest.shards:
        assert spec.rows == sum(a.count for a in spec.segments)
        assert len(spec.segments) >= 1


@pytest.mark.parametrize("num_shards", [1, 2, 3, NUM_SEGMENTS])
def test_disjoint_covering_ranges(source, tmp_path, num_shards):
    manifest = plan_cluster(
        source, tmp_path / "c", num_shards=num_shards
    )
    bounds = [(s.key_lo, s.key_hi) for s in manifest.shards]
    assert bounds[0][0] == 0
    assert bounds[-1][1] == 1 << manifest.key_bits
    for lo, hi in bounds:
        assert lo < hi
    for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
        assert hi == lo  # adjacent: no gap, no overlap


def test_global_bases_match_source_order(source, tmp_path):
    manifest = plan_cluster(source, tmp_path / "c", num_shards=3)
    source_manifest = Manifest.load(source)
    base = 0
    expected = {}
    for pos, seg in enumerate(source_manifest.segments):
        expected[seg.name] = (base, pos)
        base += seg.count
    for spec in manifest.shards:
        for a in spec.segments:
            assert (a.global_base, a.source_pos) == expected[a.name]


def test_replicas_are_openable_indexes(source, tmp_path):
    manifest = plan_cluster(
        source, tmp_path / "c", num_shards=2, replicas=2
    )
    for spec in manifest.shards:
        assert len(spec.replicas) == 2
        for rel in spec.replicas:
            with SegmentedS3Index.open(
                tmp_path / "c" / rel, auto_compact=False
            ) as replica:
                assert len(replica) == spec.rows
                assert replica.pending_rows == 0


def test_manifest_roundtrip(source, tmp_path):
    planned = plan_cluster(source, tmp_path / "c", num_shards=3)
    loaded = ClusterManifest.load(tmp_path / "c")
    assert loaded.ndims == planned.ndims
    assert loaded.key_bits == planned.key_bits
    assert loaded.total_rows == planned.total_rows
    for a, b in zip(planned.shards, loaded.shards):
        assert (a.shard, a.key_lo, a.key_hi, a.rows) == (
            b.shard, b.key_lo, b.key_hi, b.rows
        )
        assert a.segments == b.segments
        assert a.replicas == b.replicas
        assert a.presence.depth == b.presence.depth
        assert np.array_equal(a.presence.occupied, b.presence.occupied)


def test_presence_covers_own_segments(source, tmp_path):
    manifest = plan_cluster(source, tmp_path / "c", num_shards=3)
    for spec in manifest.shards:
        occupied = spec.presence.occupied
        assert occupied.size > 0
        # Its own occupied prefixes are trivially covered ...
        assert spec.presence.keep_mask(occupied, spec.presence.depth).all()
        # ... and a mask over (occupied + complement) keeps exactly
        # the occupied half.
        universe = np.arange(
            1 << spec.presence.depth, dtype=np.uint64
        )
        mask = spec.presence.keep_mask(universe, spec.presence.depth)
        assert np.array_equal(np.flatnonzero(mask), occupied.astype(np.int64))


def test_unsealed_source_requires_seal_flag(tmp_path):
    directory = tmp_path / "src"
    rng = np.random.default_rng(7)
    index = SegmentedS3Index.create(
        directory,
        ndims=NDIMS,
        model=NormalDistortionModel(NDIMS, SIGMA),
        flush_rows=500,
        auto_compact=False,
    )
    fp = rng.integers(0, 256, size=(700, NDIMS), dtype=np.uint8)
    for start in (0, 500):  # second chunk stays in the memtable
        index.add(
            fp[start:start + 500],
            np.zeros(min(500, 700 - start), dtype=np.uint32),
            np.zeros(min(500, 700 - start)),
        )
    index.close()
    with pytest.raises(ConfigurationError, match="unsealed"):
        plan_cluster(directory, tmp_path / "c1", num_shards=1)
    manifest = plan_cluster(
        directory, tmp_path / "c2", num_shards=1, seal=True
    )
    assert manifest.total_rows == 700


def test_too_many_shards_rejected(source, tmp_path):
    with pytest.raises(ConfigurationError, match="segments"):
        plan_cluster(
            source, tmp_path / "c", num_shards=NUM_SEGMENTS + 1
        )


def test_existing_cluster_dir_rejected(source, tmp_path):
    plan_cluster(source, tmp_path / "c", num_shards=2)
    with pytest.raises(ConfigurationError, match="already"):
        plan_cluster(source, tmp_path / "c", num_shards=2)


def test_supervisor_endpoints_cover_every_replica(source, tmp_path):
    plan_cluster(source, tmp_path / "c", num_shards=2, replicas=2)
    supervisor = ClusterSupervisor(tmp_path / "c", mode="thread")
    # Not started: the endpoint table still enumerates the topology.
    table = supervisor.endpoints()
    assert sorted(table) == [0, 1]
    assert all(len(reps) == 2 for reps in table.values())


class TestTieredSource:
    """Planning from and into tiered storage (docs/storage-tiers.md)."""

    def _tiered_source(self, tmp_path):
        from repro.storage import StorageConfig

        directory = tmp_path / "src"
        make_source(directory)
        # Demote half the archive: planning must work without ever
        # promoting a cold segment.
        with SegmentedS3Index.open(
            directory,
            storage=StorageConfig(budget_bytes=None, cold_dir="cold"),
        ) as index:
            for seg in list(index._segments)[: NUM_SEGMENTS // 2]:
                index.storage.demote(seg)
        return directory

    def test_plan_from_cold_source_materialises_hot_replicas(
        self, tmp_path
    ):
        source_dir = self._tiered_source(tmp_path)
        manifest = plan_cluster(source_dir, tmp_path / "c", num_shards=2)
        for spec in manifest.shards:
            for rel in spec.replicas:
                replica_dir = tmp_path / "c" / rel
                for a in spec.segments:
                    assert (replica_dir / (a.name + ".store")).is_file()
                with SegmentedS3Index.open(
                    replica_dir, auto_compact=False
                ) as replica:
                    assert len(replica) == spec.rows
        # The source's own tiers are untouched by planning.
        src = Manifest.load(source_dir)
        assert sum(s.tier == "cold" for s in src.segments) \
            == NUM_SEGMENTS // 2

    def test_replicas_inherit_tier_budget(self, tmp_path):
        source_dir = self._tiered_source(tmp_path)
        budget = 2 * ROWS_PER_SEGMENT * (NDIMS + 12)
        manifest = plan_cluster(
            source_dir, tmp_path / "c", num_shards=2,
            storage_budget=budget,
        )
        for spec in manifest.shards:
            replica_dir = tmp_path / "c" / spec.replicas[0]
            stamped = Manifest.load(replica_dir)
            assert stamped.storage["budget_bytes"] == budget
            with SegmentedS3Index.open(
                replica_dir, auto_compact=False
            ) as replica:
                info = replica.storage_info()
                assert info["tiered"]
                resident = (
                    info["tiers"]["hot"]["bytes"]
                    + info["tiers"]["warm"]["bytes"]
                )
                assert resident <= budget

"""Select once per cluster query: the router's selection is the shard's.

A :class:`~repro.cluster.router.ClusterRouter` selects each query's
blocks once and ships them; a shard scans them instead of selecting.
That is exact only if the router's ``statistical_blocks_multi`` equals
what the shard's engine selects for the same queries, whatever other
request the engine batch merged them with.  Held here
for generated query batches, every column of the selection compared.

``PROPERTY_EXAMPLES`` raises the example count (CI's ``property-long`` job).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterManifest, ClusterRouter, plan_cluster
from repro.cluster.router import RouterConfig
from repro.distortion.model import NormalDistortionModel
from repro.index.batch import select_blocks
from repro.index.segmented import SegmentedS3Index

EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "40"))

NDIMS = 6
SIGMA = 9.0
ALPHA = 0.8
ROWS = 600


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """A 2-shard plan, a router over it (never started) and shard 0's
    replica index."""
    root = tmp_path_factory.mktemp("select-once")
    rng = np.random.default_rng(61)
    index = SegmentedS3Index.create(
        root / "src", ndims=NDIMS, model=NormalDistortionModel(NDIMS, SIGMA),
        auto_compact=False,
    )
    fp = rng.integers(30, 226, size=(ROWS, NDIMS)).astype(np.uint8)
    ids = rng.integers(0, 9, ROWS).astype(np.uint32)
    tcs = rng.uniform(0, 100, ROWS)
    for part in np.array_split(np.arange(ROWS), 3):
        index.add(fp[part], ids[part], tcs[part])
        index.flush()
    index.close()
    plan_cluster(root / "src", root / "c", num_shards=2)
    manifest = ClusterManifest.load(root / "c")
    router = ClusterRouter(
        manifest,
        {spec.shard: [("127.0.0.1", 1)] for spec in manifest.shards},
        RouterConfig(port=0, alpha=ALPHA),
    )
    shard = SegmentedS3Index.open(
        root / "c" / manifest.shards[0].replicas[0], auto_compact=False,
    )
    yield router, shard, fp
    shard.close()


def _engine_selection(shard, queries):
    """What the shard's engine selects for one batch."""
    return select_blocks(
        shard, queries, ALPHA, shard._resolve_model(None),
        shard._resolve_depth(None),
    )


def _assert_equal(got, want):
    assert got.depth == want.depth
    for name in ("prefixes", "probabilities", "counts", "thresholds",
                 "totals", "nodes", "probes"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _requests(fp, seed, sizes, jitter):
    """Query batches near stored rows (or off them, with jitter)."""
    rng = np.random.default_rng(seed)
    return [
        fp[rng.integers(0, ROWS, size)].astype(np.float64)
        + rng.normal(0.0, jitter, (size, NDIMS))
        for size in sizes
    ]


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    jitter=st.sampled_from([0.0, 2.0, 15.0, 60.0]),
)
def test_router_selection_is_the_shard_engines(cluster, seed, sizes, jitter):
    router, shard, fp = cluster
    first, second = _requests(fp, seed, sizes, jitter)
    shipped = [router._shard_query_indices(q)[0] for q in (first, second)]
    # One request per engine batch...
    for queries, selection in zip((first, second), shipped):
        _assert_equal(selection, _engine_selection(shard, queries))
    # ...and two requests merged into one engine batch.
    merged = _engine_selection(shard, np.concatenate([first, second]))
    split = np.arange(sizes[0] + sizes[1])
    _assert_equal(shipped[0], merged.take(split[:sizes[0]]))
    _assert_equal(shipped[1], merged.take(split[sizes[0]:]))

"""A selection is a pure function of the query: no answer depends on
which queries ran before it or beside it.

Eq. (4) defines ``V_α`` from the query, the distortion model and α
alone.  Random query sequences run in two orders, solo and in random
batches, through every path that selects blocks:

* ``S3Index.statistical_query`` and ``statistical_query_batch``;
* the same two on a ``SegmentedS3Index`` of three sealed segments and a
  memtable;
* ``CopyDetector.detect_fingerprints`` over clips of several engine
  batches each.

Each query's answer must be the same in both orders and equal to the
scan of its solo ``statistical_blocks_multi`` selection (the detector:
its vote over those scans).

``PROPERTY_EXAMPLES`` raises the example count (CI's ``property-long`` job).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbcd.detector import CopyDetector, DetectorConfig
from repro.cbcd.voting import vote
from repro.distortion.model import NormalDistortionModel
from repro.index.batch import scan
from repro.index.filtering import statistical_blocks_multi
from repro.index.options import QueryOptions
from repro.index.s3 import S3Index
from repro.index.segmented import SegmentedS3Index
from repro.index.store import FingerprintStore

EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "25"))

NDIMS = 20
SIGMA = 12.0
ROWS = 3000


def make_records(n, seed):
    rng = np.random.default_rng(seed)
    centers = rng.integers(40, 216, size=(n // 100, NDIMS))
    assign = rng.integers(0, centers.shape[0], size=n)
    fp = np.clip(
        centers[assign] + rng.normal(0, 10, (n, NDIMS)), 0, 255
    ).astype(np.uint8)
    ids = rng.integers(0, 30, n).astype(np.uint32)
    tcs = rng.uniform(0, 500, n)
    return fp, ids, tcs


FP, IDS, TCS = make_records(ROWS, seed=41)
MODEL = NormalDistortionModel(NDIMS, SIGMA)


@pytest.fixture(scope="module")
def mono():
    return S3Index(FingerprintStore(FP, IDS, TCS), model=MODEL)


@pytest.fixture(scope="module")
def segmented(tmp_path_factory):
    index = SegmentedS3Index.create(
        tmp_path_factory.mktemp("pure") / "seg", ndims=NDIMS, model=MODEL,
        flush_rows=10**9, auto_compact=False, durability="async",
    )
    for lo, hi in [(0, 900), (900, 1700), (1700, 2600)]:
        index.add(FP[lo:hi], IDS[lo:hi], TCS[lo:hi])
        index.flush()
    index.add(FP[2600:], IDS[2600:], TCS[2600:])  # stays in the memtable
    yield index
    index.close()


@pytest.fixture(scope="module")
def detector(mono):
    # Four fingerprints per engine batch: a clip is several batches.
    return CopyDetector(mono, DetectorConfig(
        options=QueryOptions(alpha=0.8, batch_size=4)
    ))


@st.composite
def sequences(draw, size=(2, 8)):
    """Queries near stored rows (or at a corner no row is near), an
    alpha, a second order of them and batch cuts for each order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(*size))
    queries = np.clip(
        FP[rng.integers(0, ROWS, n)] + rng.normal(0, SIGMA, (n, NDIMS)),
        0, 255,
    )
    if draw(st.booleans()):
        queries[draw(st.integers(0, n - 1))] = 0.0
    alpha = draw(st.sampled_from([0.5, 0.8, 0.95]))
    other = draw(st.permutations(range(n)))
    cuts = [
        draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True))
        for _ in range(2)
    ]
    return queries, alpha, [list(range(n)), list(other)], cuts


def batches(order, cuts):
    """*order* split at the sorted *cuts*."""
    bounds = [0, *sorted(cuts), len(order)]
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def in_order(answer, order, cuts=None):
    """``answer(positions)`` for each batch of *order* (one query per
    batch when *cuts* is None), back in query order."""
    got = {}
    for batch in [[i] for i in order] if cuts is None else batches(order, cuts):
        got.update(zip(batch, answer(batch)))
    return [got[i] for i in range(len(order))]


def key(result):
    return (
        result.rows.tolist(),
        result.ids.tolist(),
        result.timecodes.tolist(),
        result.fingerprints.tobytes(),
        result.stats.descents,
        result.stats.nodes_visited,
    )


def solo_scan(index, query, alpha):
    """The scan of *query*'s solo selection."""
    selection = statistical_blocks_multi(
        query[None, :], index.model, index.curve, index._resolve_depth(None),
        alpha,
    )
    [result], _ = scan(index, selection)
    return result


def check_index(index, queries, alpha, orders, cuts):
    want = [key(solo_scan(index, q, alpha)) for q in queries]
    for order, cut in zip(orders, cuts):
        solo = in_order(
            lambda b: [index.statistical_query(queries[b[0]], alpha)], order
        )
        batched = in_order(
            lambda b: index.statistical_query_batch(queries[b], alpha),
            order, cut,
        )
        assert [key(r) for r in solo] == want
        assert [key(r) for r in batched] == want


@given(sequences())
@settings(max_examples=EXAMPLES, deadline=None)
def test_monolithic_answers_are_history_free(mono, case):
    check_index(mono, *case)


@given(sequences())
@settings(max_examples=EXAMPLES, deadline=None)
def test_segmented_answers_are_history_free(segmented, case):
    check_index(segmented, *case)


@given(st.lists(sequences(size=(5, 10)), min_size=2, max_size=3),
       st.randoms(use_true_random=False))
@settings(max_examples=max(1, EXAMPLES // 3), deadline=None)
def test_detector_verdicts_are_history_free(detector, clips, random):
    cfg = detector.config
    fingerprints = [c[0].round().astype(np.uint8) for c in clips]
    timecodes = [np.arange(len(f), dtype=np.float64) * 10 for f in fingerprints]
    want = []
    for fps, tcs in zip(fingerprints, timecodes):
        results = [
            solo_scan(detector.index, q, cfg.alpha)
            for q in fps.astype(np.float64)
        ]
        want.append((
            vote(
                ((tc, r.ids, r.timecodes) for tc, r in zip(tcs, results)),
                tolerance=cfg.vote_tolerance, tukey_c=cfg.tukey_c,
                min_matches=cfg.min_matches,
            ),
            sum(r.stats.rows_scanned for r in results),
        ))
    order = list(range(len(clips)))
    for _ in range(2):
        got = {}
        for i in order:
            report = detector.detect_fingerprints(fingerprints[i], timecodes[i])
            got[i] = (report.votes, report.rows_scanned)
        assert [got[i] for i in range(len(clips))] == want
        random.shuffle(order)

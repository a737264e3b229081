"""The columnar vote against the loop it replaced (``reference_vote``).

``PROPERTY_EXAMPLES`` raises the example count (CI's ``property-long`` job).
"""

import os
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbcd import mestimator
from repro.cbcd.voting import (
    QueryMatches,
    count_votes,
    group_by_identifier,
    vote,
)

from . import reference_vote

EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "300"))

# Time-codes on a quarter-frame lattice (ties between offsets are common,
# which is where a changed summation order would show) or free floats.
_lattice = st.integers(-400, 400).map(lambda n: n / 4.0)
_timecode = st.one_of(_lattice, st.floats(-1e3, 1e3, allow_nan=False))
# A few small ids that repeat inside one query's matches and across
# queries, plus a wide range of ids seen once (below ``min_matches``).
_identifier = st.one_of(st.integers(0, 4), st.integers(0, 2**31))
# Offsets spread over thousands of Tukey widths: many histogram bins.
_far_timecode = st.floats(-1e5, 1e5, allow_nan=False)


@st.composite
def match_buffers(draw):
    matches = []
    for _ in range(draw(st.integers(0, 12))):
        pairs = draw(st.lists(
            st.tuples(_identifier, st.one_of(_timecode, _far_timecode)),
            min_size=0, max_size=6,
        ))
        matches.append(QueryMatches(
            timecode=draw(_timecode),
            ids=np.array([p[0] for p in pairs], dtype=np.int64),
            timecodes=np.array([p[1] for p in pairs], dtype=np.float64),
        ))
    return matches


@st.composite
def many_identifier_buffers(draw):
    """20-60 identifiers in one buffer: candidate counts from one to every
    query, several matches per candidate, offsets from one lattice point
    to spread over ±10⁵ (thousands of histogram bins)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_queries = draw(st.integers(2, 40))
    query_tcs = rng.integers(-400, 400, num_queries) / 4.0
    ids = [[] for _ in range(num_queries)]
    tcs = [[] for _ in range(num_queries)]
    for uid in rng.choice(2**31, draw(st.integers(20, 60)), replace=False):
        hits = rng.integers(0, num_queries, rng.integers(1, 2 * num_queries))
        spread = rng.choice([0.0, 0.5, 6.0, 200.0, 1e5])
        jitter = rng.uniform(-spread, spread, hits.size)
        on_lattice = rng.random(hits.size) < 0.5
        jitter[on_lattice] = np.round(jitter[on_lattice] * 4.0) / 4.0
        offsets = rng.integers(-400, 400) / 4.0 + jitter
        for q, b in zip(hits.tolist(), offsets.tolist()):
            ids[q].append(uid)
            tcs[q].append(query_tcs[q] - b)
    matches = []
    for q in rng.permutation(num_queries).tolist():
        order = rng.permutation(len(ids[q]))
        matches.append(QueryMatches(
            timecode=float(query_tcs[q]),
            ids=np.array(ids[q], dtype=np.int64)[order],
            timecodes=np.array(tcs[q], dtype=np.float64)[order],
        ))
    return matches


def _assert_same_votes(got, want):
    assert len(got) == len(want)
    by_id = {v.video_id: v for v in want}
    for v in got:
        ref = by_id[v.video_id]
        assert (v.nsim, v.num_candidates) == (ref.nsim, ref.num_candidates)
        assert v.offset == ref.offset
        # Exact: votes are ordered by cost, so a last-bit change could
        # flip the verdict.
        assert v.cost == ref.cost
    # The oracle orders ties by arrival; the kernel's order is total.
    keys = [(-v.nsim, v.cost, v.video_id) for v in got]
    assert keys == sorted(keys)


class TestAgainstReference:
    @given(
        match_buffers(),
        st.sampled_from([0.0, 0.5, 2.0]),
        st.sampled_from([0.25, 3.0, 6.0]),
        st.integers(1, 3),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_vote_matches_reference(self, matches, tolerance, c, min_matches):
        kwargs = dict(tolerance=tolerance, tukey_c=c, min_matches=min_matches)
        _assert_same_votes(
            vote(matches, **kwargs), reference_vote.vote(matches, **kwargs)
        )

    @given(
        many_identifier_buffers(),
        st.sampled_from([0.0, 0.5, 2.0]),
        st.sampled_from([0.25, 3.0, 6.0]),
        st.integers(1, 3),
    )
    @settings(max_examples=max(EXAMPLES // 3, 1), deadline=None)
    def test_many_identifiers_match_reference(
        self, matches, tolerance, c, min_matches
    ):
        kwargs = dict(tolerance=tolerance, tukey_c=c, min_matches=min_matches)
        _assert_same_votes(
            vote(matches, **kwargs), reference_vote.vote(matches, **kwargs)
        )

    @given(match_buffers())
    @settings(max_examples=max(EXAMPLES // 3, 1), deadline=None)
    def test_grouping_matches_reference(self, matches):
        got = group_by_identifier(matches)
        want = reference_vote.group_by_identifier(matches)
        assert sorted(got) == sorted(want) == list(got)
        for uid, (cand_tcs, match_tcs) in got.items():
            assert cand_tcs == want[uid][0]
            assert len(match_tcs) == len(want[uid][1])
            for a, b in zip(match_tcs, want[uid][1]):
                assert np.array_equal(a, b)

    @given(match_buffers(), _timecode, st.sampled_from([0.0, 1.0, 50.0]))
    @settings(max_examples=max(EXAMPLES // 3, 1), deadline=None)
    def test_estimate_and_count_match_reference(self, matches, offset, tol):
        for cand_tcs, match_tcs in group_by_identifier(matches).values():
            got = mestimator.estimate_offset(cand_tcs, match_tcs, c=3.0)
            want = reference_vote.estimate_offset(cand_tcs, match_tcs, c=3.0)
            assert got.offset == want.offset
            assert got.num_candidates == want.num_candidates
            assert got.cost == want.cost
            assert count_votes(cand_tcs, match_tcs, offset, tol) == (
                reference_vote.count_votes(cand_tcs, match_tcs, offset, tol)
            )

    def test_single_pair_identifier(self):
        matches = [QueryMatches(10.0, np.array([7]), np.array([4.0]))]
        got = vote(matches, min_matches=1)
        _assert_same_votes(got, reference_vote.vote(matches, min_matches=1))
        assert (got[0].offset, got[0].num_candidates) == (6.0, 1)

    def test_empty_results_are_ignored(self):
        queries = [
            (1.0, np.array([], dtype=np.int64), np.array([])),
            (2.0, [3], [1.0]),
            (4.0, [], []),
            (6.0, [3], [5.0]),
        ]
        (only,) = vote(queries)
        assert (only.video_id, only.offset, only.nsim) == (3, 1.0, 2)


def test_offset_chunking_bounds_scratch_memory():
    """20k matches of one id × 4k candidate offsets would be a 640 MB
    residual matrix in one piece; chunked it stays near the 8 MB bound."""
    rng = np.random.default_rng(0)
    num = 20_000
    candidate_tcs = np.arange(num, dtype=np.float64)
    # Offsets on 4000 distinct values inside one Tukey width: one
    # histogram mode holding every candidate offset.
    offsets = rng.integers(0, 4_000, num) / 1_000.0
    queries = [
        (tc, np.array([9]), np.array([tc - b]))
        for tc, b in zip(candidate_tcs, offsets)
    ]
    tracemalloc.start()
    try:
        (only,) = vote(queries, tolerance=4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert only.num_candidates == only.nsim == num
    assert 0.0 <= only.offset <= 4.0
    assert peak < 64 * 2**20


def test_identifier_groups_bound_scratch_memory():
    """The heavy identifier above beside 40 light ones whose offsets
    spread over ±10⁵: padding the light ones to the heavy one's
    candidates or offsets would break the bound, so they are costed in
    groups of their own."""
    rng = np.random.default_rng(0)
    num = 20_000
    candidate_tcs = np.arange(num, dtype=np.float64)
    offsets = rng.integers(0, 4_000, num) / 1_000.0
    ids = [[9] for _ in range(num)]
    tcs = [[tc - b] for tc, b in zip(candidate_tcs.tolist(), offsets.tolist())]
    for uid in range(100, 140):
        for q in rng.choice(num, 5, replace=False).tolist():
            ids[q].append(uid)
            tcs[q].append(candidate_tcs[q] - rng.uniform(-1e5, 1e5))
    queries = [
        QueryMatches(tc, np.array(i), np.array(t))
        for tc, i, t in zip(candidate_tcs.tolist(), ids, tcs)
    ]
    tracemalloc.start()
    try:
        votes = vote(queries, tolerance=4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    heavy, *light = votes
    # The heavy identifier's vote as the per-identifier kernel gave it.
    assert (heavy.video_id, heavy.offset, heavy.nsim, heavy.num_candidates,
            heavy.cost) == (9, 1.996655574459898, num, num, 12532.117242150061)
    light_only = [
        QueryMatches(q.timecode, q.ids[1:], q.timecodes[1:]) for q in queries
    ]
    _assert_same_votes(light, reference_vote.vote(light_only, tolerance=4.0))

"""Tests for the voting strategy."""

import numpy as np
import pytest

from repro.cbcd.detector import DetectorConfig
from repro.cbcd.monitor import MonitorConfig
from repro.cbcd.voting import (
    QueryMatches,
    count_votes,
    group_by_identifier,
    vote,
)
from repro.cluster.router import RouterConfig
from repro.errors import ConfigurationError
from repro.serve.server import ServeConfig

BAD_VOTE_PARAMETERS = [
    dict(tolerance=-1.0),
    dict(tukey_c=0.0),
    dict(tukey_c=-6.0),
    dict(min_matches=0),
]


def matches_for(true_id, true_b, num=10, noise_ids=(), rng=None):
    """Build per-query matches consistent with one planted copy."""
    rng = rng or np.random.default_rng(0)
    out = []
    for tc in np.arange(0, num * 2.0, 2.0):
        ids = [true_id]
        tcs = [tc - true_b]
        for nid in noise_ids:
            ids.append(nid)
            tcs.append(float(rng.uniform(0, 500)))
        out.append(
            QueryMatches(
                timecode=float(tc),
                ids=np.array(ids, dtype=np.uint32),
                timecodes=np.array(tcs),
            )
        )
    return out


class TestGrouping:
    def test_groups_by_id(self):
        matches = matches_for(3, 5.0, num=4, noise_ids=(9,))
        grouped = group_by_identifier(matches)
        assert set(grouped) == {3, 9}
        cand_tcs, match_tcs = grouped[3]
        assert len(cand_tcs) == 4
        assert all(arr.size == 1 for arr in match_tcs)

    def test_duplicate_id_matches_collapse_per_query(self):
        matches = [
            QueryMatches(
                timecode=1.0,
                ids=np.array([4, 4, 4], dtype=np.uint32),
                timecodes=np.array([10.0, 11.0, 300.0]),
            )
        ]
        grouped = group_by_identifier(matches)
        cand_tcs, match_tcs = grouped[4]
        assert len(cand_tcs) == 1
        assert match_tcs[0].size == 3

    def test_rejects_misaligned_arrays(self):
        bad = [
            QueryMatches(
                timecode=0.0,
                ids=np.array([1, 2]),
                timecodes=np.array([1.0]),
            )
        ]
        with pytest.raises(ConfigurationError):
            group_by_identifier(bad)


class TestCountVotes:
    def test_counts_consistent_candidates(self):
        candidate_tcs = [10.0, 12.0, 14.0]
        matched = [np.array([5.0]), np.array([7.0]), np.array([99.0])]
        assert count_votes(candidate_tcs, matched, offset=5.0, tolerance=1.0) == 2

    def test_one_vote_per_candidate(self):
        candidate_tcs = [10.0]
        matched = [np.array([5.0, 5.1, 4.9])]  # three agreeing matches
        assert count_votes(candidate_tcs, matched, offset=5.0, tolerance=1.0) == 1

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ConfigurationError):
            count_votes([1.0], [np.array([1.0])], 0.0, -1.0)


class TestVote:
    def test_planted_copy_wins(self):
        matches = matches_for(7, true_b=-20.0, num=12, noise_ids=(1, 2))
        votes = vote(matches, tolerance=2.0)
        assert votes[0].video_id == 7
        assert votes[0].offset == pytest.approx(-20.0, abs=0.5)
        assert votes[0].nsim == 12

    def test_noise_ids_score_low(self):
        matches = matches_for(7, true_b=3.0, num=12, noise_ids=(1,))
        votes = {v.video_id: v for v in vote(matches, tolerance=2.0)}
        assert votes[7].nsim > votes.get(1).nsim if 1 in votes else True

    def test_min_matches_filters_rare_ids(self):
        matches = matches_for(7, true_b=0.0, num=5)
        matches.append(
            QueryMatches(
                timecode=99.0,
                ids=np.array([50], dtype=np.uint32),
                timecodes=np.array([1.0]),
            )
        )
        votes = vote(matches, min_matches=2)
        assert all(v.video_id != 50 for v in votes)

    def test_empty_matches(self):
        assert vote([]) == []

    @pytest.mark.parametrize("bad", BAD_VOTE_PARAMETERS)
    @pytest.mark.parametrize("voted", [True, False])
    def test_rejects_bad_parameters_whatever_the_buffer(self, bad, voted):
        """Checked on entry, not only once some identifier gets a vote."""
        matches = matches_for(7, true_b=0.0, num=5 if voted else 1)
        with pytest.raises(ConfigurationError):
            vote(matches, **bad)

    @pytest.mark.parametrize(
        "config", [DetectorConfig, MonitorConfig, ServeConfig, RouterConfig]
    )
    @pytest.mark.parametrize("bad", BAD_VOTE_PARAMETERS)
    def test_configs_reject_bad_vote_parameters(self, config, bad):
        """A misconfigured detector fails at construction, not on its
        first vote.  The monitor, the server and the router declare no
        vote parameters (they vote with ``vote``'s defaults), so they
        refuse one as an unknown field."""
        fields = {
            "vote_tolerance" if k == "tolerance" else k: v
            for k, v in bad.items()
        }
        expected = ConfigurationError if config is DetectorConfig else TypeError
        with pytest.raises(expected):
            config(**fields)

    def test_votes_sorted_by_nsim(self):
        rng = np.random.default_rng(3)
        matches = matches_for(7, true_b=0.0, num=10, noise_ids=(1, 2), rng=rng)
        votes = vote(matches)
        nsims = [v.nsim for v in votes]
        assert nsims == sorted(nsims, reverse=True)


class TestVotingProperties:
    def test_time_translation_equivariance(self):
        """Shifting the whole candidate stream shifts b and nothing else."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.floats(min_value=-500, max_value=500))
        @settings(max_examples=15, deadline=None)
        def check(delta):
            base = matches_for(3, true_b=7.0, num=8)
            shifted = [
                QueryMatches(
                    timecode=m.timecode + delta,
                    ids=m.ids,
                    timecodes=m.timecodes,
                )
                for m in base
            ]
            v0 = vote(base)[0]
            v1 = vote(shifted)[0]
            assert v1.nsim == v0.nsim
            assert v1.offset == pytest.approx(v0.offset + delta, abs=0.2)

        check()

    def test_match_order_invariance(self):
        base = matches_for(3, true_b=-4.0, num=10, noise_ids=(1, 2))
        # Two identifiers tied on (nsim, cost), first met in opposite
        # orders by the two buffers: the tie must break on the id.
        for uid, start in ((9, 40.0), (8, 50.0)):
            for tc in (start, start + 2.0):
                base.append(
                    QueryMatches(
                        timecode=tc,
                        ids=np.array([uid], dtype=np.uint32),
                        timecodes=np.array([tc - 100.0]),
                    )
                )
        reordered = list(reversed(base))
        a = [(v.video_id, v.nsim, round(v.offset, 3)) for v in vote(base)]
        b = [(v.video_id, v.nsim, round(v.offset, 3)) for v in vote(reordered)]
        assert a == b
        tied = [entry for entry in a if entry[0] in (8, 9)]
        assert tied == [(8, 2, 100.0), (9, 2, 100.0)]

"""The voting strategy (paper §III): from search results to decisions.

After the similarity search has returned, for every candidate fingerprint
``S_j``, a set of referenced fingerprints with identifiers and time-codes,
the decision is taken *per identifier*:

1. estimate the temporal offset ``b(id)`` robustly (eq. (2),
   :mod:`~repro.cbcd.mestimator`);
2. count the similarity measure ``n_sim(id)``: the number of candidate
   fingerprints (interest points) with at least one match of this
   identifier consistent with ``b(id)`` within a small tolerance interval;
3. threshold ``n_sim`` — the temporal coherence of many fingerprints is
   rare by chance, which is what keeps false alarms low even under a very
   approximate search.

The buffer is flattened once into aligned columns and sorted once, so
every identifier — and inside it every candidate — owns a contiguous run
of rows.  Both steps then run once for all voted identifiers together:
:func:`~repro.cbcd.mestimator.solve_offsets` solves eq. (2) for every one,
and one ``reduceat`` counts every ``n_sim``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError
from .mestimator import closest_residuals, flatten_matches, solve_offsets

#: The vote's defaults (``n_sim`` tolerance in frames, eq. (2)'s Tukey
#: constant, fewest matched candidates per identifier), declared once.
VOTE_TOLERANCE = 2.0
TUKEY_C = 6.0
MIN_MATCHES = 2


@dataclass(frozen=True)
class Vote:
    """Per-identifier outcome of the voting strategy."""

    video_id: int
    offset: float
    nsim: int
    num_candidates: int
    cost: float

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Vote(id={self.video_id}, b={self.offset:.2f}, "
            f"nsim={self.nsim}/{self.num_candidates})"
        )


class QueryMatches(NamedTuple):
    """Matches of one candidate fingerprint: arrays of equal length.

    The voting functions take any ``(timecode, ids, timecodes)`` triple;
    this is the named one.
    """

    timecode: float
    ids: np.ndarray
    timecodes: np.ndarray


class _Columns(NamedTuple):
    """A match buffer as aligned columns, rows sorted by (identifier,
    candidate, arrival); all but ``ids`` are the columns of
    :func:`~repro.cbcd.mestimator.solve_offsets`."""

    ids: np.ndarray  # per identifier, ascending
    tcp: np.ndarray
    tc: np.ndarray
    starts: np.ndarray  # row where each candidate's run begins
    first: np.ndarray  # candidate where each identifier begins, + the end


def _columns(matches: Iterable[tuple], min_matches: int = 1) -> _Columns:
    """Flatten and sort *matches* once; keep identifiers matched by at
    least *min_matches* candidates."""
    candidate_tcs, ids, tcs = [], [], []
    for timecode, query_ids, query_tcs in matches:
        query_ids = np.asarray(query_ids)
        query_tcs = np.asarray(query_tcs, dtype=np.float64)
        if query_ids.shape != query_tcs.shape:
            raise ConfigurationError("ids and timecodes must align")
        if query_ids.size:
            candidate_tcs.append(float(timecode))
            ids.append(query_ids)
            tcs.append(query_tcs)
    if not ids:
        empty = np.empty(0)
        return _Columns(
            np.empty(0, np.int64), empty, empty, np.empty(0, np.intp),
            np.zeros(1, np.intp),
        )
    candidate = np.repeat(np.arange(len(ids)), [a.size for a in ids])
    ids = np.concatenate(ids, axis=None)
    # Candidate indices are already ascending, so one stable sort by
    # identifier is the lexsort by (identifier, candidate, arrival).
    order = np.argsort(ids, kind="stable")
    ids, candidate = ids[order], candidate[order]
    tc = np.concatenate(tcs, axis=None)[order]
    tcp = np.asarray(candidate_tcs)[candidate]

    new_id = ids[1:] != ids[:-1]
    new_run = new_id | (candidate[1:] != candidate[:-1])
    # Rows where a candidate's run begins (+ the end), and the runs where
    # an identifier begins (+ the end).
    run_bounds = np.flatnonzero(np.r_[True, new_run, True])
    id_bounds = np.flatnonzero(np.r_[True, new_id[run_bounds[1:-1] - 1], True])
    uids = ids[run_bounds[id_bounds[:-1]]]
    runs, run_rows = np.diff(id_bounds), np.diff(run_bounds)
    if runs.min() < min_matches:
        voted = runs >= min_matches
        kept = np.repeat(voted, runs)
        tcp, tc = (col[np.repeat(kept, run_rows)] for col in (tcp, tc))
        uids, runs, run_rows = uids[voted], runs[voted], run_rows[kept]
    starts = np.cumsum(run_rows) - run_rows
    return _Columns(uids, tcp, tc, starts, np.append(0, np.cumsum(runs)))


def group_by_identifier(
    matches: Iterable[tuple],
) -> dict[int, tuple[list[float], list[np.ndarray]]]:
    """Regroup per-query matches into per-identifier vote inputs.

    Returns, for each identifier (ascending), the candidate time-codes
    ``tc'_j`` that matched it and, aligned, the arrays of referenced
    time-codes ``tc_jk``.
    """
    cols = _columns(matches)
    rows = np.append(cols.starts, cols.tc.size)
    return {
        uid: (
            cols.tcp[cols.starts[a:b]].tolist(),
            np.split(cols.tc[rows[a]:rows[b]], cols.starts[a + 1:b] - rows[a]),
        )
        for uid, a, b in zip(
            cols.ids.tolist(), cols.first[:-1].tolist(), cols.first[1:].tolist()
        )
    }


def _count_consistent(
    tcp: np.ndarray, tc: np.ndarray, starts: np.ndarray, first: np.ndarray,
    offsets: np.ndarray, tolerance: float,
) -> np.ndarray:
    """``n_sim`` of each identifier at its offset."""
    b = np.repeat(offsets, np.diff(np.append(starts, tc.size)[first]))
    closest = closest_residuals(tcp, tc, starts, b)
    return np.add.reduceat(closest <= tolerance, first[:-1], dtype=np.int64)


def check_vote_parameters(
    tolerance: float, tukey_c: float, min_matches: int
) -> None:
    """Reject vote parameters no buffer can be voted with.

    :func:`vote` checks them on entry, and
    :class:`~repro.cbcd.detector.DetectorConfig` on construction.
    """
    if not tolerance >= 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    if not tukey_c > 0:
        raise ConfigurationError(f"tukey_c must be > 0, got {tukey_c}")
    if min_matches < 1:
        raise ConfigurationError(f"min_matches must be >= 1, got {min_matches}")


def count_votes(
    candidate_tcs: list[float],
    matched_tcs: list[np.ndarray],
    offset: float,
    tolerance: float,
) -> int:
    """Count candidates consistent with *offset* within *tolerance*.

    One vote per candidate fingerprint (interest point), however many of
    its matches agree.
    """
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    if not candidate_tcs:
        return 0
    tcp, tc, starts = flatten_matches(candidate_tcs, matched_tcs)
    (count,) = _count_consistent(
        tcp, tc, starts, np.array([0, starts.size]), np.array([float(offset)]),
        tolerance,
    )
    return int(count)


def vote(
    matches: Iterable[tuple],
    tolerance: float = VOTE_TOLERANCE,
    tukey_c: float = TUKEY_C,
    min_matches: int = MIN_MATCHES,
) -> list[Vote]:
    """Run the full voting strategy over a buffer of query matches.

    *matches* yields one ``(tc', ids, timecodes)`` triple per candidate
    fingerprint, e.g. :class:`QueryMatches`; empty results are ignored.
    Returns one :class:`Vote` per identifier with at least *min_matches*
    matched candidates, ordered by decreasing ``n_sim``, then increasing
    cost, then increasing identifier — a total order, so a tie (and with
    it the head of the list, the verdict) never falls back on the order
    the matches arrived in.
    """
    check_vote_parameters(tolerance, tukey_c, min_matches)
    cols = _columns(matches, min_matches)
    if not cols.ids.size:
        return []
    offsets, costs = solve_offsets(*cols[1:], tukey_c)
    nsim = _count_consistent(*cols[1:], offsets, tolerance)
    votes = [
        Vote(video_id=uid, offset=b, nsim=n, num_candidates=m, cost=cost)
        for uid, b, n, m, cost in zip(
            cols.ids.tolist(), offsets.tolist(), nsim.tolist(),
            np.diff(cols.first).tolist(), costs.tolist(),
        )
    ]
    votes.sort(key=lambda v: (-v.nsim, v.cost, v.video_id))
    return votes

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
of rows that :mod:`~repro.cbcd.mestimator` reduces with ``reduceat``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError
from .mestimator import closest_residuals, flatten_matches, solve_offset


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


def _identifier_columns(
    matches: Iterable[tuple], min_matches: int = 1
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(id, tcp, tc, starts)`` per identifier, ascending by id.

    ``tcp``/``tc`` are the candidate and referenced time-code of each of
    the identifier's matches, candidates in buffer order; ``starts`` is
    the row where each candidate's run begins.  Identifiers matched by
    fewer than *min_matches* candidates are skipped.
    """
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
        return
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
    voted = np.flatnonzero(np.diff(id_bounds) >= min_matches)
    for r0, r1 in zip(id_bounds[voted].tolist(), id_bounds[voted + 1].tolist()):
        m0, m1 = int(run_bounds[r0]), int(run_bounds[r1])
        yield int(ids[m0]), tcp[m0:m1], tc[m0:m1], run_bounds[r0:r1] - m0


def group_by_identifier(
    matches: Iterable[tuple],
) -> dict[int, tuple[list[float], list[np.ndarray]]]:
    """Regroup per-query matches into per-identifier vote inputs.

    Returns, for each identifier (ascending), the candidate time-codes
    ``tc'_j`` that matched it and, aligned, the arrays of referenced
    time-codes ``tc_jk``.
    """
    return {
        uid: (tcp[starts].tolist(), np.split(tc, starts[1:]))
        for uid, tcp, tc, starts in _identifier_columns(matches)
    }


def _count_consistent(tcp, tc, starts, offset: float, tolerance: float) -> int:
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    closest = closest_residuals(tcp, tc, starts, np.array([offset]))
    return int(np.count_nonzero(closest <= tolerance))


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
    if not candidate_tcs:
        return 0
    return _count_consistent(
        *flatten_matches(candidate_tcs, matched_tcs), offset, tolerance
    )


def vote(
    matches: Iterable[tuple],
    tolerance: float = 2.0,
    tukey_c: float = 6.0,
    min_matches: int = 2,
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
    votes = []
    for uid, tcp, tc, starts in _identifier_columns(matches, min_matches):
        estimate = solve_offset(tcp, tc, starts, tukey_c)
        votes.append(
            Vote(
                video_id=uid,
                offset=estimate.offset,
                nsim=_count_consistent(tcp, tc, starts, estimate.offset, tolerance),
                num_candidates=starts.size,
                cost=estimate.cost,
            )
        )
    votes.sort(key=lambda v: (-v.nsim, v.cost, v.video_id))
    return votes

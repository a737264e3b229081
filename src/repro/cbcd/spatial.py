"""Spatio-temporal voting — the paper's §VI extension, implemented.

The paper's future work: "we would like to extend the estimation step to
the spatial positions of the interest points in order to improve the
discriminance of the fingerprints".  This module does exactly that: the
reference store is augmented with the ``(y, x)`` position of every
fingerprint, and the per-identifier estimation solves the three-parameter
model

``tc' = tc + b``,  ``y' = y + dy``,  ``x' = x + dx``

(a temporal offset plus a spatial translation, which covers the paper's
shift transformation and the re-framing component of resize).  A candidate
votes only when some match agrees with *all three* estimated parameters —
temporal coherence alone is already rare by chance; joint spatio-temporal
coherence is rarer still, so the vote is more discriminant.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..distortion.model import IndependentDistortionModel
from ..errors import ConfigurationError
from ..index.batch import BatchQueryExecutor
from ..index.options import QueryOptions
from ..index.s3 import S3Index
from ..index.store import FingerprintStore
from .mestimator import estimate_offset, tukey_weight


@dataclass
class PositionedStore:
    """A fingerprint store plus per-row interest point positions."""

    store: FingerprintStore
    positions: np.ndarray  # (N, 2) of (y, x)

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        if self.positions.shape != (len(self.store), 2):
            raise ConfigurationError(
                f"positions must be ({len(self.store)}, 2), "
                f"got {self.positions.shape}"
            )

    def take(self, rows: np.ndarray) -> "PositionedStore":
        """Row-select store and positions together (stay aligned)."""
        return PositionedStore(
            store=self.store.take(rows), positions=self.positions[rows]
        )


@dataclass
class SpatioTemporalMatch:
    """Matches of one candidate fingerprint, with positions."""

    timecode: float
    position: np.ndarray  # (2,) candidate point (y, x)
    ids: np.ndarray
    timecodes: np.ndarray
    positions: np.ndarray  # (K, 2) referenced points


@dataclass(frozen=True)
class SpatioTemporalVote:
    """Per-identifier outcome of the extended voting."""

    video_id: int
    offset: float
    translation: tuple[float, float]
    nsim: int
    num_candidates: int


def _estimate_translation(
    residual_pairs: list[tuple[np.ndarray, np.ndarray]],
    c: float,
    iterations: int = 5,
) -> np.ndarray:
    """Robust 2-D translation via IRLS with Tukey weights.

    *residual_pairs* holds ``(candidate_position, matched_positions)``; the
    per-candidate residual uses the closest match under the current
    estimate.
    """
    # Initialise at the coordinate-wise median of the raw residuals: IRLS
    # from zero would assign zero Tukey weight to every candidate when the
    # true translation exceeds the scale c.
    raw = []
    for cand, refs in residual_pairs:
        diffs = cand - refs
        raw.append(diffs[np.argmin(np.linalg.norm(diffs, axis=1))])
    delta = np.median(np.asarray(raw), axis=0)
    for _ in range(iterations):
        residuals = []
        for cand, refs in residual_pairs:
            diffs = cand - (refs + delta)
            norms = np.linalg.norm(diffs, axis=1)
            residuals.append(diffs[np.argmin(norms)])
        residuals = np.asarray(residuals)
        weights = tukey_weight(np.linalg.norm(residuals, axis=1), c)
        wsum = weights.sum()
        if wsum <= 0:
            break
        step = (weights[:, None] * residuals).sum(axis=0) / wsum
        delta += step
        if np.linalg.norm(step) < 1e-9:
            break
    return delta


def spatio_temporal_vote(
    matches: list[SpatioTemporalMatch],
    tolerance: float = 2.0,
    spatial_tolerance: float = 4.0,
    tukey_c: float = 6.0,
    spatial_c: float = 8.0,
    min_matches: int = 2,
) -> list[SpatioTemporalVote]:
    """Run the extended voting strategy over a buffer of matches.

    Per identifier: estimate ``b`` exactly as the temporal voting does
    (eq. 2), then estimate the spatial translation ``(dy, dx)`` robustly on
    the temporally-consistent candidates, and count a vote only when a
    match agrees with both within the tolerances.
    """
    grouped: dict[int, list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]]
    grouped = defaultdict(list)
    for match in matches:
        ids = np.asarray(match.ids)
        for uid in np.unique(ids):
            mask = ids == uid
            grouped[int(uid)].append(
                (
                    float(match.timecode),
                    np.asarray(match.position, dtype=np.float64),
                    np.asarray(match.timecodes, dtype=np.float64)[mask],
                    np.asarray(match.positions, dtype=np.float64)[mask],
                )
            )

    votes: list[SpatioTemporalVote] = []
    for uid, entries in grouped.items():
        if len(entries) < min_matches:
            continue
        cand_tcs = [e[0] for e in entries]
        match_tcs = [e[2] for e in entries]
        temporal = estimate_offset(cand_tcs, match_tcs, c=tukey_c)

        # Spatial estimation on temporally consistent candidates only.
        consistent = []
        for tc_prime, cand_pos, tcs, positions in entries:
            residuals = np.abs(tc_prime - (tcs + temporal.offset))
            keep = residuals <= tolerance
            if np.any(keep):
                consistent.append((cand_pos, positions[keep]))
        if not consistent:
            continue
        translation = _estimate_translation(consistent, c=spatial_c)

        nsim = 0
        for tc_prime, cand_pos, tcs, positions in entries:
            t_ok = np.abs(tc_prime - (tcs + temporal.offset)) <= tolerance
            s_ok = (
                np.linalg.norm(cand_pos - (positions + translation), axis=1)
                <= spatial_tolerance
            )
            if np.any(t_ok & s_ok):
                nsim += 1
        votes.append(
            SpatioTemporalVote(
                video_id=uid,
                offset=temporal.offset,
                translation=(float(translation[0]), float(translation[1])),
                nsim=nsim,
                num_candidates=len(entries),
            )
        )
    votes.sort(key=lambda v: -v.nsim)
    return votes


class SpatialSearchIndex:
    """An :class:`~repro.index.s3.S3Index` that also returns positions.

    Positions ride along the index's curve-sorted row order, so each
    search result can be joined with the matched interest points — the
    input the extended voting needs.
    """

    def __init__(
        self,
        positioned: PositionedStore,
        model: IndependentDistortionModel,
        depth: int | None = None,
    ):
        self.index = S3Index(positioned.store, model=model, depth=depth)
        self.positions = positioned.positions[self.index.layout.permutation]

    def __len__(self) -> int:
        return len(self.index)

    def query(
        self,
        fingerprint: np.ndarray,
        timecode: float,
        position: np.ndarray,
        alpha: float,
    ) -> SpatioTemporalMatch:
        """One statistical query joined with positions."""
        result = self.index.statistical_query(
            np.asarray(fingerprint, dtype=np.float64), alpha
        )
        return SpatioTemporalMatch(
            timecode=float(timecode),
            position=np.asarray(position, dtype=np.float64),
            ids=result.ids,
            timecodes=result.timecodes,
            positions=self.positions[result.rows],
        )

    def query_batch(
        self,
        fingerprints: np.ndarray,
        timecodes: np.ndarray,
        positions: np.ndarray,
        alpha: float,
        batch_size: int = 32,
    ) -> list[SpatioTemporalMatch]:
        """Batched statistical queries joined with positions.

        One engine pass per ``batch_size`` chunk (shared block selection +
        coalesced scan, see :mod:`repro.index.batch`); every match list is
        identical to per-query :meth:`query`.
        """
        executor = BatchQueryExecutor(self.index, options=QueryOptions(
            alpha=alpha, batch_size=batch_size
        ))
        results = executor.query_all(
            np.asarray(fingerprints, dtype=np.float64)
        )
        return [
            SpatioTemporalMatch(
                timecode=float(tc),
                position=np.asarray(pos, dtype=np.float64),
                ids=result.ids,
                timecodes=result.timecodes,
                positions=self.positions[result.rows],
            )
            for result, tc, pos in zip(results, timecodes, positions)
        ]

    def detect(
        self,
        fingerprints: np.ndarray,
        timecodes: np.ndarray,
        positions: np.ndarray,
        alpha: float = 0.8,
        batch_size: int = 32,
        **vote_kwargs,
    ) -> list[SpatioTemporalVote]:
        """Search a candidate's fingerprints and run the extended voting."""
        fingerprints = np.asarray(fingerprints)
        timecodes = np.asarray(timecodes, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.float64)
        if (
            fingerprints.ndim != 2
            or timecodes.shape != (fingerprints.shape[0],)
            or positions.shape != (fingerprints.shape[0], 2)
        ):
            raise ConfigurationError(
                "fingerprints (N, D), timecodes (N,) and positions (N, 2) "
                "must align"
            )
        matches = [
            match
            for match in self.query_batch(
                fingerprints, timecodes, positions, alpha,
                batch_size=batch_size,
            )
            if match.ids.size
        ]
        return spatio_temporal_vote(matches, **vote_kwargs)

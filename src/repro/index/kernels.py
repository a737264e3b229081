"""Integer-domain distance kernels for the refinement scans.

Fingerprints are bytes; the refinement step of every query path used to
cast each gathered row block to ``float64`` (an 8x blow-up of the scan's
working set) before computing ``‖x − q‖²``.  These kernels keep the scan
in the integer domain instead: the ``uint8`` rows are widened to
``int32`` **once per gather**, the squared distance is expanded as

    ‖x − q‖² = ‖x‖² − 2·x·q + ‖q‖²

with ``‖x‖²`` and ``x·q`` accumulated in ``int64`` (exact — no rounding
anywhere) and the query norm precomputed once per query.  Distances are
still *reported* as ``float64``: every intermediate is an integer far
below 2⁵³, so the float conversion is exact and the results are
**bit-identical** to the old float64 pipeline (property-tested in
``tests/index/test_kernels.py``).

Queries that are not integer-valued (the wire accepts arbitrary floats)
fall back to the original float64 computation, term for term, so those
results are bit-identical too.

Every full-scan refinement routes through here: the exact tests that
``range_query`` and ``window_query``
(:class:`~repro.index.s3.S3Queries`) run on the rows the query engine's
scan returned, the sequential scan and VA-file baselines, and the
corpus filler's resampling perturbation.
"""

from __future__ import annotations

import numpy as np

#: Largest query-component magnitude the integer path accepts.  Beyond
#: this, ``x·q`` could stray outside the exactly-representable float64
#: integers once summed over many dimensions; such queries (never
#: produced by the fingerprint pipeline, whose components live in
#: ``[0, 255]``) take the float fallback.
INTEGER_QUERY_LIMIT = float(1 << 20)


def is_integer_query(query: np.ndarray) -> bool:
    """Whether *query* is exactly representable in the integer domain."""
    q = np.asarray(query, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        return False
    return bool(
        np.all(q == np.floor(q)) and np.all(np.abs(q) <= INTEGER_QUERY_LIMIT)
    )


def widen_rows(rows: np.ndarray) -> np.ndarray:
    """Widen gathered ``uint8`` rows to ``int32`` (the once-per-gather cast).

    A 4x working set instead of the float path's 8x; reusable across
    several queries of a batch scanning the same gather.
    """
    return np.ascontiguousarray(rows, dtype=np.int32)


def squared_distances(
    rows: np.ndarray,
    query: np.ndarray,
    widened: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-row ``‖x − q‖²`` of byte *rows* to *query*, as ``float64``.

    *widened* optionally supplies :func:`widen_rows`'s output so callers
    refining several queries against one gather widen only once.
    """
    q = np.asarray(query, dtype=np.float64).ravel()
    if is_integer_query(q):
        xi = widened if widened is not None else widen_rows(rows)
        qi = np.rint(q).astype(np.int64)
        x_sq = np.einsum("ij,ij->i", xi, xi, dtype=np.int64)
        cross = xi @ qi
        q_sq = int(qi @ qi)
        return (x_sq - 2 * cross + q_sq).astype(np.float64)
    # Non-integer query: reproduce the historical float64 pipeline so
    # results stay bit-identical for every input.
    diffs = np.asarray(rows).astype(np.float64) - q
    return np.einsum("ij,ij->i", diffs, diffs)


def range_refine(
    rows: np.ndarray,
    query: np.ndarray,
    epsilon: float,
    widened: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """ε-range refinement: ``(keep mask, distances of the kept rows)``."""
    dist_sq = squared_distances(rows, query, widened)
    keep = dist_sq <= float(epsilon) ** 2
    return keep, np.sqrt(dist_sq[keep])


def window_refine(
    rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Membership mask of byte *rows* in the half-open window ``[lo, hi)``.

    The comparisons run directly on the ``uint8`` rows — numpy's mixed
    uint8/float comparison is exact, so the mask equals the old
    cast-to-float path's without materialising a float copy.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    return np.all((rows >= lo) & (rows < hi), axis=1)


def clip_round_u8(values: np.ndarray) -> np.ndarray:
    """Round *values* half-to-even, clip to ``[0, 255]``, cast to ``uint8``.

    The corpus filler's perturbation epilogue, done in place on the float
    jitter buffer instead of on a second full-size copy.
    """
    values = np.asarray(values, dtype=np.float64)
    np.round(values, out=values)
    np.clip(values, 0.0, 255.0, out=values)
    return values.astype(np.uint8)

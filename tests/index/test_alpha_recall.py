"""The paper's contract, end to end: a statistical query of expectation α
retrieves the referenced fingerprint with probability at least α when the
candidate is ``Q = S + ΔS`` with ``ΔS`` drawn from the index's model.

This is the gate a selection rewrite must not move: bit-identity with the
old kernel (``test_selection_oracle``) says the block sets are the same,
this says they are the right ones.  ``PROPERTY_EXAMPLES`` raises the
example count (CI's ``property-long`` job).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel, PerComponentNormalModel
from repro.index.s3 import S3Index
from repro.index.store import FingerprintStore

NDIMS = 8
ROWS = 3000
QUERIES = 1024
# Retrieval is a Bernoulli trial of probability >= alpha per query, so the
# measured rate of QUERIES trials has sigma <= sqrt(0.25 / QUERIES) = 0.016;
# the tolerance is above three of those at every alpha and is not tuned.
TOLERANCE = 0.05
assert TOLERANCE >= 3 * np.sqrt(0.25 / QUERIES)
# One example is 3 x 1024 queries: a tenth as many examples as the oracle test.
EXAMPLES = max(1, int(os.environ.get("PROPERTY_EXAMPLES", "30")) // 10)

MODELS = {
    "normal": NormalDistortionModel(NDIMS, 12.0),
    "per-component": PerComponentNormalModel(np.linspace(6.0, 18.0, NDIMS)),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
def test_planted_original_is_retrieved_at_rate_alpha(kind, seed):
    model = MODELS[kind]
    rng = np.random.default_rng(seed)
    # Originals away from the grid faces, so the model's mass is in-grid
    # and the candidate's posterior is the model's.
    fingerprints = rng.integers(48, 208, size=(ROWS, NDIMS)).astype(np.uint8)
    store = FingerprintStore(
        fingerprints, np.zeros(ROWS, dtype=np.uint32), np.arange(ROWS, dtype=float)
    )
    index = S3Index(store, model=model, depth=12)
    originals = index.store.fingerprints[rng.integers(0, ROWS, QUERIES)]
    queries = originals.astype(np.float64) + model.sample(QUERIES, rng)
    for alpha in (0.5, 0.8, 0.95):
        results = index.statistical_query_batch(queries, alpha)
        retrieved = sum(
            bool(np.any(np.all(result.fingerprints == original, axis=1)))
            for result, original in zip(results, originals)
        )
        assert retrieved / QUERIES >= alpha - TOLERANCE, (kind, alpha, seed)

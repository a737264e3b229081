"""The one-descent selection kernel against the descent-per-probe code it
replaced (``reference_selection``): every field of every selection equal,
and the α-mass of a converged selection admissible.  A flat
``SelectionBatch`` is the list of its queries' solo selections, whether
the search ran in one chunk or several.

``PROPERTY_EXAMPLES`` raises the example count (CI's ``property-long`` job).
"""

import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.empirical import EmpiricalDistortionModel
from repro.distortion.model import NormalDistortionModel, PerComponentNormalModel
from repro.hilbert import HilbertCurve
from repro.index import filtering

from . import reference_selection

EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "60"))


def fields(sel):
    return (
        sel.prefixes.tobytes(),
        sel.probabilities.tobytes(),
        sel.depth,
        sel.threshold,
        sel.total_probability,
        sel.nodes_visited,
        sel.descents,
    )


@st.composite
def cases(draw):
    ndims = draw(st.sampled_from([2, 3, 5, 20]))
    order = 8 if ndims >= 5 else draw(st.integers(3, 5))
    curve = HilbertCurve(ndims, order)
    # Depths on both sides of D: below it every axis splits at most once,
    # above it several cuts per axis and the Hamilton state turns over.
    depth = draw(st.integers(1, min(curve.total_bits, 18)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = draw(st.floats(0.04, 0.3)) * curve.side
    kind = draw(st.sampled_from(["normal", "per-component", "empirical"]))
    if kind == "normal":
        model = NormalDistortionModel(ndims, sigma)
    elif kind == "per-component":
        model = PerComponentNormalModel(rng.uniform(0.5, 1.5, ndims) * sigma)
    else:  # heavy-tailed sample: the table, both tails and the plateau
        model = EmpiricalDistortionModel(
            rng.standard_t(3, size=(200, ndims)) * sigma, grid_points=64
        )
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        queries = rng.uniform(0, curve.side - 1, (draw(st.integers(1, 5)), ndims))
        on_boundary = rng.random(queries.shape) < draw(st.sampled_from([0.0, 0.3]))
        corners = rng.choice([0.0, curve.side - 1.0, float(curve.side)], queries.shape)
        batches.append(np.where(on_boundary, corners, queries))
    return curve, depth, model, batches


@given(cases(), st.floats(0.3, 0.99), st.sampled_from([0, 2]))
@settings(max_examples=EXAMPLES, deadline=None)
def test_search_matches_reference(case, alpha, grow_steps):
    curve, depth, model, batches = case
    kwargs = dict(grow_steps=grow_steps)
    for queries in batches:
        got = filtering.statistical_blocks_multi(
            queries, model, curve, depth, alpha, **kwargs
        )
        want = reference_selection.statistical_blocks_multi(
            queries, model, curve, depth, alpha, **kwargs
        )
        assert [fields(s) for s in got] == [fields(s) for s in want]
        for query, sel in zip(queries, got):
            solo = filtering.statistical_blocks(
                query, model, curve, depth, alpha, **kwargs
            )
            assert fields(solo) == fields(sel)
            # Admissible: a converged search carries the mass it promised.
            # (One that bottomed out at t < 1e-12 returns the closest set.)
            if sel.threshold * 0.25 >= 1e-12:
                target = alpha * filtering.grid_probability(query, model, curve)
                assert sel.total_probability >= target


@given(cases(), st.floats(-7, -0.31).map(lambda e: 10.0**e))
@settings(max_examples=EXAMPLES, deadline=None)
def test_threshold_selection_matches_reference(case, threshold):
    curve, depth, model, batches = case
    for queries in batches:
        thresholds = threshold * np.linspace(1.0, 0.5, len(queries))
        got = filtering.select_blocks_threshold_multi(
            queries, model, curve, depth, thresholds
        )
        want = reference_selection.select_blocks_threshold_multi(
            queries, model, curve, depth, thresholds
        )
        assert [fields(s) for s in got] == [fields(s) for s in want]
        solo = filtering.select_blocks_threshold(
            queries[0], model, curve, depth, float(thresholds[0])
        )
        assert fields(solo) == fields(got[0])


def columns(batch):
    return tuple(
        getattr(batch, name).tobytes()
        for name in ("prefixes", "probabilities", "counts", "thresholds",
                     "totals", "nodes", "probes")
    ) + (batch.depth,)


@given(cases(), st.floats(0.3, 0.99), st.integers(1, 3))
@settings(max_examples=EXAMPLES, deadline=None)
def test_batch_is_its_solo_selections(case, alpha, step):
    curve, depth, model, batches = case
    cuts = (1 << -(-depth // curve.ndims)) + 1
    for queries in batches:
        solo = [
            filtering.statistical_blocks(query, model, curve, depth, alpha)
            for query in queries
        ]
        whole = filtering.statistical_blocks_multi(
            queries, model, curve, depth, alpha
        )
        # A CDF-table bound of *step* queries: the search runs in chunks.
        with mock.patch.object(
            filtering, "_TABLE_ENTRIES", step * curve.ndims * cuts
        ):
            chunked = filtering.statistical_blocks_multi(
                queries, model, curve, depth, alpha
            )
        want = columns(filtering.SelectionBatch.of(solo))
        for batch in (whole, chunked):
            assert columns(batch) == want
            assert [fields(s) for s in batch] == [fields(s) for s in solo]

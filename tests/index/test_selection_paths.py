"""The statistical kernel's rare paths against the descent-per-probe oracle
(``reference_selection``).

* **Resumes.**  With no first reach and a resume reach of one shrink
  step, every search that shrinks resumes its descent, most of them
  several times; every field must still match the oracle.  Depths are
  drawn off multiples of the head-pass width and on both sides of D.
* **Near ties.**  A probe is decided on one ``np.add.reduceat`` sum
  unless that sum lies within the rounding slack of the target, where
  the pairwise ``np.add.reduce`` of the query's blocks decides.  Forcing
  the slack to infinity sends every decision down the exact path and
  must change nothing; and a query whose target sits on a probe's sum
  must take the exact path and still answer as the oracle does.

``PROPERTY_EXAMPLES`` raises the example count (CI's ``property-long`` job).
"""

import os
import types
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel
from repro.hilbert import HilbertCurve
from repro.index import filtering

from . import reference_selection
from .test_selection_oracle import cases, fields

EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "60"))


@st.composite
def resume_cases(draw):
    ndims = draw(st.sampled_from([2, 3, 5]))
    order = draw(st.integers(3, 5))
    curve = HilbertCurve(ndims, order)
    # Off multiples of the pass width, on both sides of D.
    depth = draw(st.integers(1, min(curve.total_bits, 14)).filter(
        lambda d: d % filtering._PASS_LEVELS
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = NormalDistortionModel(
        ndims, draw(st.floats(0.04, 0.3)) * curve.side
    )
    queries = rng.uniform(0, curve.side - 1, (draw(st.integers(1, 8)), ndims))
    return curve, depth, model, queries


@given(resume_cases(), st.floats(0.3, 0.99), st.sampled_from([0, 2]))
@settings(max_examples=EXAMPLES, deadline=None)
def test_resumed_descents_match_reference(case, alpha, grow_steps):
    curve, depth, model, queries = case
    lowered = []
    lower = filtering._Descent.lower

    def spy(self, floor):
        lowered.append(floor)
        return lower(self, floor)

    with mock.patch.object(filtering, "_FIRST_REACH", 0), \
            mock.patch.object(filtering, "_RESUME_REACH", 1), \
            mock.patch.object(filtering._Descent, "lower", spy):
        got = filtering.statistical_blocks_multi(
            queries, model, curve, depth, alpha, grow_steps=grow_steps
        )
    want = reference_selection.statistical_blocks_multi(
        queries, model, curve, depth, alpha, grow_steps=grow_steps
    )
    assert [fields(s) for s in got] == [fields(s) for s in want]
    # Every probe below the first was a resume.
    shrinks = [s.threshold < (1.0 - alpha) / 4.0 for s in got]
    assert len(lowered) >= 1 + any(shrinks)


@given(cases(), st.floats(0.3, 0.99), st.sampled_from([0, 2]))
@settings(max_examples=EXAMPLES, deadline=None)
def test_exact_decisions_change_nothing(case, alpha, grow_steps):
    curve, depth, model, batches = case
    for queries in batches:
        normal = filtering.statistical_blocks_multi(
            queries, model, curve, depth, alpha, grow_steps=grow_steps
        )
        # inf * 0 (a probe that keeps nothing) is nan: no tie, as it is.
        with mock.patch.object(filtering, "_TIE_SLACK", np.inf), \
                np.errstate(invalid="ignore"):
            exact = filtering.statistical_blocks_multi(
                queries, model, curve, depth, alpha, grow_steps=grow_steps
            )
        assert [fields(s) for s in exact] == [fields(s) for s in normal]


class _CountingNumpy(types.ModuleType):
    """``numpy`` with ``add.reduce`` counted: what the kernel's exact
    path calls."""

    def __init__(self):
        super().__init__("numpy")
        self.exact_sums = 0
        counter = self

        class Add:
            def __getattr__(self, name):
                return getattr(np.add, name)

            def reduce(self, *args, **kwargs):
                counter.exact_sums += 1
                return np.add.reduce(*args, **kwargs)

        self.add = Add()

    def __getattr__(self, name):
        return getattr(np, name)


def test_target_on_a_probe_sum_takes_the_exact_path():
    """alpha is chosen so that alpha * grid is the very sum of the
    search's first probe: alpha = P((1 - alpha) / 4) / grid, a fixed
    point the iteration reaches because P is a non-decreasing step
    function of alpha."""
    curve = HilbertCurve(3, 5)
    model = NormalDistortionModel(3, 2.0)
    query = np.array([11.3, 20.7, 5.2])
    depth = 7
    grid = filtering.grid_probability(query, model, curve)
    alpha = 0.8
    for _ in range(100):
        t0 = max((1.0 - alpha) / 4.0, 1e-12)
        total = reference_selection.select_blocks_threshold(
            query, model, curve, depth, t0
        ).total_probability
        if total / grid == alpha:
            break
        alpha = total / grid
    assert total / grid == alpha and 0.0 < alpha < 1.0

    counting = _CountingNumpy()
    probe = filtering._Descent.probe
    in_probe = []

    def spy(self, *args):
        before = counting.exact_sums
        out = probe(self, *args)
        in_probe.append(counting.exact_sums - before)
        return out

    with mock.patch.object(filtering, "np", counting), \
            mock.patch.object(filtering._Descent, "probe", spy):
        got = filtering.statistical_blocks(query, model, curve, depth, alpha)
    want = reference_selection.statistical_blocks(
        query, model, curve, depth, alpha
    )
    assert in_probe[0] >= 1  # the first probe was decided exactly
    assert fields(got) == fields(want)

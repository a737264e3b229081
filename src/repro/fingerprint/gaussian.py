"""Gaussian-derivative taps and the centre-tap correlation kernel.

Both the Harris detector and the descriptor filter with
``ndimage.gaussian_filter1d`` semantics (``truncate=4``, ``reflect``
boundary).  :func:`gaussian_taps` caches the correlation weights per
``(σ, order)`` instead of rebuilding the kernel on every call, and
:func:`correlate_centre` evaluates ``ndimage.correlate1d`` at the centre
sample of a ``2r+1``-long line with the same floating-point operations,
in the same order, as SciPy's ``NI_Correlate1D``:

* the ε test on the weights picks the symmetric, antisymmetric or
  general form;
* the accumulator starts at ``in[c] · w[c]`` and adds
  ``(in[c−j] ± in[c+j]) · w[c−j]`` for ``j = r … 1``, outermost first
  (the general form starts at ``in[2r] · w[2r]`` and adds
  ``in[k] · w[k]`` for ``k = 0 … 2r−1``).

Derivatives evaluated this way at a handful of sampled pixels are
bit-identical to sampling the full filtered map.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import ndimage

#: SciPy's default truncation of the Gaussian, in standard deviations.
_TRUNCATE = 4.0


def gaussian_radius(sigma: float) -> int:
    """Half-width ``r`` of the ``2r+1`` taps ``gaussian_filter1d`` uses."""
    return int(_TRUNCATE * float(sigma) + 0.5)


@lru_cache(maxsize=None)
def gaussian_taps(sigma: float, order: int) -> np.ndarray:
    """The correlation weights ``gaussian_filter1d(·, sigma, order)`` applies.

    Read from the filter's response to a unit impulse, reversed: every
    output sample is ``(0 ± 1) · w`` plus exact zeros, so the weights come
    back bit for bit (the mirrored half of a (anti)symmetric kernel is
    rebuilt exactly mirrored, which is all ``correlate1d`` reads of it).
    """
    radius = gaussian_radius(sigma)
    impulse = np.zeros(2 * radius + 1)
    impulse[radius] = 1.0
    response = ndimage.gaussian_filter1d(
        impulse, sigma, order=order, mode="constant"
    )
    taps = response[::-1].copy()
    taps.flags.writeable = False
    return taps


def filter_axis(
    array: np.ndarray, sigma: float, order: int, axis: int
) -> np.ndarray:
    """``ndimage.gaussian_filter1d(array, sigma, axis, order)``, cached taps."""
    return ndimage.correlate1d(
        array, gaussian_taps(sigma, order), axis=axis, mode="reflect"
    )


@lru_cache(maxsize=None)
def _symmetry(sigma: float, order: int) -> int:
    """``NI_Correlate1D``'s ε test: 1 symmetric, −1 antisymmetric, 0 neither."""
    taps = gaussian_taps(sigma, order)
    r = taps.size // 2
    right, left = taps[r + 1:], taps[:r][::-1]
    eps = np.finfo(np.float64).eps
    if np.all(np.abs(right - left) <= eps):
        return 1
    if np.all(np.abs(right + left) <= eps):
        return -1
    return 0


def correlate_centre(lines: np.ndarray, sigma: float, order: int) -> np.ndarray:
    """``gaussian_filter1d(lines, sigma, order=order)`` at each line's centre.

    *lines* holds the ``2r+1`` samples the filter reads on its **first**
    axis (already extended at the boundary); the result drops that axis.
    The accumulation runs one tap at a time, in ``NI_Correlate1D``'s
    order, over whole slices of the other axes.
    """
    taps = gaussian_taps(sigma, order)
    r = taps.size // 2
    mode = _symmetry(sigma, order)
    if mode == 0:
        acc = lines[2 * r] * taps[2 * r]
        terms = lines[:2 * r]
    else:
        acc = lines[r] * taps[r]
        outer, inner = lines[:r], lines[:r:-1]
        terms = outer + inner if mode > 0 else outer - inner
    for term, weight in zip(terms, taps):
        acc += term * weight
    return acc

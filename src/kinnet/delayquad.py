"""Riemann-Stieltjes quadrature of delay measures on a uniform history grid.

Produces weights over sample offsets theta_s = -s*dt such that
sum_s w_s * g(theta_s) approximates int g dEta for piecewise-linear g, and is
exact in total mass: sum_s w_s equals the measure's total variation.

The measure is read in the one form of model._measure_parts, with no
per-kind code: atoms split linearly between their two neighbouring samples,
density cells value * e^{rate*theta} spread onto the grid's hat functions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HistoryGapError
from .model import DelayMeasure, _measure_parts


def _exp_moments(t: float, a: float, b: float) -> tuple[float, float]:
    """(int e^{t x} dx, int x e^{t x} dx) over [a, b]."""
    if abs(t) < 1e-10:
        return b - a, 0.5 * (b * b - a * a)
    ea, eb = math.exp(t * a), math.exp(t * b)
    i0 = (eb - ea) / t
    i1 = (b / t - 1.0 / (t * t)) * eb - (a / t - 1.0 / (t * t)) * ea
    return i0, i1


def _accumulate_density(weights: np.ndarray, dt: float, a: float, b: float,
                        value: float, rate: float):
    """Spread the density value * e^{rate*theta} on [a, b] onto the hat
    functions of the uniform theta grid."""
    if b <= a:
        return
    n = len(weights)
    # sample s covers theta in [-(s+1)dt, -s dt]
    s_lo = max(int(math.floor(-b / dt)), 0)
    s_hi = min(int(math.ceil(-a / dt)), n - 1)
    for s in range(s_lo, s_hi):
        th_hi = -s * dt        # upper end of the interval (closer to 0)
        th_lo = -(s + 1) * dt
        lo = max(a, th_lo)
        hi = min(b, th_hi)
        if hi <= lo:
            continue
        i0, i1 = _exp_moments(rate, lo, hi)
        i0, i1 = value * i0, value * i1
        # hat at s rises from th_lo to th_hi; hat at s+1 falls
        w_s, w_next = (i1 - th_lo * i0) / dt, (th_hi * i0 - i1) / dt
        # on a sliver of a cell one share cancels and may fall below 0: the
        # other sample then takes the whole mass i0
        if w_s < 0.0:
            w_s, w_next = 0.0, i0
        elif w_next < 0.0:
            w_s, w_next = i0, 0.0
        weights[s] += w_s
        weights[s + 1] += w_next


def _accumulate_atom(weights: np.ndarray, dt: float, pos: float, mass: float):
    s_frac = -pos / dt
    s0 = int(math.floor(s_frac))
    frac = s_frac - s0
    if s0 >= len(weights) - 1:
        s0, frac = len(weights) - 2, 1.0
    weights[s0] += mass * (1.0 - frac)
    weights[s0 + 1] += mass * frac


def delay_quadrature(measure: DelayMeasure, dt: float, n_samples: int):
    """Quadrature weights for the measure over offsets s = 0..n_samples-1.

    Raises HistoryGapError when the sampled window does not reach -r.
    """
    if dt <= 0 or n_samples < 2:
        raise HistoryGapError("need at least two history samples with dt > 0")
    coverage = (n_samples - 1) * dt
    if coverage < measure.r - 1e-9 * max(1.0, measure.r):
        raise HistoryGapError(
            f"history window {coverage} does not cover delay interval "
            f"[-{measure.r}, 0]")
    w = np.zeros(n_samples)
    atoms, cells = _measure_parts(measure)
    for pos, mass in atoms:
        _accumulate_atom(w, dt, pos, mass)
    for a, b, value, rate in cells:
        _accumulate_density(w, dt, a, b, value, rate)
    offsets = np.nonzero(w)[0]
    return offsets, w[offsets]

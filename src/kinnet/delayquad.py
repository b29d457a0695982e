"""Riemann-Stieltjes quadrature of delay measures on a uniform history grid.

Produces weights over sample offsets theta_s = -s*dt such that
sum_s w_s * g(theta_s) approximates int g dEta for piecewise-linear g, and is
exact in total mass: sum_s w_s equals the measure's total variation.

The measure is read in the one form of its parts (DelayMeasure._parts,
built with the measure), with no per-kind code: atoms split linearly
between their two neighbouring samples, density cells value *
e^{rate*theta} spread onto the grid's hat functions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HistoryGapError
from .model import DelayMeasure


# 1 / (k! (k + n + 1)) at [k, n], n = 0, 1: for |x| < 1 the series terms of
# _shifted_moments fall under 1e-17 within these 20 rows
_SERIES = np.array([[[1.0 / (math.factorial(k) * (k + n + 1))] for n in (0, 1)]
                    for k in range(20)])


def _shifted_moments(t: float, base: np.ndarray, d: np.ndarray):
    """(int e^{t (base + u)} du, int u e^{t (base + u)} du) over u in [0, d],
    for each base and d >= 0, with no cancellation and no overflow that the
    result does not have: with x = t d, e^{t (base + d)} (-expm1(-x)) / t
    and e^{t (base + d)} (x + expm1(-x)) / t^2 where x >= 1, the same with
    the factor e^x moved inside where x <= -1, and else e^{t base} d^(n+1)
    times the power series sum_k x^k / k! / (k + n + 1), n = 0 and 1, to the
    last term that counts. At t = 0 that is the series' one term: d and
    d d / 2, returned without the series' calls, as every engine's history
    weights and every piecewise density cell ask for them."""
    if t == 0.0:
        return d, d * d * 0.5
    x = t * d
    i0, i1 = np.empty_like(x), np.empty_like(x)
    near = np.abs(x) < 1.0
    if near.all():
        near = slice(None)
    else:
        up, down = x >= 1.0, x <= -1.0
        em1 = -np.expm1(-x[up])
        scale = np.exp(t * (base[up] + d[up]))
        i0[up], i1[up] = scale * em1 / t, scale * (x[up] - em1) / (t * t)
        em1 = np.expm1(x[down])
        scale = np.exp(t * base[down])
        i0[down] = scale * em1 / t
        i1[down] = scale * (x[down] * (em1 + 1.0) - em1) / (t * t)
    xn, dn = x[near], d[near]
    terms, term, x_max = 0, 1.0, float(np.abs(xn).max(initial=0.0))
    while term > 1e-17:
        terms += 1
        term *= x_max / terms
    series = np.zeros((2, len(xn)))
    for k in reversed(range(terms)):                # Horner, small terms first
        series *= xn
        series += _SERIES[k]
    scale = np.exp(t * base[near]) * dn
    i0[near], i1[near] = scale * series[0], scale * dn * series[1]
    return i0, i1


def _accumulate_density(weights: np.ndarray, dt: float, a: float, b: float,
                        value: float, rate: float):
    """Spread the density value * e^{rate*theta} on [a, b] onto the hat
    functions of the uniform theta grid."""
    # sample s covers theta in [-(s+1)dt, -s dt]
    s_lo = max(int(math.floor(-b / dt)), 0)
    s_hi = min(int(math.ceil(-a / dt)), len(weights) - 1)
    if b <= a or s_hi <= s_lo:
        return
    s = np.arange(s_lo, s_hi)
    th_hi, th_lo = -s * dt, -(s + 1) * dt   # th_hi is the end closer to 0
    lo, hi = np.maximum(a, th_lo), np.minimum(b, th_hi)
    d = np.maximum(hi - lo, 0.0)
    # the hat at s rises from th_lo to th_hi and takes int (theta - th_lo)
    # rho / dt, the hat at s + 1 falls and takes int (th_hi - theta) rho /
    # dt: in theta - lo and in hi - theta each is a sum of nonnegative terms,
    # so neither cancels, on a sliver of a cell or for a rate near 0
    i0, i1 = _shifted_moments(rate, lo, d)
    weights[s_lo:s_hi] += value * (i1 + (lo - th_lo) * i0) / dt
    i0, i1 = _shifted_moments(-rate, -hi, d)
    weights[s_lo + 1:s_hi + 1] += value * (i1 + (th_hi - hi) * i0) / dt


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
    atoms, cells = measure._parts
    for pos, mass in atoms:
        _accumulate_atom(w, dt, pos, mass)
    for a, b, value, rate in cells:
        _accumulate_density(w, dt, a, b, value, rate)
    offsets = np.nonzero(w)[0]
    return offsets, w[offsets]

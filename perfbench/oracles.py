"""Correctness checks for the benchmark's workloads.

Each check compares one answer of the program with a quantity computed here,
apart from the code path that produced the answer: dense eigenvalues instead
of the power iteration, the regression suite's stated labels, an own
log-linear fit, an own record count. Each returns a list of error strings,
empty when the answer is accepted.
"""

from __future__ import annotations

import math

import numpy as np

INCONCLUSIVE_BAND = 1e-3    # the certificate's documented decision band
RADIUS_RTOL = 1e-6          # power iteration and Gelfand both reach ~1e-10
ABSCISSA_DELTA = 1e-4       # bisection stops at 1e-6; 1e-4 clears it
DECAY_RTOL = 0.08           # acceptance criterion 2 at (m_base, k) = (128, 32)
MASS_DRIFT_MAX = 0.005      # acceptance criterion 6
ISS_SLACK = 0.05            # acceptance criterion 5


def dense_radius(matrix) -> float:
    """Spectral radius from the full eigenvalue decomposition."""
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def band_decision(radius: float) -> str:
    if abs(radius - 1.0) < INCONCLUSIVE_BAND:
        return "INCONCLUSIVE"
    return "ISS" if radius < 1.0 else "NOT_ISS"


def check_radius(name: str, value: float, dense: float) -> list[str]:
    if not math.isfinite(value) or abs(value - dense) > RADIUS_RTOL * max(1.0, dense):
        return [f"{name} = {value!r} differs from the dense radius {dense!r}"]
    return []


def check_certificate(r_gain: float, pd_radius: float, decision: str,
                      dense: float, label: str | None) -> list[str]:
    """r_gain and pd_radius^2 against the dense gain radius; the decision
    against the stated label, or against the dense radius and the band."""
    errors = check_radius("r_gain", r_gain, dense)
    errors += check_radius("pd_radius^2", pd_radius ** 2, dense)
    expected = label if label is not None else band_decision(dense)
    if decision != expected:
        errors.append(f"decision {decision!r}, expected {expected!r}")
    return errors


def check_abscissa(lambda_star: float, radius_at) -> list[str]:
    """The dense gain radius must be above 1 just left of lambda_star and
    below 1 just right of it; radius_at(lam) assembles and measures."""
    if not math.isfinite(lambda_star):
        return [f"lambda_star = {lambda_star!r} is not finite"]
    left = radius_at(lambda_star - ABSCISSA_DELTA)
    right = radius_at(lambda_star + ABSCISSA_DELTA)
    if left > 1.0 > right:
        return []
    return [f"lambda_star = {lambda_star!r}: dense radius {left!r} at -delta and "
            f"{right!r} at +delta do not straddle 1"]


def dense_abscissa(radius_at, lo: float = -10.0, hi: float = 10.0,
                   tol: float = 1e-6) -> float:
    """Bisection for r(lam) = 1 on the decreasing map lam -> r(lam)."""
    while radius_at(lo) <= 1.0:
        lo -= hi - lo
    while radius_at(hi) >= 1.0:
        hi += hi - lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if radius_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_norms(times, norms) -> list[str]:
    norms = np.asarray(norms, dtype=float)
    if len(norms) != len(times) or len(norms) == 0:
        return [f"{len(norms)} norms for {len(times)} record times"]
    if not np.all(np.isfinite(norms)) or np.any(norms < 0.0):
        return ["a recorded norm is negative or not finite"]
    return []


def fitted_decay_rate(times, norms) -> float:
    """Negative slope of log(norm) over the second half of the horizon."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(norms, dtype=float)
    mask = t >= 0.5 * t[-1]
    slope = np.polyfit(t[mask], np.log(y[mask]), 1)[0]
    return -float(slope)


def check_decay(times, norms, lambda_star: float) -> list[str]:
    a = fitted_decay_rate(times, norms)
    rel = abs(a + lambda_star) / abs(lambda_star)
    if not rel <= DECAY_RTOL:
        return [f"fitted decay rate {a!r} is {rel:.3g} away from "
                f"-lambda* = {-lambda_star!r}"]
    return []


def check_mass(mass) -> list[str]:
    m = np.asarray(mass, dtype=float)
    drift = float(np.max(np.abs(m - m[0])) / m[0])
    if not drift < MASS_DRIFT_MAX:
        return [f"total mass drifts by {drift:.3g}"]
    return []


def expected_records(t_end: float, dt: float, stride: int) -> int:
    """Initial record, one per stride, and the final step if off-stride."""
    n_steps = max(1, math.ceil(t_end / dt - 1e-9))
    return 1 + n_steps // stride + (1 if n_steps % stride else 0)


def check_verify(exit_code: int, payload: dict, t_end: float, dt: float,
                 stride: int) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    errors = []
    if payload.get("passed") is not True:
        errors.append(f"passed = {payload.get('passed')!r}")
    margin = payload.get("worst_margin")
    if not isinstance(margin, (int, float)) or not margin >= -ISS_SLACK:
        errors.append(f"worst_margin = {margin!r}")
    n = expected_records(t_end, dt, stride)
    if payload.get("n_records") != n:
        errors.append(f"n_records = {payload.get('n_records')!r}, expected {n}")
    if payload.get("metadata", {}).get("dt") != dt:
        errors.append(f"dt = {payload.get('metadata', {}).get('dt')!r}, "
                      f"scenario file says {dt!r}")
    return errors

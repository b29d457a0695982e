"""Spectral radii, small-gain certificates, the spectral abscissa, ISS constants.

The abscissa solves r(G(lam)) = 1 by a safeguarded secant method on the
convex map lam -> log r(G(lam)) (Kingman 1961), run from the left of the
root, with a bisection fallback; see spectral_abscissa. The resolvent
constant c is the least weighted column sum of the discretized resolvent, in
closed form: the exact infimum over the positive cone; see resolvent_constant_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, DomainError, SmallGainViolation
from .model import NetworkSpec, network_bounds
from .operators import (BlockOperator, VelocityGrid, _bound_product, _gain_factors,
                        assemble_gain, assemble_pd, dirichlet_norm_closed_form,
                        pd_norm_closed_form)

INCONCLUSIVE_BAND = 1e-3
POWER_TOL_DEFAULT = 1e-10
ABSCISSA_TOL_DEFAULT = 1e-6
RESOLVENT_NODES = 64  # nodes per circle of the resolvent meshes, less one

_BRACKET_MAX_ITER = 500  # 2**500 bounds the unscaled iterate


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, BlockOperator):
        return op.matrix
    return np.asarray(op, dtype=float)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")


def spectral_radius(op, tol: float = POWER_TOL_DEFAULT) -> float:
    """Perron root of a nonnegative matrix to relative tolerance tol.

    Collatz-Wielandt bracket: every x > 0 gives
    lo = min_i (Ax)_i/x_i <= r(A) <= max_i (Ax)_i/x_i = hi (Wielandt 1950;
    Horn & Johnson, Matrix Analysis, 8.1), whatever iterate x is, so any
    rule that keeps x > 0 keeps the bracket rigorous.

    The steps start unshifted, x <- A x / hi. Their bracket closes at the
    rate |lambda_2| / r, which is 0 where each circle's gain block has rank
    one (constant and separable kernels) and small on most gains. They stop
    helping on periodic input (block-antidiagonal or swap-routed operators),
    where |lambda_2| = r. So from the first step that does not halve
    hi - lo, the call uses the aperiodic x <- (A + hi I) x / hi instead,
    for the rest of the call: its bracket closes on every irreducible input,
    and the shift by hi keeps the rate independent of the scale of A.

    Returns the middle of the first bracket with hi - lo <= tol * hi, and
    exactly 0 when A = 0. A zero row of A (lo = 0, nilpotent input included)
    keeps the bracket open, as does other reducible input; there, at the step
    cap, or when A x overflows, the dense eigenvalues clipped into the last
    bracket decide.
    """
    _check_tol(tol)
    a = _as_matrix(op)
    if a.size == 0:
        return 0.0
    if not np.all(np.isfinite(a)):
        raise DomainError("spectral_radius expects finite matrix entries")
    if np.any(a < 0):
        raise DomainError("spectral_radius expects a nonnegative matrix")

    x = np.ones(a.shape[0])
    width, shifted = math.inf, False
    for _ in range(_BRACKET_MAX_ITER):
        y = a @ x
        ratio = y / x
        lo, hi = float(ratio.min()), float(ratio.max())
        if hi == 0.0:
            return 0.0
        if lo == 0.0 or not math.isfinite(hi):
            break
        if hi - lo <= tol * hi:
            return 0.5 * (lo + hi)
        shifted = shifted or hi - lo > 0.5 * width
        width = hi - lo
        # x <- A x / hi never grows x, and x <- (A + hi I) x / hi at most
        # doubles it per step
        x = x + y / hi if shifted else y / hi
    dense = float(np.max(np.abs(np.linalg.eigvals(a))))
    return min(max(dense, lo), hi)


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class BoundCheck:
    value: float | None
    status: str  # "pass" | "fail" | "not_applicable"


@dataclass(frozen=True)
class Certificate:
    r_gain: float
    pd_radius: float
    decision: str  # "ISS" | "NOT_ISS" | "INCONCLUSIVE"
    sufficient_checks: dict[str, BoundCheck] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "r_gain": self.r_gain,
            "pd_radius": self.pd_radius,
            "decision": self.decision,
            "sufficient_checks": {
                name: {"value": _json_number(chk.value), "status": chk.status}
                for name, chk in self.sufficient_checks.items()
            },
        }


def _json_number(x):
    """x as a JSON report holds it: the string "inf" for an infinite value."""
    return "inf" if x == math.inf else x


def _bound_check(value: float | None) -> BoundCheck:
    if value is None:
        return BoundCheck(value=None, status="not_applicable")
    return BoundCheck(value=value, status="pass" if value < 1.0 else "fail")


def small_gain_certificate(spec: NetworkSpec, grid: VelocityGrid) -> Certificate:
    """Decide exponential ISS from the junction gain radius at shift 0.

    Also evaluates the closed-form sufficient bounds where their preconditions
    hold (all-Dirac measures; all positive-rate exponential measures with
    mass-preserving scattering; mass-preserving junction norm bound).
    """
    gain = assemble_gain(spec, grid, 0.0)
    r_gain = spectral_radius(gain.operator)
    pd_radius = spectral_radius(assemble_pd(spec, grid, 0.0))

    b = network_bounds(spec)
    exp_factor = dirichlet_norm_closed_form(spec)[0]

    example1 = None
    if all(c.delay_measure.kind == "dirac" for c in spec.circles):
        example1 = _bound_product(b.beta_bar, spec.v_max,
                                  math.log(spec.v_max / spec.v_min),
                                  exp_factor, b.routing_norm)

    example2 = None
    if spec.mass_preserving and all(
            c.delay_measure.kind == "exponential" and c.delay_measure.theta_rate > 0
            for c in spec.circles):
        example2 = _bound_product(b.r_bar, spec.v_max / spec.v_min, exp_factor,
                                  b.routing_norm)

    c1 = pd_norm_closed_form(spec) if spec.mass_preserving else None

    if abs(r_gain - 1.0) < INCONCLUSIVE_BAND:
        decision = "INCONCLUSIVE"
    elif r_gain < 1.0:
        decision = "ISS"
    else:
        decision = "NOT_ISS"

    return Certificate(
        r_gain=r_gain, pd_radius=pd_radius, decision=decision,
        sufficient_checks={
            "example1_bound": _bound_check(example1),
            "example2_bound": _bound_check(example2),
            "C1_condition": _bound_check(c1),
        },
    )


# ---------------------------------------------------------------------------
# spectral abscissa

@dataclass(frozen=True)
class AbscissaResult:
    lambda_star: float
    bracket_width: float
    iterations: int

    def to_dict(self) -> dict:
        return {"schema_version": 1, "lambda_star": self.lambda_star,
                "bracket_width": self.bracket_width,
                "iterations": self.iterations,
                "predicted_decay_rate": -self.lambda_star if self.lambda_star < 0 else None}


def _probe(end: float, step: float) -> float:
    """end + step, rounded toward end so that |x - end| <= |step|."""
    x = end + step
    return math.nextafter(x, end) if abs(x - end) > abs(step) else x


def spectral_abscissa(spec: NetworkSpec, grid: VelocityGrid,
                      tol: float = ABSCISSA_TOL_DEFAULT) -> AbscissaResult:
    """Unique lambda with r(gain_lambda) = 1, by a safeguarded secant method
    on phi(lambda) = log r(gain_lambda) run from the left of the root.

    Every column factor laplace_j(lambda) S_jk(lambda) is log-convex, so phi
    is convex (Kingman, "A convexity property of positive matrices", Quart.
    J. Math. 12, 1961) and strictly decreasing. The secant through two points
    left of the root then meets zero left of the root again: each step is a
    lower bound that moves monotonically and superlinearly toward lambda*.
    Once a step would advance lo by less than tol/2, lo + tol is evaluated
    instead; it becomes hi when the radius there is below 1. A secant point
    less than tol/2 below hi moves to hi - tol in the same way. Far left the
    survival clamp makes phi locally concave, so a secant point outside
    (lo, hi), or a gap from lo to the chord root of [lo, hi] (an upper bound
    on lambda* while phi is convex) that has not halved in two steps, gives a
    bisection step instead.

    [lo, hi] is a sign bracket whose ends were both evaluated, so
    bracket_width = hi - lo <= tol is certified; lambda_star is its middle.
    iterations counts the radius evaluations after the sign bracket is found.
    B and the shift-free exponent parts are built once; each evaluation is
    one public spectral_radius call, on a similar matrix kept in float range;
    DomainError where an entry of it underflowed under a reading phi <= 0,
    BracketError where adjacent floats near lambda* lie more than tol apart.
    """
    _check_tol(tol)
    factors = _gain_factors(spec, grid)

    def phi(lam: float) -> float:
        s, gain, lost = factors.balanced_gain(lam)
        r = spectral_radius(gain)
        f = s + math.log(r) if r > 0.0 else -math.inf
        if lost and f <= 0.0:  # r(gain) then only bounds r(G(lam)) from below
            raise DomainError(f"the gain at shift {lam} spans more than the float range")
        return f

    f0 = phi(0.0)
    if f0 == -math.inf:
        # structurally zero gain: the radius stays 0 at every shift
        raise BracketError("gain radius is identically zero; no finite crossing")

    b = network_bounds(spec)
    lo, hi = -spec.v_min * b.gamma_bar - 10.0, 10.0
    if f0 > 0.0:
        lo, f_lo, f_hi = 0.0, f0, phi(hi)
    else:
        hi, f_lo, f_hi = 0.0, phi(lo), f0
    doublings = 0
    while not (f_lo > 0.0 and f_hi < 0.0):
        if doublings >= 60:
            raise BracketError(
                f"no sign change of r(gain)-1 in [{lo}, {hi}] after 60 doublings")
        width = hi - lo
        if f_lo <= 0.0:
            lo -= width
            f_lo = phi(lo)
        if f_hi >= 0.0:
            hi += width
            f_hi = phi(hi)
        doublings += 1

    # a second point left of the root, a tenth of the bracket further left
    a = lo - 0.1 * (hi - lo)
    f_a = phi(a)
    iterations = 1
    gaps = [math.inf, math.inf]
    while hi - lo > tol:
        # lo to the chord root of [lo, hi], an upper bound when phi is convex
        gap = (hi - lo) * f_lo / (f_lo - f_hi)
        x = lo + f_lo * (lo - a) / (f_a - f_lo) if f_a > f_lo else math.inf
        if x - lo < 0.5 * tol:
            x = _probe(lo, tol)
        elif 0.0 <= hi - x < 0.5 * tol:
            x = _probe(hi, -tol)
        if not lo < x < hi or gap > 0.5 * gaps[-2]:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # lo and hi are adjacent floats
                raise BracketError(f"[{lo}, {hi}] is wider than tol {tol} at float spacing")
        gaps.append(gap)
        f_x = phi(x)
        if f_x > 0.0:
            a, f_a, lo, f_lo = lo, f_lo, x, f_x
        else:
            hi, f_hi = x, f_x
        iterations += 1
    return AbscissaResult(lambda_star=0.5 * (lo + hi), bracket_width=hi - lo,
                          iterations=iterations)


# ---------------------------------------------------------------------------
# resolvent constant

def _column_sums(nodes: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(R* w)_i / w_i for the trapezoid rule R f(x_m) = int_0^{x_m}
    e^{phi(y) - phi(x_m)} f(y) dy on increasing nodes, w the trapezoid
    weights, along the last axis."""
    half = 0.5 * np.diff(nodes)
    w = np.r_[half, 0.0] + np.r_[0.0, half]
    # log sum_{m >= i} w_m e^{-phi_m}, a reverse cumulative sum kept in logs:
    # e^{phi} and e^{-phi} alone overflow once phi spans more than ~700
    log_tail = np.logaddexp.accumulate((np.log(w) - phi)[..., ::-1], axis=-1)[..., ::-1]
    out = np.zeros(np.shape(phi))
    out[..., 1:] += half * np.exp(phi[..., 1:] + log_tail[..., 1:])
    out[..., :-1] += half * np.exp(phi[..., :-1] + log_tail[..., 1:])
    return out / w


def resolvent_constant_c(spec: NetworkSpec, grid: VelocityGrid, lam: float,
                         n_x: int = RESOLVENT_NODES,
                         n_theta: int = RESOLVENT_NODES) -> float:
    """Exact inf ||R(lam, A) x|| / ||x|| over the nonzero x >= 0 for the
    trapezoid-rule resolvents on n_x + 1 and n_theta + 1 nodes per circle, in
    the weighted l1 norm (trapezoid weights in x and theta times the cell
    widths dv). On circle j, per velocity v:
      the absorbing free transport with zero junction inflow,
        (R f)(x) = (1/v) int_0^x exp(-int_y^x (lam + q_j(s, v))/v ds) f(y) dy
        on [0, l_j];
      the history shift with zero boundary value at theta = 0,
        (R phi)(theta) = int_theta^0 e^{(theta - sigma) lam} phi(sigma) d sigma
        on [-r_j, 0].

    That space is an AL-space and R is positive, so ||R x|| = <R* w, x> for
    every x >= 0 (Schaefer, Banach Lattices and Positive Operators, 1974):
    the infimum is the least weighted column sum (R* w)_i / w_i, and the
    smaller of the two block minima. It sits at a mesh-edge node: the end of
    a circle or the oldest history sample, whose mass leaves within half a
    cell, or the first node where one cell damps strongly. So c shrinks like
    1/n as the mesh is refined.
    """
    g1, g2 = spec.absorption_range()
    if lam <= max(0.0, -g2):
        raise DomainError(f"lam must exceed max(0, -gamma2) = {max(0.0, -g2)}")
    if n_x < 1 or n_theta < 1:
        raise DomainError("resolvent meshes need at least one cell")
    v = grid.centers[:, None]
    best = math.inf
    for c in spec.circles:
        xs = np.linspace(0.0, c.length, n_x + 1)
        phi = (lam * xs + c.absorption.integral_x(xs, v)) / v
        # the history shift is transport at unit speed in sigma = -theta
        sigma = np.linspace(0.0, c.delay, n_theta + 1)
        best = min(best, float(np.min(_column_sums(xs, phi) / v)),
                   float(np.min(_column_sums(sigma, lam * sigma))))
    return best


# ---------------------------------------------------------------------------
# ISS constants

@dataclass(frozen=True)
class IssConstants:
    n_envelope: float
    a_rate: float
    c_resolvent: float
    p: float
    c_check_p: float
    gain: float
    pd_norm: float
    c_grid: tuple[int, int]   # (n_x, n_theta) that c was computed on

    def to_dict(self) -> dict:
        return {"schema_version": 1, "N": self.n_envelope, "a": self.a_rate,
                "c": self.c_resolvent,
                "c_grid": list(self.c_grid),
                "p": _json_number(self.p), "C_check_p": self.c_check_p,
                "gain": self.gain, "pd_norm": self.pd_norm}


def c_check(n_envelope: float, a_rate: float, c_resolvent: float, p: float) -> float:
    """Three-case admissibility constant: N/c, (N/c)((p-1)/(pa))^{(p-1)/p}, N/(ac)."""
    if n_envelope <= 0 or a_rate <= 0 or c_resolvent <= 0:
        raise DomainError("envelope and resolvent constants must be positive")
    if not p >= 1:
        raise DomainError("p must be in [1, inf]")
    if p == 1:
        return n_envelope / c_resolvent
    if math.isinf(p):
        return n_envelope / (a_rate * c_resolvent)
    frac = (p - 1.0) / (p * a_rate)
    return (n_envelope / c_resolvent) * frac ** ((p - 1.0) / p)


def iss_constants(spec: NetworkSpec, grid: VelocityGrid, p: float,
                  envelope: tuple[float, float]) -> IssConstants:
    """Explicit ISS gain from the envelope (N, a), the resolvent constant c
    and the discretized junction norm. c is computed at
    lam = max(0, -gamma2) + 1, and c_grid records its mesh."""
    n_envelope, a_rate = envelope
    d0_bound, k_bound = dirichlet_norm_closed_form(spec)
    if not math.isfinite(d0_bound):
        raise DomainError("the Dirichlet-lift bound e^(l_bar gamma_bar / v_min) "
                          "passes float range; no finite ISS gain")
    pd_norm = assemble_pd(spec, grid, 0.0).norm()
    if pd_norm >= 1.0:
        raise SmallGainViolation(f"junction operator norm {pd_norm} >= 1")
    lam = max(0.0, -spec.absorption_range()[1]) + 1.0
    c_resolvent = resolvent_constant_c(spec, grid, lam)
    cp = c_check(n_envelope, a_rate, c_resolvent, p)
    gain = k_bound * d0_bound * cp / (1.0 - pd_norm)
    return IssConstants(n_envelope=n_envelope, a_rate=a_rate,
                        c_resolvent=c_resolvent, p=p, c_check_p=cp,
                        gain=gain, pd_norm=pd_norm,
                        c_grid=(RESOLVENT_NODES, RESOLVENT_NODES))

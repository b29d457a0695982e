"""Spectral radii, abscissa bisection, small-gain certificates, ISS constants."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, DomainError, SmallGainViolation
from .model import NetworkSpec, network_bounds
from .operators import (BlockOperator, VelocityGrid, assemble_gain, assemble_pd,
                        dirichlet_norm_closed_form, pd_norm_closed_form)

INCONCLUSIVE_BAND = 1e-3
POWER_TOL_DEFAULT = 1e-10
BISECTION_TOL_DEFAULT = 1e-6

_BRACKET_MAX_ITER = 500  # 2**500 bounds the unscaled iterate


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, BlockOperator):
        return op.matrix
    return np.asarray(op, dtype=float)


def spectral_radius(op, tol: float = POWER_TOL_DEFAULT) -> float:
    """Perron root of a nonnegative matrix to relative tolerance tol.

    Collatz-Wielandt bracket: every x > 0 gives
    lo = min_i (Ax)_i/x_i <= r(A) <= max_i (Ax)_i/x_i = hi (Wielandt 1950;
    Horn & Johnson, Matrix Analysis, 8.1). The iterate x <- (A + hi I) x is
    aperiodic, so the bracket closes on irreducible input even where A is
    periodic (block-antidiagonal or swap-routed operators), and the shift
    by hi keeps the rate independent of the scale of A. Returns the middle of
    the first bracket with hi - lo <= tol * hi, and exactly 0 when A = 0. A
    zero row of A (lo = 0, nilpotent input included) keeps the bracket open,
    as does other reducible input; there, at the step cap, or when A x
    overflows, the dense eigenvalues clipped into the last bracket decide.
    """
    if tol <= 0:
        raise DomainError("tol must be > 0")
    a = _as_matrix(op)
    if a.size == 0:
        return 0.0
    if not np.all(np.isfinite(a)):
        raise DomainError("spectral_radius expects finite matrix entries")
    if np.any(a < 0):
        raise DomainError("spectral_radius expects a nonnegative matrix")

    x = np.ones(a.shape[0])
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
        # x <- (A + hi I) x / hi keeps x >= 1 and at most doubles it per step
        x += y / hi
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
                name: {"value": chk.value, "status": chk.status}
                for name, chk in self.sufficient_checks.items()
            },
        }


def _bound_check(value: float | None) -> BoundCheck:
    if value is None:
        return BoundCheck(value=None, status="not_applicable")
    return BoundCheck(value=value, status="pass" if value < 1.0 else "fail")


def small_gain_certificate(spec: NetworkSpec, grid: VelocityGrid,
                           tol: float = POWER_TOL_DEFAULT) -> Certificate:
    """Decide exponential ISS from the junction gain radius at shift 0.

    Also evaluates the closed-form sufficient bounds where their preconditions
    hold (all-Dirac measures; all positive-rate exponential measures with
    mass-preserving scattering; mass-preserving junction norm bound).
    """
    gain = assemble_gain(spec, grid, 0.0)
    r_gain = spectral_radius(gain.operator, tol)
    pd_radius = spectral_radius(assemble_pd(spec, grid, 0.0), tol)

    b = network_bounds(spec)
    exp_factor = math.exp(b.gamma_bar * b.l_bar / spec.v_min)

    example1 = None
    if all(c.delay_measure.kind == "dirac" for c in spec.circles):
        example1 = (b.beta_bar * spec.v_max * math.log(spec.v_max / spec.v_min)
                    * exp_factor * b.routing_norm)

    example2 = None
    if spec.mass_preserving and all(
            c.delay_measure.kind == "exponential" and c.delay_measure.theta_rate > 0
            for c in spec.circles):
        example2 = b.r_bar * (spec.v_max / spec.v_min) * exp_factor * b.routing_norm

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


def spectral_abscissa(spec: NetworkSpec, grid: VelocityGrid,
                      tol: float = BISECTION_TOL_DEFAULT,
                      radius_tol: float = POWER_TOL_DEFAULT) -> AbscissaResult:
    """Unique lambda with r(gain_lambda) = 1, by bisection on the strictly
    decreasing map lambda -> r(gain_lambda)."""
    b = network_bounds(spec)

    def f(lam: float) -> float:
        return spectral_radius(assemble_gain(spec, grid, lam).operator, radius_tol) - 1.0

    if f(0.0) == -1.0:
        # structurally zero gain: the radius stays 0 at every shift
        raise BracketError("gain radius is identically zero; no finite crossing")

    lo = -spec.v_min * b.gamma_bar - 10.0
    hi = 10.0
    f_lo, f_hi = f(lo), f(hi)
    doublings = 0
    while not (f_lo > 0.0 and f_hi < 0.0):
        if doublings >= 60:
            raise BracketError(
                f"no sign change of r(gain)-1 in [{lo}, {hi}] after 60 doublings")
        width = hi - lo
        if f_lo <= 0.0:
            lo -= width
            f_lo = f(lo)
        if f_hi >= 0.0:
            hi += width
            f_hi = f(hi)
        doublings += 1

    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return AbscissaResult(lambda_star=0.5 * (lo + hi), bracket_width=hi - lo,
                          iterations=iterations)


# ---------------------------------------------------------------------------
# resolvent lower-bound constant

def _resolvent_grids(spec: NetworkSpec, grid: VelocityGrid, n_x: int, n_theta: int):
    xs = [np.linspace(0.0, c.length, n_x + 1) for c in spec.circles]
    thetas = [np.linspace(-c.delay, 0.0, n_theta + 1) for c in spec.circles]
    return xs, thetas


def apply_transport_resolvent(spec: NetworkSpec, grid: VelocityGrid, lam: float,
                              f: list[np.ndarray], n_x: int) -> list[np.ndarray]:
    """Resolvent of the absorbing free transport with zero junction inflow,
    applied on spatial nodes: (1/v) int_0^x exp(-int_y^x (lam+q)/v) f(y) dy.

    f[j] has shape (K, n_x+1); trapezoid in y.
    """
    out = []
    for j, c in enumerate(spec.circles):
        xs = np.linspace(0.0, c.length, n_x + 1)
        K = grid.k
        rj = np.zeros((K, n_x + 1))
        for k in range(K):
            v = grid.centers[k]
            # cumulative absorption integral at the nodes
            big_q = np.array([c.absorption.integral_x(x, v) for x in xs])
            phi = lam * xs + big_q  # exponent numerator at each node
            # kernel(m, y) = exp(-(phi[m] - phi[y-node])/v) for y <= x_m
            g = f[j][k] * np.exp(phi / v)
            integ = np.concatenate([[0.0], np.cumsum(
                0.5 * (g[1:] + g[:-1]) * np.diff(xs))])
            rj[k] = np.exp(-phi / v) * integ / v
        out.append(rj)
    return out


def apply_history_resolvent(spec: NetworkSpec, grid: VelocityGrid, lam: float,
                            phi: list[np.ndarray], n_theta: int) -> list[np.ndarray]:
    """Resolvent of the history shift with zero boundary value at theta = 0:
    int_theta^0 e^{(theta - sigma) lam} phi(sigma) d sigma.

    phi[j] has shape (n_theta+1, K) over increasing theta in [-r_j, 0].
    """
    out = []
    for j, c in enumerate(spec.circles):
        th = np.linspace(-c.delay, 0.0, n_theta + 1)
        g = phi[j] * np.exp(-lam * th)[:, None]
        # reverse cumulative trapezoid: integral from theta to 0
        seg = 0.5 * (g[1:] + g[:-1]) * np.diff(th)[:, None]
        tail = np.vstack([np.cumsum(seg[::-1], axis=0)[::-1], np.zeros((1, grid.k))])
        out.append(np.exp(lam * th)[:, None] * tail)
    return out


def _state_norm(spec, grid, f, phi, n_x, n_theta) -> float:
    total = 0.0
    for j, c in enumerate(spec.circles):
        xs = np.linspace(0.0, c.length, n_x + 1)
        total += float(np.sum(np.abs(f[j]) * grid.widths[:, None] * _trapz_weights(xs)[None, :]))
        th = np.linspace(-c.delay, 0.0, n_theta + 1)
        total += float(np.sum(np.abs(phi[j]) * _trapz_weights(th)[:, None] * grid.widths[None, :]))
    return total


def _trapz_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def resolvent_constant_c(spec: NetworkSpec, grid: VelocityGrid, lam: float,
                         samples: int, seed: int = 0, n_x: int = 64,
                         n_theta: int = 64, safety_margin: float = 0.05) -> float:
    """Sampled lower bound on ||R(lam, A)x|| / ||x|| over the positive cone,
    deflated by the safety margin."""
    g1, g2 = spec.absorption_range()
    if lam <= max(0.0, -g2):
        raise DomainError(f"lam must exceed max(0, -gamma2) = {max(0.0, -g2)}")
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(samples):
        f = [rng.random((grid.k, n_x + 1)) for _ in spec.circles]
        phi = [rng.random((n_theta + 1, grid.k)) for _ in spec.circles]
        denom = _state_norm(spec, grid, f, phi, n_x, n_theta)
        if denom == 0.0:
            continue
        rf = apply_transport_resolvent(spec, grid, lam, f, n_x)
        rphi = apply_history_resolvent(spec, grid, lam, phi, n_theta)
        ratio = _state_norm(spec, grid, rf, rphi, n_x, n_theta) / denom
        best = min(best, ratio)
    return best * (1.0 - safety_margin)


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

    def to_dict(self) -> dict:
        return {"schema_version": 1, "N": self.n_envelope, "a": self.a_rate,
                "c": self.c_resolvent, "p": self.p,
                "C_check_p": self.c_check_p, "gain": self.gain,
                "pd_norm": self.pd_norm}


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
                  envelope: tuple[float, float], *, c_resolvent: float | None = None,
                  resolvent_lambda: float | None = None, resolvent_samples: int = 16,
                  seed: int = 0, use_closed_form_pd_bound: bool = False) -> IssConstants:
    """Explicit ISS gain from the envelope (N, a) and the resolvent constant.

    The junction norm uses the discretized operator by default, or the
    closed-form mass-preserving bound when use_closed_form_pd_bound is set.
    """
    n_envelope, a_rate = envelope
    if use_closed_form_pd_bound:
        pd_norm = pd_norm_closed_form(spec)
    else:
        pd_norm = assemble_pd(spec, grid, 0.0).norm()
    if pd_norm >= 1.0:
        raise SmallGainViolation(f"junction operator norm {pd_norm} >= 1")
    if c_resolvent is None:
        g1, g2 = spec.absorption_range()
        lam = resolvent_lambda if resolvent_lambda is not None else max(0.0, -g2) + 1.0
        c_resolvent = resolvent_constant_c(spec, grid, lam, resolvent_samples, seed=seed)
    cp = c_check(n_envelope, a_rate, c_resolvent, p)
    d0_bound, k_bound = dirichlet_norm_closed_form(spec)
    gain = k_bound * d0_bound * cp / (1.0 - pd_norm)
    return IssConstants(n_envelope=n_envelope, a_rate=a_rate,
                        c_resolvent=c_resolvent, p=p, c_check_p=cp,
                        gain=gain, pd_norm=pd_norm)

"""Spectral radii, small-gain certificates, the spectral abscissa, ISS constants.

The abscissa solves r(G(lam)) = 1 by Illinois false position on the
decreasing map lam -> log r(G(lam)), convex by Kingman (1961), inside a sign
bracket whose ends are both evaluated; see spectral_abscissa. Its radii are
read on the J m x J m core C of the gain (operators._GainFactors.core), by the
Collatz-Wielandt loop of spectral_radius (_perron_bracket), each started
from the last one's Perron vector and stopped once its bracket decides the
sign of log r(G(lam)). The small-gain certificate takes r(G(0)) on the dense
gain and the PD radius on the core at 0, from one factorization. On a small
core whose fourth power C^4 = (C C)(C C) the factorization's log bound keeps
in float range (_GainFactors.perron_power), both read r(C)^4 on C^4: one
product there is four power steps of C, so a bracket that closes at
|lambda_2| / r per step on C closes at (|lambda_2| / r)^4 on C^4. A 1 x 1 core
(one circle and one velocity group, m = 1, as with a constant kernel) is its
own root. The
resolvent constant c is the least weighted column sum of the discretized
resolvent, in closed form: the exact infimum over the positive cone, over
the meshes of all circles at once; see resolvent_constant_c.

spectral_radius scans every matrix that comes from outside, the
certificate's two radii among them, for entries that are not finite or are
negative. The abscissa's matrices skip the scan: the gain factorization
checks its route U once, when it is built, and balanced_core keeps every
matrix it gives finite and nonnegative. The scan still runs before any dense
fallback. Both run their loops under the package's floating-point policy
(errors._ieee_policy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BracketError, DomainError, SmallGainViolation, _ieee_policy
from .model import NetworkSpec, network_bounds
from .operators import (BlockOperator, VelocityGrid, _bound_product, _check_entries,
                        _gain_factors, assemble_gain, dirichlet_norm_closed_form,
                        pd_norm_closed_form)

INCONCLUSIVE_BAND = 1e-3
POWER_TOL_DEFAULT = 1e-10
ABSCISSA_TOL_DEFAULT = 1e-6
RESOLVENT_NODES = 64  # nodes per circle of the resolvent meshes, less one

_BRACKET_MAX_ITER = 500  # 2**500 bounds the unscaled iterate
_SIGN_RTOL = 1e-3  # bracket width per distance from the level that decides a side


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
    rule that keeps x > 0 keeps the bracket rigorous. This call starts from
    x = 1; the abscissa's calls start from the last shift's iterate.

    The steps start unshifted, x <- A x / hi. Their bracket closes at the
    rate |lambda_2| / r, which is 0 where each circle's gain block has rank
    one (constant and separable kernels) and small on most gains. They stop
    helping on periodic input (block-antidiagonal or swap-routed operators),
    where |lambda_2| = r and hi - lo barely moves. So from the first step
    that shrinks hi - lo by less than a tenth, the call uses the aperiodic
    x <- (A + hi I) x / hi instead, for the rest of the call: its bracket
    closes on every irreducible input, and the shift by hi keeps the rate
    independent of the scale of A. Periodic input stalls at once and so
    switches at once; aperiodic input whose unshifted bracket shrinks by
    less than half per step (a complex lambda_2, or one near r) keeps the
    unshifted steps while they still shrink it by a tenth.

    Returns the middle of the first bracket with hi - lo <= tol * hi,
    exactly 0 when A = 0, and the entry itself when A is 1 x 1 and positive.
    A zero row of A (lo = 0, nilpotent input included) keeps the bracket
    open, as does other reducible input; there, at the step cap, or when
    A x overflows, the dense eigenvalues clipped into the last bracket
    decide. An iterate entry that underflows to 0 ends the bracket
    too, and raises DomainError: the entries of A then span more than the
    float range, and neither bracket nor eigvals can be trusted.

    A non-finite or negative entry of A raises DomainError up front. The
    loop runs under errors._ieee_policy: an A x that overflows goes to the
    dense fallback, and a radius past the float range reads inf.
    """
    _check_tol(tol)
    a = _as_matrix(op)
    if a.size == 0:
        return 0.0
    _check_entries(a, "spectral_radius")
    with _ieee_policy():
        return _perron_bracket(a, tol).radius


class _Bracket(NamedTuple):
    """What a Perron bracket found: the radius, and A x for the iterate x it
    stopped at, scaled to max entry 1, or None where no bracket closed (A = 0,
    the dense fallback)."""

    radius: float
    vector: np.ndarray | None


def _perron_bracket(a: np.ndarray, tol: float, x0: np.ndarray | None = None,
                    level: float | None = None) -> _Bracket:
    """The Collatz-Wielandt loop of spectral_radius on the nonempty matrix a,
    from x0 instead of x = 1 where x0 is given with no zero entry (every
    x > 0 keeps the bracket rigorous). With level, it also stops once the
    bracket decides the side of log r against level: lo > 0,
    [log lo, log hi] strictly on one side, and no wider than _SIGN_RTOL times
    the distance of its nearer end. The middle lo + (hi - lo) / 2 it then
    returns lies on the same side as log r; it cannot overflow, and it is
    exact, subnormals included, where lo = hi.

    A 1 x 1 matrix whose entry is positive and finite is its own root, with
    the vector 1 and no step. Any other 1 x 1 input takes the loop and its
    checks. The caller enters errors._ieee_policy. A zero entry of x or a
    non-finite entry of a gives an inf or nan ratio, which ends the loop, and
    a is scanned before the dense fallback."""
    if a.shape[0] == 1 and 0.0 < a[0, 0] < math.inf:
        return _Bracket(float(a[0, 0]), np.ones(1))
    x = x0 if x0 is not None and x0.all() else np.ones(a.shape[0])
    ratio = np.empty(a.shape[0])  # (A x)_i / x_i, rewritten every step
    width, shifted = math.inf, False
    for _ in range(_BRACKET_MAX_ITER):
        y = a @ x
        np.divide(y, x, out=ratio)
        lo, hi = float(np.minimum.reduce(ratio)), float(np.maximum.reduce(ratio))
        if hi == 0.0:
            return _Bracket(0.0, None)
        if lo == 0.0 or not math.isfinite(hi):
            break
        if hi - lo <= tol * hi or level is not None and _decides(lo, hi, level):
            y /= np.maximum.reduce(y)
            return _Bracket(lo + 0.5 * (hi - lo), y)  # lo + hi may overflow
        shifted = shifted or hi - lo > 0.9 * width
        width = hi - lo
        # x <- A x / hi never grows x, and x <- (A + hi I) x / hi at most
        # doubles it per step; both are written into y, which a @ x made
        y /= hi
        if shifted:
            y += x
        x = y
    _check_entries(a, "spectral_radius")  # what ended the loop may be nan or inf
    if not x.all():
        raise DomainError("the Perron iterate underflowed: the matrix entries "
                          "span more than the float range")
    dense = float(np.max(np.abs(np.linalg.eigvals(a))))
    return _Bracket(min(max(dense, lo), hi), None)


def _decides(lo: float, hi: float, level: float) -> bool:
    """[log lo, log hi] lies strictly on one side of level, and is no wider
    than _SIGN_RTOL times the distance of its nearer end from level."""
    log_lo, log_hi = math.log(lo), math.log(hi)
    gap = max(log_lo - level, level - log_hi)
    return gap > 0.0 and log_hi - log_lo <= _SIGN_RTOL * gap


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

    pd_radius is the spectral radius of the junction operator
    PD = [[0, P], [Q, 0]], Q = diag(S): PD^2 = diag(PQ, QP), so
    r(PD)^2 = r(QP), the radius of the n x n row-scaled block S P. With
    B = U^T X, S P = diag(S) U^T X diag(laplace) has the nonzero spectrum of
    X diag(laplace S) U^T, the J m x J m core C at shift 0, which pd_radius is
    taken on, apart from the dense gain of r_gain but from the one
    factorization that assemble_gain keeps on its report. Where the
    factorization takes C's fourth power (_GainFactors.perron_power: a small
    C whose power stays in float range), it is r(C^4)^(1/8), bracketed at
    4 tol on C^4 = (C C)(C C), else sqrt(r(C)).

    Also evaluates the closed-form sufficient bounds where their preconditions
    hold (all-Dirac measures; all positive-rate exponential measures with
    mass-preserving scattering; mass-preserving junction norm bound).
    """
    gain = assemble_gain(spec, grid, 0.0)
    r_gain = spectral_radius(gain.operator)
    a, p = gain.factors.perron_power(0.0, gain.factors.core(0.0))
    r_a = spectral_radius(a, p * POWER_TOL_DEFAULT)  # r(PD)^(2 p)
    pd_radius = math.sqrt(r_a) if p == 1 else r_a ** 0.125

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


@_ieee_policy()  # for every _perron_bracket below
def spectral_abscissa(spec: NetworkSpec, grid: VelocityGrid,
                      tol: float = ABSCISSA_TOL_DEFAULT) -> AbscissaResult:
    """Unique lambda with r(gain_lambda) = 1, by Illinois false position on
    phi(lambda) = log r(gain_lambda) (Dowell and Jarratt, BIT 11, 1971).

    Every column factor laplace_j(lambda) S_jk(lambda) is log-convex, so phi
    is convex (Kingman, "A convexity property of positive matrices", Quart.
    J. Math. 12, 1961) and strictly decreasing, with one root. The root
    finder does not rely on that convexity (far left the survival clamp
    makes phi locally concave): once a sign bracket is found, each step
    evaluates the chord root of [lo, hi] and keeps the end whose sign it
    shares, and where the same end stays put twice in a row the value kept
    at that end is halved. A chord root less than tol/2 above lo is moved to
    lo + tol, and one less than tol/2 below hi to hi - tol, so that the
    evaluated end there can close the bracket.

    [lo, hi] is a sign bracket whose ends were both evaluated, so
    bracket_width = hi - lo <= tol is certified; lambda_star is its middle.
    iterations counts the radius evaluations after the sign bracket is found.
    The gain factorization is built once, and r(G(lam)) is read on its
    J m x J m core C, or on the similar matrix that keeps it in float range.
    Where the factorization takes C's fourth power (_GainFactors.perron_power:
    a small C whose power stays in float range), the bracket runs on
    C^4 = (C C)(C C) with the level and the tol times 4, and phi takes a
    quarter of log r(C^4): four power steps per product.
    Each evaluation is one _perron_bracket, with no scan, since the
    factorization was checked when it was built: it starts from the last
    evaluation's Perron vector (from x = 1 at the first, after one that
    closed no bracket, and where balanced_core changes form), and stops at
    the 1e-10 rule or once its Collatz-Wielandt bracket decides the sign of
    phi, whichever comes first. So every evaluated end of [lo, hi] keeps a
    certified sign, while phi away from the root is read to a relative 1e-3.
    DomainError where an entry of the matrix underflowed under a reading
    phi <= 0, BracketError where adjacent floats near lambda* lie more than
    tol apart.
    """
    _check_tol(tol)
    factors = _gain_factors(spec, grid)
    warm = (False, None)  # (balanced form, Perron vector) of the last evaluation

    def phi(lam: float) -> float:
        nonlocal warm
        s, core, lost = factors.balanced_core(lam)
        a, p = factors.perron_power(lam, core)  # s = 0 where p = 4
        x0 = warm[1] if warm[0] == (s != 0.0) else None  # C^4 x shares C's Perron vector
        r, x = _perron_bracket(a, p * POWER_TOL_DEFAULT, x0, level=-p * s)
        warm = (s != 0.0, x)
        f = s + math.log(r) / p if r > 0.0 else -math.inf
        if lost and f <= 0.0:  # r(core) then only bounds r(G(lam)) from below
            raise DomainError(f"the gain at shift {lam} spans more than the float range")
        return f

    f0 = phi(0.0)
    if f0 == -math.inf:
        # structurally zero gain: the radius stays 0 at every shift
        raise BracketError("gain radius is identically zero; no finite crossing")

    lo, hi = -spec.v_min * network_bounds(spec).gamma_bar - 10.0, 10.0
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

    # Illinois false position. No end reads -inf, whose chord would pin x at
    # lo: a gain that is zero at every shift was refused at phi(0), in range
    # the core's zero pattern does not depend on lam, and in log form an
    # entry that underflows raises the lost-entry DomainError
    iterations, kept = 0, 0  # kept: +1 (-1) where lo (hi) stayed put last step
    while hi - lo > tol:
        x = lo + (hi - lo) * f_lo / (f_lo - f_hi)
        if x - lo < 0.5 * tol:
            x = _probe(lo, tol)
        elif hi - x < 0.5 * tol:
            x = _probe(hi, -tol)
        if not lo < x < hi:  # the probe cannot move off an end
            raise BracketError(f"[{lo}, {hi}] is wider than tol {tol} at float spacing")
        f_x = phi(x)
        if f_x > 0.0:
            lo, f_lo = x, f_x
            f_hi *= 0.5 if kept < 0 else 1.0
            kept = -1
        else:
            hi, f_hi = x, f_x
            f_lo *= 0.5 if kept > 0 else 1.0
            kept = 1
        iterations += 1
    return AbscissaResult(lambda_star=0.5 * (lo + hi), bracket_width=hi - lo,
                          iterations=iterations)


# ---------------------------------------------------------------------------
# resolvent constant

def _column_sums(nodes: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(R* w)_i / w_i for the trapezoid rule R f(x_m) = int_0^{x_m}
    e^{phi(y) - phi(x_m)} f(y) dy on increasing nodes, w the trapezoid
    weights, along the last axis of nodes and phi, which broadcast."""
    half = 0.5 * np.diff(nodes)
    w = np.zeros(np.shape(nodes))
    w[..., :-1] += half
    w[..., 1:] += half
    # log sum_{m >= i} w_m e^{-phi_m}, a reverse cumulative sum kept in logs:
    # e^{phi} and e^{-phi} alone overflow once phi spans more than ~700
    log_tail = np.logaddexp.accumulate((np.log(w) - phi)[..., ::-1], axis=-1)[..., ::-1]
    # each term takes half / w <= 1 before its exponential, which is about
    # the mesh span: half times that would underflow on a span near 1e-160
    out = np.zeros(np.shape(phi))
    out[..., 1:] += half / w[..., 1:] * np.exp(phi[..., 1:] + log_tail[..., 1:])
    out[..., :-1] += half / w[..., :-1] * np.exp(phi[..., :-1] + log_tail[..., 1:])
    return out


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
    g2 = network_bounds(spec).gamma2
    if lam <= max(0.0, -g2):
        raise DomainError(f"lam must exceed max(0, -gamma2) = {max(0.0, -g2)}")
    if n_x < 1 or n_theta < 1:
        raise DomainError("resolvent meshes need at least one cell")
    v = grid.centers[:, None]
    # the meshes of all circles stacked, xs (J, 1, n_x + 1), phi (J, K, n_x + 1)
    xs = np.array([np.linspace(0.0, c.length, n_x + 1) for c in spec.circles])[:, None]
    phi = np.array([(lam * x + c.absorption.integral_x(x, v)) / v
                    for x, c in zip(xs, spec.circles)])
    # the history shift is transport at unit speed in sigma = -theta
    sigma = np.array([np.linspace(0.0, c.delay, n_theta + 1) for c in spec.circles])
    flat = (np.diff(xs[:, 0]) <= 0.0).any(axis=1) | (np.diff(sigma) <= 0.0).any(axis=1)
    if flat.any():  # a trapezoid weight of 0 reads log 0 and 0 / 0
        raise DomainError(f"circles[{np.argmax(flat)}]: a resolvent mesh cell of zero width")
    return float(np.minimum(np.min(_column_sums(xs, phi) / v),  # min() drops a nan
                            np.min(_column_sums(sigma, lam * sigma))))


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
    b = network_bounds(spec)
    d0_bound, k_bound = dirichlet_norm_closed_form(spec)
    if not math.isfinite(d0_bound):
        raise DomainError("the Dirichlet-lift bound e^(l_bar gamma_bar / v_min) "
                          "passes float range; no finite ISS gain")
    pd_norm = _gain_factors(spec, grid).pd_norm(0.0)
    if pd_norm >= 1.0:
        raise SmallGainViolation(f"junction operator norm {pd_norm} >= 1")
    lam = max(0.0, -b.gamma2) + 1.0
    c_resolvent = resolvent_constant_c(spec, grid, lam)
    cp = c_check(n_envelope, a_rate, c_resolvent, p)
    gain = k_bound * d0_bound * cp / (1.0 - pd_norm)
    return IssConstants(n_envelope=n_envelope, a_rate=a_rate,
                        c_resolvent=c_resolvent, p=p, c_check_p=cp,
                        gain=gain, pd_norm=pd_norm,
                        c_grid=(RESOLVENT_NODES, RESOLVENT_NODES))

"""Ready-made network specifications: closed-form families, seeded random
generators per bound family, and the fixed regression suite."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .model import (AbsorptionProfile, CircleSpec, DelayMeasure, NetworkSpec,
                    ScatteringKernel, measure_laplace, measure_total_variation)


def constant_kernel(v_min: float, v_max: float, scale: float = 1.0) -> ScatteringKernel:
    """Constant kernel with v-integral = scale (mass-preserving at scale 1)."""
    return ScatteringKernel(kind="constant", value=scale / (v_max - v_min))


def _measure(kind: str, delay: float, theta_rate: float = 2.0) -> DelayMeasure:
    if kind == "dirac":
        return DelayMeasure(kind="dirac", r=delay)
    if kind == "exponential":
        return DelayMeasure(kind="exponential", r=delay, theta_rate=theta_rate)
    if kind == "piecewise":
        return DelayMeasure(kind="piecewise", r=delay,
                            atoms=((-delay, 0.5),),
                            density_edges=(-delay, 0.0),
                            density_values=(0.5 / delay,))
    raise DomainError(f"unknown measure kind {kind!r}")


# ---------------------------------------------------------------------------
# single-circle closed-form family

def single_circle(w: float, *, gamma: float = 0.5, length: float = 1.0,
                  delay: float = 0.5, v_min: float = 1.0, v_max: float = 2.0,
                  measure: str = "dirac", theta_rate: float = 2.0,
                  kernel_scale: float = 1.0) -> NetworkSpec:
    """One circle feeding itself with routing weight w and constant data.

    With a single velocity cell (center v1 = (v_min+v_max)/2) the junction
    gain is exactly w * e^{-gamma*l/v1} * laplace(measure, 0).
    """
    circle = CircleSpec(
        length=length, absorption=AbsorptionProfile(kind="constant", value=gamma),
        scattering=constant_kernel(v_min, v_max, kernel_scale),
        delay_measure=_measure(measure, delay, theta_rate),
    )
    return NetworkSpec(circles=(circle,), routing=np.array([[w]]),
                       v_min=v_min, v_max=v_max,
                       mass_preserving=(kernel_scale == 1.0))


def _one_cell(c: CircleSpec, v_min: float, v_max: float) -> tuple[float, float, float]:
    """(v1, b, q) for circle c on one velocity cell of center v1: the kernel
    factor b = beta(v1, v1) (v_max - v_min) and the survival exponent
    q = Q(l, v1) / v1, Q(x, v) the integral of the absorption over [0, x]."""
    v1 = 0.5 * (v_min + v_max)
    return (v1, float(c.scattering.beta(v1, v1)) * (v_max - v_min),
            float(c.absorption.integral_x(c.length, v1)) / v1)


def single_circle_gain(spec: NetworkSpec) -> float:
    """Closed-form junction gain of the single-circle family at shift 0 on one
    velocity cell: w * b * e^{-q} * laplace(measure, 0), with the kernel
    factor b = beta(v1, v1) (v_max - v_min) and q = Q(l, v1) / v1."""
    if spec.n_circles != 1:
        raise DomainError("closed-form gain applies to single-circle specs")
    c = spec.circles[0]
    _, b, q = _one_cell(c, spec.v_min, spec.v_max)
    w = float(spec.routing[0, 0])
    return w * b * math.exp(-q) * measure_laplace(c.delay_measure, 0.0)


def single_circle_threshold_w(*, gamma: float = 0.5, length: float = 1.0,
                              delay: float = 0.5, v_min: float = 1.0,
                              v_max: float = 2.0, measure: str = "dirac",
                              theta_rate: float = 2.0) -> float:
    """Routing weight at which the single-circle gain equals 1."""
    return 1.0 / single_circle_gain(single_circle(
        1.0, gamma=gamma, length=length, delay=delay, v_min=v_min, v_max=v_max,
        measure=measure, theta_rate=theta_rate))


def single_circle_lambda_star(spec: NetworkSpec) -> float:
    """Closed-form dominant shift for the Dirac single-circle family on one
    velocity cell: the lam solving w * b * e^{-lam*r} * e^{-q - lam*l/v1} = 1,
    with b and q as in single_circle_gain."""
    if spec.n_circles != 1 or spec.circles[0].delay_measure.kind != "dirac":
        raise DomainError("closed-form shift needs one circle with a Dirac delay")
    c = spec.circles[0]
    v1, b, q = _one_cell(c, spec.v_min, spec.v_max)
    wb = float(spec.routing[0, 0]) * b
    if wb <= 0:
        raise DomainError("closed-form shift needs a positive routing weight and kernel")
    return (math.log(wb) - q) / (c.length / v1 + c.delay)


# ---------------------------------------------------------------------------
# seeded random families

def random_spec(seed: int, family: str = "estimate") -> NetworkSpec:
    """Random valid network for one of the closed-form bound families.

    family:
      "estimate"  mass-preserving kernels, mixed measures
      "example1"  Dirac delays, sub-stochastic kernel scales
      "example2"  exponential delay densities, mass-preserving kernels
      "c1"        unrestricted kernels and measures (lift/routing bounds)
    """
    offsets = {"estimate": 0, "example1": 1, "example2": 2, "c1": 3}
    if family not in offsets:
        raise DomainError(f"unknown random spec family {family!r}")
    rng = np.random.default_rng(seed * 7919 + offsets[family])
    j_count = int(rng.integers(1, 4))
    v_min = float(rng.uniform(0.5, 1.5))
    v_max = v_min + float(rng.uniform(0.5, 2.0))
    mass_preserving = family in ("estimate", "example2")

    circles = []
    for _ in range(j_count):
        length = float(rng.uniform(0.5, 2.0))
        delay = float(rng.uniform(0.2, 1.0))
        gamma = float(rng.uniform(-0.3, 0.8))
        if family == "example1":
            m = DelayMeasure(kind="dirac", r=delay)
            kernel = constant_kernel(v_min, v_max, float(rng.uniform(0.1, 1.0)))
        elif family == "example2":
            m = DelayMeasure(kind="exponential", r=delay,
                             theta_rate=float(rng.uniform(0.5, 3.0)))
            kernel = constant_kernel(v_min, v_max)
        else:
            kind = ["dirac", "exponential", "piecewise"][int(rng.integers(0, 3))]
            m = _measure(kind, delay, theta_rate=float(rng.uniform(0.5, 3.0)))
            scale = 1.0 if mass_preserving else float(rng.uniform(0.1, 1.5))
            kernel = constant_kernel(v_min, v_max, scale)
        circles.append(CircleSpec(
            length=length, absorption=AbsorptionProfile(kind="constant", value=gamma),
            scattering=kernel, delay_measure=m))

    routing = rng.uniform(0.0, 1.2, (j_count, j_count))
    return NetworkSpec(circles=tuple(circles), routing=routing,
                       v_min=v_min, v_max=v_max, mass_preserving=mass_preserving)


# ---------------------------------------------------------------------------
# fixed specs

def heterogeneous_five(routing_scale: float = 0.5) -> NetworkSpec:
    """Five dissimilar circles with full routing, scaled to the given level."""
    v_min, v_max = 1.0, 2.0
    data = [
        # length, delay, gamma, measure kind, theta_rate
        (1.0, 0.5, 0.30, "dirac", 0.0),
        (1.4, 0.3, 0.10, "dirac", 0.0),
        (0.8, 0.7, 0.50, "exponential", 2.0),
        (1.2, 0.4, 0.20, "dirac", 0.0),
        (0.6, 0.6, 0.40, "piecewise", 0.0),
    ]
    circles = tuple(
        CircleSpec(length=l, absorption=AbsorptionProfile(kind="constant", value=g),
                   scattering=constant_kernel(v_min, v_max),
                   delay_measure=_measure(kind, r, th))
        for l, r, g, kind, th in data)
    base = np.array([
        [0.10, 0.30, 0.20, 0.15, 0.25],
        [0.25, 0.10, 0.30, 0.20, 0.15],
        [0.20, 0.25, 0.10, 0.30, 0.15],
        [0.30, 0.15, 0.25, 0.10, 0.20],
        [0.15, 0.20, 0.15, 0.25, 0.25],
    ])
    return NetworkSpec(circles=circles, routing=routing_scale * base,
                       v_min=v_min, v_max=v_max, mass_preserving=True)


def conservation_spec() -> NetworkSpec:
    """Two lossless circles, column-stochastic routing, Dirac delays: the
    total mass (circles plus delay lines) is a conserved quantity."""
    v_min, v_max = 1.0, 2.0
    mk = lambda l, r: CircleSpec(
        length=l, absorption=AbsorptionProfile(kind="constant", value=0.0),
        scattering=constant_kernel(v_min, v_max),
        delay_measure=DelayMeasure(kind="dirac", r=r))
    routing = np.array([[0.4, 0.7], [0.6, 0.3]])  # column sums are 1
    return NetworkSpec(circles=(mk(1.0, 0.5), mk(1.5, 0.25)), routing=routing,
                       v_min=v_min, v_max=v_max, mass_preserving=True)


def regression_suite() -> list[tuple[str, NetworkSpec, str]]:
    """Twelve named specs with their intended certificate decisions.

    Gains are placed well away from 1 so velocity averaging cannot flip them.
    """
    def sc(gain, **kw):
        w = gain * single_circle_threshold_w(
            **{k: v for k, v in kw.items() if k != "kernel_scale"})
        return single_circle(w, **kw)

    two = _two_circle(0.35)
    two_hot = _two_circle(1.8)
    suite = [
        ("iss_dirac_low", sc(0.2), "ISS"),
        ("iss_dirac_mid", sc(0.5, gamma=0.3, delay=0.4), "ISS"),
        ("iss_exponential", sc(0.6, measure="exponential", theta_rate=1.5), "ISS"),
        ("iss_piecewise", sc(0.7, measure="piecewise", length=0.8), "ISS"),
        ("iss_two_circle", two, "ISS"),
        ("iss_five_circle", heterogeneous_five(0.4), "ISS"),
        ("hot_dirac_low", sc(1.4), "NOT_ISS"),
        ("hot_dirac_high", sc(2.5, gamma=0.2), "NOT_ISS"),
        ("hot_exponential", sc(1.6, measure="exponential", theta_rate=1.0), "NOT_ISS"),
        ("hot_piecewise", sc(2.0, measure="piecewise", delay=0.6), "NOT_ISS"),
        ("hot_two_circle", two_hot, "NOT_ISS"),
        ("hot_five_circle", heterogeneous_five(2.0), "NOT_ISS"),
    ]
    return suite


def _two_circle(gain: float) -> NetworkSpec:
    v_min, v_max = 1.0, 2.0
    circles = tuple(
        CircleSpec(length=l, absorption=AbsorptionProfile(kind="constant", value=g),
                   scattering=constant_kernel(v_min, v_max),
                   delay_measure=DelayMeasure(kind="dirac", r=r))
        for l, r, g in [(1.0, 0.5, 0.3), (1.3, 0.35, 0.15)])
    # symmetric swap routing; scale each column to the target gain level
    cols = [gain / (b * math.exp(-q))
            for _, b, q in (_one_cell(c, v_min, v_max) for c in circles)]
    routing = np.array([[0.0, cols[1]], [cols[0], 0.0]])
    return NetworkSpec(circles=circles, routing=routing,
                       v_min=v_min, v_max=v_max, mass_preserving=True)

"""Decay fitting, trajectory-wise ISS verification, and threshold sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (DomainError, ExtinctionFlag, SmallGainViolation,
                     ValidationError, _ieee_policy)
from .model import NetworkSpec, network_bounds
from .operators import VelocityGrid
from .simulator import (ZERO, Scenario, Trajectory, _UNIT,
                        _disturbance_samples, _resolved, make_scenario, run)
from .spectral import (Certificate, IssConstants, _json_number, iss_constants,
                       small_gain_certificate)

ENVELOPE_DEFLATION = 0.9
ISS_SLACK = 0.05


# ---------------------------------------------------------------------------
# decay fitting

@dataclass(frozen=True)
class DecayFit:
    """Exponential envelope norm(t) <= N_hat * e^{-a_hat t} * initial norm."""

    n_hat: float
    a_hat: float
    residual: float
    window: tuple[float, float]

    def to_dict(self) -> dict:
        return {"schema_version": 1, "N_hat": self.n_hat, "a_hat": self.a_hat,
                "residual": self.residual, "window": list(self.window)}


@_ieee_policy()
def fit_decay(trajectory: Trajectory) -> DecayFit:
    """Log-linear regression of the total norm on the tail half of the run.

    The envelope factor N_hat is the sup over the whole recorded horizon of
    norm(t) e^{a_hat t} relative to the initial data norm, so the fitted
    envelope bounds every recorded sample, not only the window. A window
    with fewer than two records raises DomainError: no line fits one point.
    A run past the float range fits to inf or nan, under errors._ieee_policy.
    """
    t = trajectory.times
    norm = trajectory.norm_state + trajectory.norm_history
    lo, hi = 0.5 * t[-1], t[-1]
    mask = t >= lo - 1e-12
    if np.count_nonzero(mask) < 2:
        raise DomainError(f"the fit window [{lo}, {hi}] holds fewer than 2 "
                          "records; record more often (smaller stride)")
    if np.any(norm[mask] == 0.0):
        raise ExtinctionFlag(
            "trajectory norm hit exact zero on the fit window (finite exit)")
    slope, intercept = np.polyfit(t[mask], np.log(norm[mask]), 1)
    a_hat = -float(slope)
    resid = float(np.sqrt(np.mean(
        (np.log(norm[mask]) - (slope * t[mask] + intercept)) ** 2)))
    denom = trajectory.initial_data_norm
    if denom > 0.0:
        ratios = norm * np.exp(np.minimum(a_hat * t, 700.0)) / denom
        n_hat = float(np.maximum(1.0, np.max(ratios)))  # keeps a nan ratio
    else:
        n_hat = 1.0
    return DecayFit(n_hat=n_hat, a_hat=a_hat, residual=resid, window=(lo, hi))


# ---------------------------------------------------------------------------
# trajectory-wise ISS verification

@dataclass(frozen=True)
class IssReport:
    certificate: Certificate
    constants: IssConstants
    envelope: DecayFit
    times: np.ndarray
    norms: np.ndarray
    bounds: np.ndarray
    worst_margin: float
    passed: bool
    u_norm: float
    p: float
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "certificate": self.certificate.to_dict(),
            "constants": self.constants.to_dict(),
            "envelope": self.envelope.to_dict(),
            "worst_margin": self.worst_margin,
            "passed": bool(self.passed),
            "u_norm": self.u_norm,
            "p": _json_number(self.p),
            "n_records": int(len(self.times)),
            "metadata": self.metadata,
        }


def disturbance_lp_norm(scenario: Scenario, p: float) -> float:
    """L^p-in-time norm of the scenario's disturbance, with the velocity-space
    l1 factor (v_max - v_min); closed form where the preset allows."""
    u = _resolved(scenario, "disturbance")
    vspan = scenario.spec.v_max - scenario.spec.v_min
    if u["kind"] == "zero":
        return 0.0
    if u["kind"] == "constant":
        val = abs(float(u["value"]))
        if math.isinf(p):
            return val * vspan
        return val * vspan * scenario.t_end ** (1.0 / p)
    if u["kind"] == "pulse":
        val = abs(float(u["value"]))
        t0 = max(float(u["t0"]), 0.0)   # the run starts at t = 0
        t1 = min(float(u["t1"]), scenario.t_end)
        if math.isinf(p):
            return val * vspan if t1 > t0 else 0.0
        return val * vspan * max(t1 - t0, 0.0) ** (1.0 / p)
    if math.isinf(p):                                           # bounded_random
        return float(u["bound"]) * vspan
    samples = _disturbance_samples(scenario)
    return vspan * float(np.sum(np.abs(samples) ** p) * scenario.dt) ** (1.0 / p)


def verify_iss(scenario: Scenario, *others: Scenario,
               p: float = math.inf) -> IssReport | tuple[IssReport, ...]:
    """Run the scenarios and check each one's recorded state norms against
    the certified bound N e^{-a t}(||f|| + ||phi||) + rho ||u||_p.

    Certificate, envelope (N, a) and gain rho do not depend on the input, so
    scenarios that differ from the first only in disturbance share them: one
    unforced companion is stepped in lockstep with all of them, and a tuple
    of reports comes back in argument order, as from `run`. The envelope's
    rate is deflated before use so first-order discretization error cannot
    invalidate it. A certificate that does not say ISS raises
    SmallGainViolation carrying it.
    """
    if not p >= 1:
        raise DomainError(f"p must be in [1, inf], got {p}")
    for other in others:
        for name in ("initial", "history"):
            if _resolved(other, name) != _resolved(scenario, name):
                raise ValidationError(f"batched scenarios must share {name}: "
                                      "one unforced companion serves them all")
    spec, grid = scenario.spec, scenario.grid
    cert = small_gain_certificate(spec, grid)
    if cert.decision != "ISS":
        raise SmallGainViolation(
            f"certificate decision is {cert.decision} (r_gain = {cert.r_gain}); "
            "the ISS estimate does not apply", certificate=cert)

    companion = replace(scenario, disturbance=ZERO)
    if scenario.initial["kind"] == scenario.history["kind"] == "zero":
        # zero unforced data carries no envelope information; probe with
        # unit data instead (the envelope is data-independent by linearity)
        companion = replace(companion, initial=_UNIT, history=_UNIT)
    unforced, *trajectories = run(companion, scenario, *others)
    envelope = fit_decay(unforced)
    if not envelope.a_hat > 0:  # nan included
        raise DomainError(
            f"companion run shows no decay (a_hat = {envelope.a_hat})")
    a_rate = ENVELOPE_DEFLATION * envelope.a_hat
    consts = iss_constants(spec, grid, p, (envelope.n_hat, a_rate))

    reports = []
    for sc, traj in zip((scenario, *others), trajectories):
        u_norm = disturbance_lp_norm(sc, p)
        input_term = 0.0 if u_norm == 0.0 else consts.gain * u_norm
        if not math.isfinite(input_term):
            raise DomainError(f"the input term rho ||u|| = {consts.gain} * {u_norm} "
                              "passes the float range; no finite ISS bound")
        bounds = (envelope.n_hat * np.exp(-a_rate * traj.times)
                  * traj.initial_data_norm + input_term)
        margins = (bounds - traj.norm_state) / np.maximum(bounds, 1e-300)
        worst = float(np.min(margins))
        reports.append(IssReport(
            certificate=cert, constants=consts, envelope=envelope,
            times=traj.times, norms=traj.norm_state, bounds=bounds,
            worst_margin=worst, passed=bool(worst >= -ISS_SLACK),
            u_norm=u_norm, p=p,
            metadata={"t_end": sc.t_end, "dt": sc.dt, "k_velocity": grid.k,
                      "disturbance": dict(sc.disturbance)}))
    return tuple(reports) if others else reports[0]


# ---------------------------------------------------------------------------
# parameter sweeps

_SWEEP_PARAMETERS = ("routing_scale", "beta_scale", "delay_scale")


def scale_spec(spec: NetworkSpec, parameter: str, value: float) -> NetworkSpec:
    """Copy of the spec with one family of coefficients scaled by value."""
    if parameter not in _SWEEP_PARAMETERS:
        raise DomainError(f"unknown sweep parameter {parameter!r}")
    if not (math.isfinite(value) and value >= 0):
        raise DomainError(f"scale value {value} must be finite and >= 0")
    if parameter == "delay_scale" and not (value > 0 and 1.0 / value < math.inf):
        raise DomainError(f"delay_scale {value} must be > 0 with a finite "
                          "reciprocal: delay densities and rates divide by it")
    if parameter == "routing_scale":
        return replace(spec, routing=spec.routing * value)
    if parameter == "beta_scale":
        circles = tuple(replace(c, scattering=c.scattering._scaled(value))
                        for c in spec.circles)
        return replace(spec, circles=circles,
                       mass_preserving=spec.mass_preserving and value == 1.0)
    return replace(spec, circles=tuple(
        replace(c, delay_measure=c.delay_measure._stretched(value)) for c in spec.circles))


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    values: tuple[float, ...]
    r_gains: tuple[float, ...]
    a_hats: tuple[float | None, ...]   # None marks finite extinction
    decisions: tuple[str, ...]
    threshold: float | None
    agreement: bool

    def to_dict(self) -> dict:
        return {"schema_version": 1, "parameter": self.parameter,
                "values": list(self.values), "r_gains": list(self.r_gains),
                "a_hats": [a if a is not None else "extinct" for a in self.a_hats],
                "decisions": list(self.decisions),
                "threshold": self.threshold, "agreement": bool(self.agreement)}

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("value,r_gain,a_hat,decision\n")
            for v, r, a, d in zip(self.values, self.r_gains, self.a_hats,
                                  self.decisions):
                fh.write(f"{v},{r},{'inf' if a is None else a},{d}\n")


def sweep(spec: NetworkSpec, parameter: str, values, *,
          k_velocity: int = 8) -> SweepResult:
    """Certificate plus short unforced run for each scaled spec; locates the
    gain-radius threshold and checks decisions against fitted behavior."""
    values = tuple(float(v) for v in values)
    scaled = [scale_spec(spec, parameter, v) for v in values]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError("sweep values must be strictly increasing")

    r_gains, a_hats, decisions = [], [], []
    for s in scaled:
        g = VelocityGrid.for_spec(s, k_velocity)
        cert = small_gain_certificate(s, g)
        b = network_bounds(s)
        sc = make_scenario(s, g, t_end=8.0 * (b.l_bar / s.v_min + b.r_bar),
                           m_base=32, stride=4, initial=_UNIT, history=_UNIT)
        try:
            fit = fit_decay(run(sc))
            a_hats.append(fit.a_hat)
        except ExtinctionFlag:
            a_hats.append(None)
        r_gains.append(cert.r_gain)
        decisions.append(cert.decision)

    threshold = None
    for i in range(len(values) - 1):
        f0, f1 = r_gains[i] - 1.0, r_gains[i + 1] - 1.0
        if f0 == 0.0:
            threshold = values[i]
            break
        if f0 * f1 < 0.0:
            threshold = values[i] - f0 * (values[i + 1] - values[i]) / (f1 - f0)
            break

    agreement = all((d == "ISS") == (a is None or a > 0.0)
                    for d, a in zip(decisions, a_hats) if d != "INCONCLUSIVE")
    return SweepResult(parameter=parameter, values=values,
                       r_gains=tuple(r_gains), a_hats=tuple(a_hats),
                       decisions=tuple(decisions), threshold=threshold,
                       agreement=agreement)

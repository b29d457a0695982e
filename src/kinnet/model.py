"""Network description: circles, junction routing, delay measures, derived bounds.

The physical model is a star of circles meeting at one junction. Each circle
carries a kinetic density advected toward the junction, with local absorption
q_j(x,v), a velocity-scattering kernel beta_j(v,v') applied at the junction,
a routing matrix w_ij distributing scattered flux to outgoing circles, and a
positive delay measure on [-r_j, 0] weighting the trace history.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError

MASS_PRESERVING_TOL = 1e-6


# ---------------------------------------------------------------------------
# delay measures

@dataclass(frozen=True)
class DelayMeasure:
    """Positive measure on [-r, 0] weighting the junction trace history.

    kind is one of:
      "dirac"        unit mass at theta = -r
      "exponential"  density e^{theta_rate * theta} d(theta) on [-r, 0]
      "piecewise"    atoms [(position, mass), ...] plus a piecewise-constant
                     density given by edges (increasing, within [-r, 0]) and
                     per-cell values
    """

    kind: str
    r: float
    theta_rate: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()
    density_edges: tuple[float, ...] = ()
    density_values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("dirac", "exponential", "piecewise"):
            raise ValidationError(f"unknown delay measure kind {self.kind!r}")
        if self.r <= 0:
            raise ValidationError("delay measure support bound r must be > 0")
        if self.kind == "exponential" and self.theta_rate == 0.0:
            raise ValidationError("exponential delay measure needs theta_rate != 0")
        if self.kind == "piecewise":
            for pos, mass in self.atoms:
                if not mass >= 0:
                    raise ValidationError(f"delay measure atom at {pos} has mass {mass}")
                if not (-self.r <= pos <= 0.0):
                    raise ValidationError(
                        f"delay measure atom at {pos} outside support [-{self.r}, 0]")
                if pos == 0.0 and mass > 0:
                    warnings.warn(
                        "delay measure has an atom at theta=0: instantaneous "
                        "junction loop, resolved by one sweep per step",
                        stacklevel=2)
            edges = self.density_edges
            if len(edges) != 0 and len(edges) != len(self.density_values) + 1:
                raise ValidationError("density_edges must have len(density_values)+1 entries")
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise ValidationError("density_edges must be strictly increasing")
            if edges and (edges[0] < -self.r - 1e-12 or edges[-1] > 1e-12):
                raise ValidationError(
                    f"density support outside [-{self.r}, 0]")
            if not all(v >= 0 for v in self.density_values):
                raise ValidationError("delay measure density values must be >= 0")
        if not _measure_log_laplace(self, 0.0) < np.log(np.finfo(float).max):
            raise ValidationError("delay measure total mass is not finite")


def measure_total_variation(m: DelayMeasure) -> float:
    """Total mass of the positive measure (atoms plus integrated density)."""
    if m.kind == "dirac":
        return 1.0
    if m.kind == "exponential":
        t = m.theta_rate
        # integral of e^{t*theta} over [-r, 0]
        return -math.expm1(-t * m.r) / t
    total = sum(mass for _, mass in m.atoms)
    for (a, b), v in zip(zip(m.density_edges, m.density_edges[1:]), m.density_values):
        total += v * (b - a)
    return total


def _exp_increment(lam: float, a: float, b: float) -> float:
    """Integral of e^{lam*theta} over [a, b], stable near lam = 0."""
    if abs(lam) < 1e-14:
        return b - a
    return (math.exp(lam * b) - math.exp(lam * a)) / lam


def measure_laplace(m: DelayMeasure, lam: float) -> float:
    """Integral of e^{lam*theta} d eta(theta) over [-r, 0]."""
    if m.kind == "dirac":
        return math.exp(-lam * m.r)
    if m.kind == "exponential":
        s = lam + m.theta_rate
        if abs(s) < 1e-14:
            return m.r
        return -math.expm1(-s * m.r) / s
    out = sum(mass * math.exp(lam * pos) for pos, mass in m.atoms)
    for (a, b), v in zip(zip(m.density_edges, m.density_edges[1:]), m.density_values):
        out += v * _exp_increment(lam, a, b)
    return out


def _log_exp_increment(lam: float, a: float, b: float) -> float:
    """log _exp_increment(lam, a, b), finite past float range."""
    if abs(lam) < 1e-14:
        return math.log(b - a)
    peak = b if lam > 0 else a
    return lam * peak + math.log(-math.expm1(-abs(lam) * (b - a)) / abs(lam))


def _measure_log_laplace(m: DelayMeasure, lam: float) -> float:
    """log measure_laplace(m, lam), finite where it leaves float range."""
    if m.kind == "dirac":
        return -lam * m.r
    if m.kind == "exponential":
        return _log_exp_increment(lam + m.theta_rate, -m.r, 0.0)
    terms = [math.log(mass) + lam * pos for pos, mass in m.atoms if mass > 0]
    terms += [math.log(v) + _log_exp_increment(lam, a, b)
              for (a, b), v in zip(zip(m.density_edges, m.density_edges[1:]),
                                   m.density_values) if v > 0]
    return float(np.logaddexp.reduce(terms))  # -inf for no terms


# ---------------------------------------------------------------------------
# coefficients

@dataclass(frozen=True)
class AbsorptionProfile:
    """Absorption/generation coefficient q(x, v), constant or tabulated.

    Tabulated profiles are piecewise constant on their (x, v) grid; values
    between nodes use the containing cell's constant.
    """

    kind: str  # "constant" | "tabulated"
    value: float = 0.0
    x_edges: tuple[float, ...] = ()
    v_edges: tuple[float, ...] = ()
    values: tuple[tuple[float, ...], ...] = ()  # shape (n_x, n_v)

    def q(self, x, v):
        """q(x, v), elementwise over positions and velocities that broadcast."""
        if self.kind == "constant":
            return np.full(np.broadcast_shapes(np.shape(x), np.shape(v)), self.value)[()]
        ix, iv = _cell_index(self.x_edges, x), _cell_index(self.v_edges, v)
        return np.asarray(self.values)[ix, iv]

    def integral_x(self, x, v):
        """Exact integral of q(., v) over [0, x] for the step profile,
        elementwise over positions and velocities that broadcast."""
        shape = np.broadcast_shapes(np.shape(x), np.shape(v))
        if self.kind == "constant":
            return self.value * np.broadcast_to(x, shape)
        x = np.broadcast_to(x, shape)
        column = np.asarray(self.values)[:, _cell_index(self.v_edges, v)]
        total = np.zeros(shape)
        # cell by cell from x = 0, as a scalar loop would add them
        for ix, (a, b) in enumerate(zip(self.x_edges, self.x_edges[1:])):
            total += np.where(a < x, column[ix] * (np.minimum(b, x) - a), 0.0)
        return total[()]

    def min_value(self) -> float:
        if self.kind == "constant":
            return self.value
        return min(min(row) for row in self.values)

    def max_value(self) -> float:
        if self.kind == "constant":
            return self.value
        return max(max(row) for row in self.values)


def _cell_index(edges, x):
    """Index of the cell holding x, elementwise; points outside the edges fall
    in the nearest end cell."""
    i = np.searchsorted(edges, x, side="right") - 1
    return np.minimum(np.maximum(i, 0), len(edges) - 2)


@dataclass(frozen=True)
class ScatteringKernel:
    """Nonnegative kernel beta(v, v') redistributing velocities at the junction.

    Variants: constant value; separable product out(v) * in(v') tabulated on a
    velocity grid; fully tabulated values on a velocity grid. Tabulated kinds
    are piecewise constant on their cells.
    """

    kind: str  # "constant" | "separable" | "tabulated"
    value: float = 0.0
    v_edges: tuple[float, ...] = ()
    out_values: tuple[float, ...] = ()
    in_values: tuple[float, ...] = ()
    values: tuple[tuple[float, ...], ...] = ()  # shape (n_v_out, n_v_in)

    def beta(self, v, v_in):
        """beta(v, v_in), elementwise over velocities that broadcast together."""
        if self.kind == "constant":
            return np.full(np.broadcast_shapes(np.shape(v), np.shape(v_in)), self.value)[()]
        i, i_in = _cell_index(self.v_edges, v), _cell_index(self.v_edges, v_in)
        if self.kind == "separable":
            return np.asarray(self.out_values)[i] * np.asarray(self.in_values)[i_in]
        return np.asarray(self.values)[i, i_in]

    def max_value(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "separable":
            return max(self.out_values) * max(self.in_values)
        return max(max(row) for row in self.values)

    def is_zero(self) -> bool:
        return self.max_value() == 0.0

    def out_integral(self, v_in: float, v_min: float, v_max: float) -> float:
        """Exact integral of beta(., v_in) over [v_min, v_max]."""
        if self.kind == "constant":
            return self.value * (v_max - v_min)
        edges = np.asarray(self.v_edges)
        widths = np.diff(np.clip(edges, v_min, v_max))
        return float(widths @ self.beta(0.5 * (edges[:-1] + edges[1:]), v_in))


# ---------------------------------------------------------------------------
# circles and the network

@dataclass(frozen=True)
class CircleSpec:
    length: float
    delay: float
    absorption: AbsorptionProfile
    scattering: ScatteringKernel
    delay_measure: DelayMeasure

    def __post_init__(self):
        if self.length <= 0:
            raise ValidationError("circle length must be > 0")
        if self.delay <= 0:
            raise ValidationError("circle delay must be > 0")


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Validated, immutable description of the whole network."""

    circles: tuple[CircleSpec, ...]
    routing: np.ndarray  # (J, J), w_ij = weight from incoming j to outgoing i
    v_min: float
    v_max: float
    mass_preserving: bool = False
    gamma1: float | None = None
    gamma2: float | None = None

    def __post_init__(self):
        # a read-only float copy: a later write into the caller's array, or
        # into spec.routing, would change a spec whose engine is already built
        routing = np.array(self.routing, dtype=float)
        routing.setflags(write=False)
        object.__setattr__(self, "routing", routing)

    @property
    def n_circles(self) -> int:
        return len(self.circles)

    def absorption_range(self) -> tuple[float, float]:
        """Declared (gamma1, gamma2) bounds, or the tabulated/closed-form range."""
        lo = min(c.absorption.min_value() for c in self.circles)
        hi = max(c.absorption.max_value() for c in self.circles)
        g1 = self.gamma1 if self.gamma1 is not None else lo
        g2 = self.gamma2 if self.gamma2 is not None else hi
        return g1, g2

    def to_config(self) -> dict:
        """Serialize back to the JSON config schema (round-trips exactly)."""
        circles = []
        for c in self.circles:
            a = c.absorption
            if a.kind == "constant":
                absorption = {"kind": "constant", "value": a.value}
            else:
                absorption = {"kind": "tabulated", "x_edges": list(a.x_edges),
                              "v_edges": list(a.v_edges),
                              "values": [list(r) for r in a.values]}
            s = c.scattering
            if s.kind == "constant":
                scattering = {"kind": "constant", "value": s.value}
            elif s.kind == "separable":
                scattering = {"kind": "separable", "v_edges": list(s.v_edges),
                              "out_values": list(s.out_values),
                              "in_values": list(s.in_values)}
            else:
                scattering = {"kind": "tabulated", "v_edges": list(s.v_edges),
                              "values": [list(r) for r in s.values]}
            m = c.delay_measure
            if m.kind == "dirac":
                measure = {"kind": "dirac"}
            elif m.kind == "exponential":
                measure = {"kind": "exponential", "theta": m.theta_rate}
            else:
                measure = {"kind": "piecewise",
                           "atoms": [list(a_) for a_ in m.atoms],
                           "density_edges": list(m.density_edges),
                           "density_values": list(m.density_values)}
            circles.append({"length": c.length, "delay": c.delay,
                            "absorption": absorption, "scattering": scattering,
                            "delay_measure": measure})
        doc = {
            "velocity": {"v_min": self.v_min, "v_max": self.v_max},
            "circles": circles,
            "routing": [list(map(float, row)) for row in self.routing],
            "flags": {"mass_preserving": self.mass_preserving},
        }
        if self.gamma1 is not None or self.gamma2 is not None:
            doc["absorption_bounds"] = {"gamma1": self.gamma1, "gamma2": self.gamma2}
        return doc


@dataclass(frozen=True)
class NetworkBounds:
    """Scalar sups/infs over the finite circle family, plus the routing norm."""

    l_bar: float
    l_under: float
    r_bar: float
    beta_bar: float
    var_bar: float
    gamma1: float
    gamma2: float
    gamma_bar: float
    routing_norm: float


def routing_norm(routing) -> float:
    """Induced l1 operator norm of the routing matrix: max column sum."""
    m = np.asarray(routing, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("routing must be a square matrix")
    if m.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(m), axis=0)))


def network_bounds(spec: NetworkSpec) -> NetworkBounds:
    g1, g2 = spec.absorption_range()
    return NetworkBounds(
        l_bar=max(c.length for c in spec.circles),
        l_under=min(c.length for c in spec.circles),
        r_bar=max(c.delay for c in spec.circles),
        beta_bar=max(c.scattering.max_value() for c in spec.circles),
        var_bar=max(measure_total_variation(c.delay_measure) for c in spec.circles),
        gamma1=g1,
        gamma2=g2,
        gamma_bar=max(abs(g1), abs(g2)),
        routing_norm=routing_norm(spec.routing),
    )


# ---------------------------------------------------------------------------
# config loading

def _require(doc: dict, key: str, ctx: str):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"missing key {key!r} in {ctx}")
    return doc[key]


def _number(x, ctx: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"expected a number for {ctx}, got {type(x).__name__}")
    try:
        value = float(x)
    except OverflowError:  # a JSON integer beyond float range
        raise ValidationError(f"{ctx} is an integer beyond float range") from None
    if not math.isfinite(value):
        raise ValidationError(f"{ctx} must be finite, got {value}")
    return value


def _typed(x, types, ctx: str):
    if not isinstance(x, types):
        raise SchemaError(f"{ctx} has the wrong type {type(x).__name__}")
    return x


def _numbers(x, ctx: str) -> tuple[float, ...]:
    return tuple(_number(e, ctx) for e in _typed(x, (list, tuple), ctx))


def _edges(x, ctx: str) -> tuple[float, ...]:
    edges = _numbers(x, ctx)
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValidationError(f"{ctx} must hold at least 2 strictly increasing edges")
    return edges


def _table(x, n_rows: int | None, n_cols: int, ctx: str) -> tuple[tuple[float, ...], ...]:
    rows = tuple(_numbers(row, ctx) for row in _typed(x, (list, tuple), ctx))
    if n_rows not in (None, len(rows)) or any(len(row) != n_cols for row in rows):
        raise ValidationError(f"{ctx} must be a {n_rows or 'n'} x {n_cols} table")
    return rows


def _parse_absorption(doc, ctx: str) -> AbsorptionProfile:
    kind = _require(doc, "kind", ctx)
    if kind == "constant":
        return AbsorptionProfile(kind="constant",
                                 value=_number(_require(doc, "value", ctx), f"{ctx}.value"))
    if kind == "tabulated":
        x_edges = _edges(_require(doc, "x_edges", ctx), f"{ctx}.x_edges")
        v_edges = _edges(_require(doc, "v_edges", ctx), f"{ctx}.v_edges")
        return AbsorptionProfile(
            kind="tabulated", x_edges=x_edges, v_edges=v_edges,
            values=_table(_require(doc, "values", ctx), len(x_edges) - 1,
                          len(v_edges) - 1, f"{ctx}.values"))
    raise SchemaError(f"unknown absorption kind {kind!r} in {ctx}")


def _parse_scattering(doc, ctx: str) -> ScatteringKernel:
    kind = _require(doc, "kind", ctx)
    if kind == "constant":
        return ScatteringKernel(kind="constant",
                                value=_number(_require(doc, "value", ctx), f"{ctx}.value"))
    if kind not in ("separable", "tabulated"):
        raise SchemaError(f"unknown scattering kind {kind!r} in {ctx}")
    v_edges = _edges(_require(doc, "v_edges", ctx), f"{ctx}.v_edges")
    n = len(v_edges) - 1
    if kind == "tabulated":
        return ScatteringKernel(
            kind="tabulated", v_edges=v_edges,
            values=_table(_require(doc, "values", ctx), n, n, f"{ctx}.values"))
    out_values = _numbers(_require(doc, "out_values", ctx), f"{ctx}.out_values")
    in_values = _numbers(_require(doc, "in_values", ctx), f"{ctx}.in_values")
    if len(out_values) != n or len(in_values) != n:
        raise ValidationError(f"{ctx}.out_values and .in_values need {n} entries")
    return ScatteringKernel(kind="separable", v_edges=v_edges,
                            out_values=out_values, in_values=in_values)


def _parse_measure(doc, delay: float, ctx: str) -> DelayMeasure:
    kind = _require(doc, "kind", ctx)
    if kind == "dirac":
        return DelayMeasure(kind="dirac", r=delay)
    if kind == "exponential":
        return DelayMeasure(kind="exponential", r=delay,
                            theta_rate=_number(_require(doc, "theta", ctx), f"{ctx}.theta"))
    if kind == "piecewise":
        return DelayMeasure(
            kind="piecewise", r=delay,
            atoms=_table(doc.get("atoms", ()), None, 2, f"{ctx}.atoms"),
            density_edges=_numbers(doc.get("density_edges", ()), f"{ctx}.density_edges"),
            density_values=_numbers(doc.get("density_values", ()),
                                    f"{ctx}.density_values"),
        )
    raise SchemaError(f"unknown delay measure kind {kind!r} in {ctx}")


def load_network(config_document) -> NetworkSpec:
    """Parse and validate a config document (dict, JSON string, or path)."""
    doc = config_document
    if isinstance(doc, Path):
        doc = json.loads(doc.read_text())
    elif isinstance(doc, str):
        if doc.lstrip().startswith("{"):
            doc = json.loads(doc)
        else:
            doc = json.loads(Path(doc).read_text())
    if not isinstance(doc, dict):
        raise SchemaError("config document must be a JSON object")

    vel = _require(doc, "velocity", "config")
    v_min = _number(_require(vel, "v_min", "velocity"), "velocity.v_min")
    v_max = _number(_require(vel, "v_max", "velocity"), "velocity.v_max")
    if not (0 < v_min <= v_max):
        raise ValidationError(f"require 0 < v_min <= v_max, got ({v_min}, {v_max})")

    raw_circles = _require(doc, "circles", "config")
    if not isinstance(raw_circles, list) or len(raw_circles) == 0:
        raise SchemaError("circles must be a non-empty list")
    circles = []
    for j, c in enumerate(raw_circles):
        ctx = f"circles[{j}]"
        length = _number(_require(c, "length", ctx), f"{ctx}.length")
        delay = _number(_require(c, "delay", ctx), f"{ctx}.delay")
        if length <= 0:
            raise ValidationError(f"{ctx}.length must be > 0, got {length}")
        if delay <= 0:
            raise ValidationError(f"{ctx}.delay must be > 0, got {delay}")
        circles.append(CircleSpec(
            length=length, delay=delay,
            absorption=_parse_absorption(_require(c, "absorption", ctx), f"{ctx}.absorption"),
            scattering=_parse_scattering(_require(c, "scattering", ctx), f"{ctx}.scattering"),
            delay_measure=_parse_measure(_require(c, "delay_measure", ctx), delay,
                                         f"{ctx}.delay_measure"),
        ))
    J = len(circles)

    routing_raw = _require(doc, "routing", "config")
    try:
        routing = np.asarray(routing_raw, dtype=float)
    except OverflowError:
        raise ValidationError("routing has an integer beyond float range") from None
    except (TypeError, ValueError) as e:
        raise SchemaError(f"routing must be a matrix of numbers: {e}") from None
    if routing.shape != (J, J):
        raise SchemaError(f"routing must be {J}x{J}, got shape {routing.shape}")
    if not np.all(np.isfinite(routing)):
        raise ValidationError("routing entries must be finite")
    bad = np.argwhere(routing < 0)
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"routing[{i}][{j}] = {routing[i, j]} violates positivity")

    flags = _typed(doc.get("flags", {}), dict, "flags")
    mass_preserving = flags.get("mass_preserving", False)
    if not isinstance(mass_preserving, bool):
        raise SchemaError("flags.mass_preserving must be true or false, "
                          f"got {mass_preserving!r}")

    ab = _typed(doc.get("absorption_bounds", {}), dict, "absorption_bounds")
    gamma1 = None if ab.get("gamma1") is None else _number(ab["gamma1"], "gamma1")
    gamma2 = None if ab.get("gamma2") is None else _number(ab["gamma2"], "gamma2")

    spec = NetworkSpec(circles=tuple(circles), routing=routing,
                       v_min=v_min, v_max=v_max, mass_preserving=mass_preserving,
                       gamma1=gamma1, gamma2=gamma2)
    _validate(spec)
    return spec


def _validate(spec: NetworkSpec):
    for j, c in enumerate(spec.circles):
        if _kernel_has_negative(c.scattering):
            raise ValidationError(f"circles[{j}].scattering has a negative value")
        if spec.gamma1 is not None and c.absorption.min_value() < spec.gamma1 - 1e-12:
            raise ValidationError(
                f"circles[{j}].absorption value {c.absorption.min_value()} "
                f"below declared gamma1 = {spec.gamma1}")
        if spec.gamma2 is not None and c.absorption.max_value() > spec.gamma2 + 1e-12:
            raise ValidationError(
                f"circles[{j}].absorption value {c.absorption.max_value()} "
                f"above declared gamma2 = {spec.gamma2}")
        if spec.mass_preserving:
            _check_mass_preserving(c.scattering, spec.v_min, spec.v_max, j)


def _kernel_has_negative(s: ScatteringKernel) -> bool:
    if s.kind == "constant":
        return s.value < 0
    if s.kind == "separable":
        # mixed signs in a product kernel are rejected outright
        return min(s.out_values) < 0 or min(s.in_values) < 0
    return any(v < 0 for row in s.values for v in row)


def _check_mass_preserving(s: ScatteringKernel, v_min: float, v_max: float, j: int):
    # probe the exact piecewise integral at each incoming cell representative
    if s.kind == "constant":
        probes = [0.5 * (v_min + v_max)]
    else:
        probes = [0.5 * (a + b) for a, b in zip(s.v_edges, s.v_edges[1:])
                  if b > v_min and a < v_max]
    for vp in probes:
        total = s.out_integral(vp, v_min, v_max)
        if abs(total - 1.0) > MASS_PRESERVING_TOL:
            raise ValidationError(
                f"circles[{j}].scattering not mass-preserving: integral over v "
                f"at v'={vp} is {total}, expected 1")

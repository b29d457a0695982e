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
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError, _ieee_policy

MASS_PRESERVING_TOL = 1e-6


# ---------------------------------------------------------------------------
# numbers and tables: the config readers, which name the JSON value in their
# errors, and the shape checks that every constructor runs

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


def _rows(x, ctx: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_numbers(row, ctx) for row in _typed(x, (list, tuple), ctx))


def _cells(edges, name: str) -> int:
    """The number of cells between edges, which must be finite and strictly
    increasing."""
    if len(edges) < 2 or not all(-math.inf < a < b < math.inf
                                 for a, b in zip(edges, edges[1:])):
        raise ValidationError(f"{name} needs at least 2 finite, strictly increasing edges")
    return len(edges) - 1


def _check_table(rows, n_rows: int | None, n_cols: int, name: str):
    if n_rows not in (None, len(rows)) or any(len(row) != n_cols for row in rows):
        raise ValidationError(f"{name} must be a {n_rows or 'n'} x {n_cols} table")


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

    _parts gives every kind one form, read by the Laplace transform, its log,
    the gain factors and the quadrature: atoms (position, mass) plus density
    cells value * e^{rate*theta} on [a, b]. The mass check of __post_init__
    builds it, once per measure. __post_init__ also keeps _log_bound_term,
    |log TV| + max |rate| r, the measure's share of the gain's log bound
    (operators._GainFactors.log_bound).
    """

    kind: str
    r: float
    theta_rate: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()
    density_edges: tuple[float, ...] = ()
    density_values: tuple[float, ...] = ()

    # the fields each kind reads, with their config readers; every kind reads
    # the support bound r, which a config gives as its circle's "delay"
    FIELDS = {"dirac": {},
              "exponential": {"theta_rate": _number},
              "piecewise": {"atoms": _rows, "density_edges": _numbers,
                            "density_values": _numbers}}

    def __post_init__(self):
        _check_kind(self, "delay measure")
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValidationError(
                f"delay measure support bound r must be finite and > 0, got {self.r}")
        if not math.isfinite(self.theta_rate):
            raise ValidationError(f"theta_rate must be finite, got {self.theta_rate}")
        if self.kind == "exponential" and self.theta_rate == 0.0:
            raise ValidationError("exponential delay measure needs theta_rate != 0")
        _check_table(self.atoms, None, 2, "delay measure atoms")
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
                    stacklevel=3)  # past the generated __init__
        edges = self.density_edges
        if edges or self.density_values:
            if len(self.density_values) != _cells(edges, "density_edges"):
                raise ValidationError("density_values need one entry per density cell")
            if edges[0] < -self.r - 1e-12 or edges[-1] > 1e-12:
                raise ValidationError(f"density support outside [-{self.r}, 0]")
        if not all(v >= 0 for v in self.density_values):
            raise ValidationError("delay measure density values must be >= 0")
        if not _log_laplace(self, 0.0) < np.log(np.finfo(float).max):
            raise ValidationError("delay measure total mass is not finite")
        # e^{-|lam| r} <= laplace(lam) / TV <= e^{|lam| r} on [-r, 0], and each
        # density cell's rate moves its log by at most |rate| r
        log_tv = math.log(tv) if (tv := _laplace(self, 0.0)) > 0.0 else -math.inf
        rate = max((abs(rate) for *_, rate in self._parts[1]), default=0.0)
        object.__setattr__(self, "_log_bound_term", abs(log_tv) + rate * self.r)

    @cached_property
    def _parts(self) -> tuple[tuple, tuple]:
        """(atoms, cells), with atoms (position, mass) and cells (a, b, value,
        rate), each cell the density value * e^{rate*theta} on [a, b], clipped
        to the support [-r, 0]."""
        if self.kind == "dirac":
            return ((-self.r, 1.0),), ()
        if self.kind == "exponential":
            return (), ((-self.r, 0.0, 1.0, self.theta_rate),)
        edges = [min(max(e, -self.r), 0.0) for e in self.density_edges]
        return self.atoms, tuple((a, b, value, 0.0) for a, b, value
                                 in zip(edges, edges[1:], self.density_values) if a < b)

    def _stretched(self, factor: float) -> DelayMeasure:
        """The measure on [-factor r, 0]: its support stretches by factor. Atom
        masses are kept and densities divide by the stretch, so Dirac and
        piecewise measures keep their total mass; exponential measures keep
        their decay shape (rate / factor), which scales their mass with the
        horizon."""
        return replace(
            self, r=self.r * factor, theta_rate=self.theta_rate / factor,
            atoms=tuple((pos * factor, mass) for pos, mass in self.atoms),
            density_edges=tuple(e * factor for e in self.density_edges),
            density_values=tuple(v / factor for v in self.density_values))


def measure_total_variation(m: DelayMeasure) -> float:
    """Total mass of the positive measure: its Laplace transform at 0."""
    return measure_laplace(m, 0.0)


def _exp_or_inf(x: float) -> float:
    """e^x, or inf where it passes float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _exp_increment(s: float, a: float, b: float) -> float:
    """Integral of e^{s*theta} over [a, b], stable near s = 0."""
    if abs(s) < 1e-14:
        return b - a
    return math.exp(s * b) * -math.expm1(-s * (b - a)) / s


def measure_laplace(m: DelayMeasure, lam: float) -> float:
    """Integral of e^{lam*theta} d eta(theta) over [-r, 0], inf past float range."""
    return _laplace(m, lam)


def _laplace(m: DelayMeasure, lam: float) -> float:
    """measure_laplace, from the measure's parts (DelayMeasure._parts)."""
    atoms, cells = m._parts
    try:
        out = sum(mass * math.exp(lam * pos) for pos, mass in atoms)
        for a, b, value, rate in cells:
            out += value * _exp_increment(lam + rate, a, b)
    except OverflowError:
        out = math.nan
    # a term past float range raises, or reads inf or nan (times a zero
    # weight): the log form then decides whether the sum itself passes it
    return out if math.isfinite(out) else _exp_or_inf(_log_laplace(m, lam))


def _log_exp_increment(s: float, a: float, b: float) -> float:
    """log _exp_increment(s, a, b), finite past float range."""
    if abs(s) < 1e-14:
        return math.log(b - a)
    peak = b if s > 0 else a
    return s * peak + math.log(-math.expm1(-abs(s) * (b - a)) / abs(s))


def _log_laplace(m: DelayMeasure, lam: float) -> float:
    """log measure_laplace(m, lam), finite where it leaves float range, from
    the measure's parts (DelayMeasure._parts)."""
    atoms, cells = m._parts
    terms = [math.log(mass) + lam * pos for pos, mass in atoms if mass > 0]
    terms += [math.log(value) + _log_exp_increment(lam + rate, a, b)
              for a, b, value, rate in cells if value > 0]
    return float(np.logaddexp.reduce(terms))  # -inf for no terms


# ---------------------------------------------------------------------------
# coefficients

@dataclass(frozen=True)
class AbsorptionProfile:
    """Absorption/generation coefficient q(x, v), constant or tabulated.

    Tabulated profiles are piecewise constant on their (x, v) grid. _table
    gives every kind one form, read by the point values and the integrals
    alike: the end cells reach past the table's edges, so a table that stops
    short of its circle or its velocity range holds its end values beyond it.
    """

    kind: str  # "constant" | "tabulated"
    value: float = 0.0
    x_edges: tuple[float, ...] = ()
    v_edges: tuple[float, ...] = ()
    values: tuple[tuple[float, ...], ...] = ()  # shape (n_x, n_v)

    # the fields each kind reads, with their config readers
    FIELDS = {"constant": {"value": _number},
              "tabulated": {"x_edges": _numbers, "v_edges": _numbers, "values": _rows}}

    def __post_init__(self):
        _check_kind(self, "absorption")
        if self.kind == "tabulated":
            _check_table(self.values, _cells(self.x_edges, "x_edges"),
                         _cells(self.v_edges, "v_edges"), "values")
        if not all(math.isfinite(v) for v in _field_values(self)):
            raise ValidationError("absorption has a non-finite value")

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x_ends, v_cuts, values): the ends of the x cells, the interior v
        edges and the cell values, the end cells reaching to -inf and +inf. A
        constant is the 1 x 1 table with no cuts."""
        if self.kind == "constant":
            return _read_only((-math.inf, math.inf)), _read_only(()), _read_only([[self.value]])
        return (_read_only((-math.inf, *self.x_edges[1:-1], math.inf)),
                _read_only(self.v_edges[1:-1]), _read_only(self.values))

    def q(self, x, v):
        """q(x, v), elementwise over positions and velocities that broadcast."""
        x_ends, v_cuts, values = self._table
        return values[_cell_index(x_ends[1:-1], x), _cell_index(v_cuts, v)]

    def integral_x(self, x, v):
        """Exact integral of q(., v) over [0, x] for the step profile,
        elementwise over positions and velocities that broadcast."""
        x_ends, v_cuts, values = self._table
        ends = x_ends.reshape(-1, *(1,) * np.asarray(x).ndim)  # x clipped to every cell at once
        a, b = ends[:-1], ends[1:]
        lengths = np.minimum(np.maximum(x, a), b) - np.minimum(np.maximum(0.0, a), b)
        total = 0.0
        # cell by cell from x = 0, as a scalar loop would add them
        for value, length in zip(values.take(_cell_index(v_cuts, v), 1), lengths):
            total = total + value * length
        return total[()]

    @cached_property
    def _range(self) -> tuple[float, float]:
        """(min, max) of the table, read once: the network's checks and its
        bounds both ask for them."""
        values = self._table[2]
        return float(values.min()), float(values.max())

    def min_value(self) -> float:
        return self._range[0]

    def max_value(self) -> float:
        return self._range[1]


def _read_only(x) -> np.ndarray:
    a = np.array(x, dtype=float)
    a.setflags(write=False)
    return a


def _cell_index(cuts, x):
    """Index of the cell holding x, elementwise, for the interior edges cuts:
    the end cells reach to -inf and +inf."""
    return cuts.searchsorted(x, side="right")


def _check_kind(obj, what: str):
    """obj's kind is one of its class's FIELDS, and every field that only
    other kinds read keeps its default, walked in field order; fields compare
    as JSON values, so an array compares whole."""
    if obj.kind not in obj.FIELDS:
        raise ValidationError(f"unknown {what} kind {obj.kind!r}")
    read = obj.FIELDS[obj.kind]
    for f in fields(obj):
        value = getattr(obj, f.name)
        if (f.name not in read and f.default is not MISSING and value is not f.default
                and _json(value) != _json(f.default)):
            raise ValidationError(f"{what} kind {obj.kind!r} does not read {f.name}")


def _field_values(coefficient) -> list:
    """Every number in the fields of a coefficient's kind, edges aside."""
    return [v for name in coefficient.FIELDS[coefficient.kind]
            if not name.endswith("_edges")
            for v in np.ravel(getattr(coefficient, name)).tolist()]


@dataclass(frozen=True)
class ScatteringKernel:
    """Nonnegative kernel beta(v, v') redistributing velocities at the junction.

    Variants: constant value; separable product out(v) * in(v') tabulated on a
    velocity grid; fully tabulated values on a velocity grid. Tabulated kinds
    are piecewise constant on their cells. _table gives every kind one form,
    read by the point values and the integrals alike: the end cells reach
    past the grid's edges, so a grid that stops short of [v_min, v_max]
    holds its end values beyond it.
    """

    kind: str  # "constant" | "separable" | "tabulated"
    value: float = 0.0
    v_edges: tuple[float, ...] = ()
    out_values: tuple[float, ...] = ()
    in_values: tuple[float, ...] = ()
    values: tuple[tuple[float, ...], ...] = ()  # shape (n_v_out, n_v_in)

    # the fields each kind reads, with their config readers
    FIELDS = {"constant": {"value": _number},
              "separable": {"v_edges": _numbers, "out_values": _numbers,
                            "in_values": _numbers},
              "tabulated": {"v_edges": _numbers, "values": _rows}}

    def __post_init__(self):
        _check_kind(self, "scattering")
        if self.kind != "constant":
            n = _cells(self.v_edges, "v_edges")
            if self.kind == "tabulated":
                _check_table(self.values, n, n, "values")
            elif len(self.out_values) != n or len(self.in_values) != n:
                raise ValidationError(f"out_values and in_values need {n} entries")
        # mixed signs in a product kernel are rejected outright
        if not all(0 <= v < math.inf for v in _field_values(self)):
            raise ValidationError("scattering has a negative or non-finite value")

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """(cuts, values): the interior velocity edges and the cell values
        [out, in], the end cells reaching to -inf and +inf. A constant is the
        1 x 1 table with no cuts."""
        if self.kind == "constant":
            return _read_only(()), _read_only([[self.value]])
        if self.kind == "separable":
            return (_read_only(self.v_edges[1:-1]),
                    _read_only(np.outer(self.out_values, self.in_values)))
        return _read_only(self.v_edges[1:-1]), _read_only(self.values)

    def beta(self, v, v_in):
        """beta(v, v_in), elementwise over velocities that broadcast together."""
        cuts, values = self._table
        return values[_cell_index(cuts, v), _cell_index(cuts, v_in)]

    @cached_property
    def _max(self) -> float:
        return float(self._table[1].max())

    def max_value(self) -> float:
        return self._max

    def is_zero(self) -> bool:
        return self.max_value() == 0.0

    def out_integral(self, v_in: float, v_min: float, v_max: float) -> float:
        """Exact integral of beta(., v_in) over [v_min, v_max]."""
        cuts, values = self._table
        widths = np.diff(_split(cuts, v_min, v_max))
        # a contiguous column: BLAS sums a strided one in another order
        return float(widths @ np.take(values, _cell_index(cuts, v_in), axis=1))

    def _scaled(self, factor: float) -> ScatteringKernel:
        """The kernel factor * beta; a separable kernel scales its out factor."""
        if self.kind == "separable":
            return replace(self, out_values=tuple(v * factor for v in self.out_values))
        return replace(self, value=self.value * factor,
                       values=tuple(tuple(v * factor for v in row) for row in self.values))


def _split(cuts, lo: float, hi: float) -> list:
    """The edges of the cells that cuts split [lo, hi] into, empty cells kept."""
    return [lo, *(min(max(c, lo), hi) for c in cuts), hi]


# ---------------------------------------------------------------------------
# circles and the network

@dataclass(frozen=True)
class CircleSpec:
    length: float
    absorption: AbsorptionProfile
    scattering: ScatteringKernel
    delay_measure: DelayMeasure

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValidationError(f"circle length must be finite and > 0, got {self.length}")

    @property
    def delay(self) -> float:
        """The circle's delay r: its delay measure lives on [-r, 0]."""
        return self.delay_measure.r


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Validated, immutable description of the whole network. __post_init__
    keeps its NetworkBounds, which network_bounds returns."""

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
        try:
            routing = np.array(self.routing, dtype=float)
        except OverflowError:
            raise ValidationError("routing has an integer beyond float range") from None
        except (TypeError, ValueError) as e:
            raise SchemaError(f"routing must be a matrix of numbers: {e}") from None
        routing.setflags(write=False)
        object.__setattr__(self, "routing", routing)
        _validate(self)
        with _ieee_policy():  # a routing column sum past the float range reads inf
            object.__setattr__(self, "_bounds", _network_bounds(self))

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
        circles = [{"length": c.length, "delay": c.delay,
                    "absorption": _config(c.absorption),
                    "scattering": _config(c.scattering),
                    "delay_measure": _config(c.delay_measure)} for c in self.circles]
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
    return float(np.abs(m).sum(axis=0).max())


def network_bounds(spec: NetworkSpec) -> NetworkBounds:
    """The spec's bounds, built once with the spec."""
    return spec._bounds


def _network_bounds(spec: NetworkSpec) -> NetworkBounds:
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


def _build(cls, ctx: str, **fields):
    """cls(**fields), a ValidationError of its own checks naming the config node."""
    try:
        return cls(**fields)
    except ValidationError as e:
        raise ValidationError(f"{ctx}: {e}") from None


# config keys named otherwise than their fields, and keys a config may leave
# out, their fields keeping their defaults
_KEYS = {"theta_rate": "theta"}
_OPTIONAL = ("atoms", "density_edges", "density_values")


def _parse(cls, circle, key: str, ctx: str, **common):
    """The AbsorptionProfile, ScatteringKernel or DelayMeasure at circle[key]:
    the fields of its kind, plus the fields that every kind reads."""
    doc, ctx = _require(circle, key, ctx), f"{ctx}.{key}"
    kind = _require(doc, "kind", ctx)
    if not isinstance(kind, str) or kind not in cls.FIELDS:
        raise SchemaError(f"unknown kind {kind!r} in {ctx}")
    keys = {_KEYS.get(name, name): (name, read) for name, read in cls.FIELDS[kind].items()}
    unread = [k for k in doc if k != "kind" and k not in keys]
    if unread:
        raise SchemaError(f"kind {kind!r} does not read key {unread[0]!r} in {ctx}")
    return _build(cls, ctx, kind=kind, **common, **{
        name: read(_require(doc, k, ctx), f"{ctx}.{k}")
        for k, (name, read) in keys.items() if k in doc or name not in _OPTIONAL})


def _config(node) -> dict:
    """The config node of an AbsorptionProfile, ScatteringKernel or
    DelayMeasure; a measure's r is its circle's "delay"."""
    return {"kind": node.kind, **{_KEYS.get(name, name): _json(getattr(node, name))
                                  for name in node.FIELDS[node.kind]}}


def _json(x):
    """x with its tuples and arrays as JSON lists."""
    return [_json(e) for e in x] if isinstance(x, (tuple, list, np.ndarray)) else x


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

    raw_circles = _require(doc, "circles", "config")
    if not isinstance(raw_circles, list) or len(raw_circles) == 0:
        raise SchemaError("circles must be a non-empty list")
    circles = []
    for j, c in enumerate(raw_circles):
        ctx = f"circles[{j}]"
        circles.append(_build(
            CircleSpec, ctx, length=_number(_require(c, "length", ctx), f"{ctx}.length"),
            absorption=_parse(AbsorptionProfile, c, "absorption", ctx),
            scattering=_parse(ScatteringKernel, c, "scattering", ctx),
            delay_measure=_parse(DelayMeasure, c, "delay_measure", ctx, r=_number(
                _require(c, "delay", ctx), f"{ctx}.delay"))))
    routing = _rows(_require(doc, "routing", "config"), "routing")

    flags = _typed(doc.get("flags", {}), dict, "flags")
    mass_preserving = flags.get("mass_preserving", False)
    if not isinstance(mass_preserving, bool):
        raise SchemaError("flags.mass_preserving must be true or false, "
                          f"got {mass_preserving!r}")

    ab = _typed(doc.get("absorption_bounds", {}), dict, "absorption_bounds")
    gamma1 = None if ab.get("gamma1") is None else _number(ab["gamma1"], "gamma1")
    gamma2 = None if ab.get("gamma2") is None else _number(ab["gamma2"], "gamma2")

    return NetworkSpec(circles=tuple(circles), routing=routing,
                       v_min=v_min, v_max=v_max, mass_preserving=mass_preserving,
                       gamma1=gamma1, gamma2=gamma2)


def _validate(spec: NetworkSpec):
    """The invariants of a network, however it was built: by load_network,
    directly, by dataclasses.replace or by a preset."""
    J = spec.n_circles
    if J == 0:
        raise ValidationError("a network needs at least one circle")
    if not (0 < spec.v_min <= spec.v_max < math.inf):
        raise ValidationError(
            f"require 0 < v_min <= v_max < inf, got ({spec.v_min}, {spec.v_max})")
    routing = spec.routing
    if routing.shape != (J, J):
        raise SchemaError(f"routing must be {J}x{J}, got shape {routing.shape}")
    if not np.all(np.isfinite(routing)):
        raise ValidationError("routing entries must be finite")
    bad = np.argwhere(routing < 0)
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"routing[{i}][{j}] = {routing[i, j]} violates positivity")
    for name, gamma in (("gamma1", spec.gamma1), ("gamma2", spec.gamma2)):
        if gamma is not None and not math.isfinite(gamma):
            raise ValidationError(f"{name} must be finite, got {gamma}")
    for j, c in enumerate(spec.circles):
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


def _check_mass_preserving(s: ScatteringKernel, v_min: float, v_max: float, j: int):
    # probe the exact piecewise integral once per nonempty incoming cell
    edges = _split(s._table[0], v_min, v_max)
    probes = [0.5 * (a + b) for a, b in zip(edges, edges[1:]) if b > a] or [v_min]
    for vp in probes:
        total = s.out_integral(vp, v_min, v_max)
        if abs(total - 1.0) > MASS_PRESERVING_TOL:
            raise ValidationError(
                f"circles[{j}].scattering not mass-preserving: integral over v "
                f"at v'={vp} is {total}, expected 1")

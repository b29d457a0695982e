"""Time integration of the transport network with delayed junction scattering.

Scheme: semi-Lagrangian characteristics with linear interpolation (CFL-limited
to one cell per step, where it coincides with first-order upwind and preserves
positivity), absorption applied as an arrival-node exponential factor, and the
junction trace history held for the delay reads.

Layout: the densities of all circles sit in one state array with a row per
node, (N, K) with N = sum_j (M_j + 1), and the traces of all circles in one
(S_max, J, K) ring buffer with a single head, so a time step costs the same
few numpy calls whatever the number of circles. Node-major rows keep the
shifted slices of the advection contiguous. Both arrays carry a leading
member axis R: members share the network, grid and clock and differ only in
initial data, history and input, so `run(a, b)` steps them in lockstep, (R,
N, K) and (R, S_max, J, K), with the same numpy calls per step as one run.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .delayquad import delay_quadrature, _accumulate_density
from .errors import CflError, DomainError, ValidationError
from .model import NetworkSpec
from .operators import MAX_ARRAY_VALUES, VelocityGrid, _routed_scattering

ZERO = MappingProxyType({"kind": "zero"})


@dataclass(frozen=True, eq=False)
class Scenario:
    """Full description of one simulation run.

    initial / history / disturbance are presets, stored as read-only
    copies of mappings such as:
      {"kind": "zero"}
      {"kind": "constant", "value": v}
      {"kind": "gaussian_bump", "center": frac, "width": frac, "amplitude": v}
      {"kind": "random_nonneg", "seed": s}            (initial/history only)
      {"kind": "pulse", "value": v, "t0": a, "t1": b} (disturbance only)
      {"kind": "bounded_random", "bound": v, "seed": s} (disturbance only)
    """

    spec: NetworkSpec
    grid: VelocityGrid
    dt: float
    t_end: float
    stride: int = 1
    m_cells: tuple[int, ...] = ()
    initial: Mapping = field(default_factory=lambda: ZERO)
    history: Mapping = field(default_factory=lambda: ZERO)
    disturbance: Mapping = field(default_factory=lambda: ZERO)
    input_outside_sum: bool = False
    # built on first use; frozen fields keep it current, and init=False keeps
    # `replace` from carrying it over
    _engine: "object" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_real("t_end", self.t_end, positive=True)
        _check_real("dt", self.dt, positive=True)
        for name, kinds in (("initial", _FIELD_PRESETS), ("history", _FIELD_PRESETS),
                            ("disturbance", _DISTURBANCE_PRESETS)):
            object.__setattr__(self, name, _checked_preset(name, getattr(self, name), kinds))
        m_cells = (_checked_m_cells(self.spec, self.m_cells)
                   if self.m_cells else default_m_cells(self.spec))
        object.__setattr__(self, "m_cells", m_cells)
        if not isinstance(self.stride, numbers.Integral) or self.stride < 1:
            raise ValidationError(
                f"recording stride must be an integer >= 1, got {self.stride!r}")
        dx_min = min(c.length / m for c, m in zip(self.spec.circles, self.m_cells))
        v_top = float(np.max(self.grid.centers))
        if self.dt > dx_min / v_top * (1.0 + 1e-9):
            raise CflError(
                f"dt = {self.dt} exceeds CFL bound dx_min over the fastest "
                f"grid speed = {dx_min / v_top}")
        # state N x K, ring about (r_max / dt) x J x K, in floats: r_max / dt
        # may be too large to round to an integer
        K, r_max = self.grid.k, max(c.delay for c in self.spec.circles)
        if sum(m + 1 for m in self.m_cells) * K > MAX_ARRAY_VALUES:
            raise ValidationError(f"m_base/m_cells give over {MAX_ARRAY_VALUES} state values")
        if (r_max / self.dt + 2.0) * self.spec.n_circles * K > MAX_ARRAY_VALUES:
            raise ValidationError(f"dt = {self.dt} gives over {MAX_ARRAY_VALUES} ring values")
        # records n_records x J, input samples n_steps + 1
        if not math.isfinite(self.t_end / self.dt):
            raise ValidationError(f"t_end / dt = {self.t_end / self.dt} steps is not finite")
        if self.n_records * self.spec.n_circles > MAX_ARRAY_VALUES:
            raise ValidationError(
                f"t_end / dt / stride gives over {MAX_ARRAY_VALUES} record values")
        forced = self.disturbance.get("kind", "zero") != "zero"
        if forced and self.n_steps + 1 > MAX_ARRAY_VALUES:
            raise ValidationError(
                f"t_end / dt gives over {MAX_ARRAY_VALUES} input samples")

    @property
    def n_steps(self) -> int:
        return max(1, int(math.ceil(self.t_end / self.dt - 1e-9)))

    @property
    def n_records(self) -> int:
        """Records at every stride-th step and at the last step."""
        n = self.n_steps
        return n // self.stride + 1 + (n % self.stride > 0)

    def engine(self) -> "_Engine":
        if self._engine is None:
            object.__setattr__(self, "_engine", _Engine(self))
        return self._engine


def default_m_cells(spec: NetworkSpec, base: int = 64) -> tuple[int, ...]:
    """Cells per circle: base on the shortest circle, the same dx elsewhere."""
    _check_real("m_base", base, positive=True)
    l_under = min(c.length for c in spec.circles)
    cells = [base * c.length / l_under for c in spec.circles]
    if not all(map(math.isfinite, cells)):
        raise ValidationError(f"m_base = {base} overflows the cell counts")
    return tuple(int(math.ceil(m)) for m in cells)


def _check_real(name: str, value, *, positive: bool = False) -> None:
    # a JSON integer can lie beyond float range, where math.isfinite raises
    if isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        raise ValidationError(f"{name} is an integer beyond float range")
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise ValidationError(f"{name} must be finite and > 0, got {value!r}")


# the numeric keys of each preset kind, per preset slot
_FIELD_PRESETS = {"zero": (), "constant": ("value",),
                  "gaussian_bump": ("center", "width", "amplitude"),
                  "random_nonneg": ("seed",)}
_DISTURBANCE_PRESETS = {"zero": (), "constant": ("value",),
                        "pulse": ("value", "t0", "t1"),
                        "bounded_random": ("bound", "seed")}


def _checked_preset(name: str, preset, kinds: dict) -> Mapping:
    """A read-only copy of the preset mapping once its kind is known, it has
    no other keys than its kind reads, and every number it holds is a finite
    real within float range (a seed: an integer >= 0; a bound: >= 0)."""
    if not isinstance(preset, Mapping):
        raise ValidationError(f"{name} must be a preset object, got {preset!r}")
    kind = preset.get("kind", "zero")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(f"unknown {name} preset kind {kind!r}")
    unknown = set(preset) - {"kind", *kinds[kind]}
    if unknown:
        raise ValidationError(f"unknown {name} keys for kind {kind!r}: "
                              f"{sorted(unknown, key=str)}")
    for key, value in preset.items():
        if key == "kind":
            continue
        _check_real(f"{name}.{key}", value)
        if key == "seed" and not (isinstance(value, numbers.Integral) and value >= 0):
            raise ValidationError(f"{name}.seed must be an integer >= 0, got {value!r}")
        if key == "bound" and value < 0:  # the upper end of uniform(0, bound)
            raise ValidationError(f"{name}.bound must be >= 0, got {value!r}")
    return MappingProxyType(dict(preset))


def _checked_m_cells(spec: NetworkSpec, m_cells) -> tuple[int, ...]:
    m_cells = tuple(m_cells)
    if len(m_cells) != len(spec.circles):
        raise ValidationError(f"m_cells has {len(m_cells)} entries for "
                              f"{len(spec.circles)} circles")
    for j, m in enumerate(m_cells):
        if not isinstance(m, numbers.Integral) or m < 1:
            raise ValidationError(
                f"m_cells[{j}] must be an integer >= 1, got {m!r}")
        if m > sys.float_info.max:
            raise ValidationError(f"m_cells[{j}] is an integer beyond float range")
    return m_cells


def make_scenario(spec: NetworkSpec, grid: VelocityGrid | None = None, *,
                  t_end: float, k_velocity: int = 16, dt: float | None = None,
                  stride: int = 1, m_base: int = 64,
                  m_cells: tuple[int, ...] | None = None,
                  initial: Mapping | None = None, history: Mapping | None = None,
                  disturbance: Mapping | None = None,
                  input_outside_sum: bool = False) -> Scenario:
    """Scenario with the default resolution rules filled in."""
    if grid is None:
        grid = VelocityGrid.for_spec(spec, k_velocity)
    m_cells = (default_m_cells(spec, m_base) if m_cells is None
               else _checked_m_cells(spec, m_cells))
    dx_min = min(c.length / m for c, m in zip(spec.circles, m_cells))
    if dt is None:
        dt = 0.9 * dx_min / spec.v_max
    return Scenario(spec=spec, grid=grid, dt=dt, t_end=t_end, stride=stride,
                    m_cells=m_cells,
                    initial=initial or ZERO, history=history or ZERO,
                    disturbance=disturbance or ZERO,
                    input_outside_sum=input_outside_sum)


@dataclass(eq=False)
class SimState:
    """Mutable integration state of R members in lockstep: densities, trace
    ring buffer, clock, and the members' inputs."""

    t: float
    density: np.ndarray          # (R, N, K), rows per circle at engine.edges
    ring: np.ndarray             # (R, S_max, J, K); ring[:, head] is the newest trace
    start_cells: np.ndarray      # flat (member, circle, cell) circle-start indices
    inputs: np.ndarray | None    # (n_steps + 1, R, 1) input samples; None if unforced
    head: int = 0
    step_count: int = 0


@dataclass(eq=False)
class Trajectory:
    """Recorded norms, masses and junction fluxes of a run."""

    times: np.ndarray
    norm_state: np.ndarray
    norm_history: np.ndarray
    total_mass: np.ndarray
    outflux: np.ndarray          # (n_records, J)
    initial_data_norm: float     # ||f|| + ||phi|| at t = 0

    def to_csv(self, path) -> None:
        J = self.outflux.shape[1]
        header = "t,norm_state,norm_history,total_mass," + ",".join(
            f"outflux_{j}" for j in range(J))
        data = np.column_stack([self.times, self.norm_state, self.norm_history,
                                self.total_mass, self.outflux])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def _field_values(preset: Mapping, coords: np.ndarray, span: float, j: int,
                  shape: tuple[int, ...], axis: int) -> np.ndarray:
    kind = preset.get("kind", "zero")
    if kind == "zero":
        return np.zeros(shape)
    if kind == "constant":
        return np.full(shape, float(preset.get("value", 1.0)))
    if kind == "gaussian_bump":
        center = float(preset.get("center", 0.5)) * span
        width = max(float(preset.get("width", 0.1)) * span, 1e-12)
        amp = float(preset.get("amplitude", 1.0))
        dist = np.abs(coords - coords[0])
        prof = amp * np.exp(-((dist - center) / width) ** 2)
        out = np.zeros(shape)
        sl = [None] * len(shape)
        sl[axis] = slice(None)
        return out + prof[tuple(sl)]
    if kind == "random_nonneg":
        rng = np.random.default_rng(int(preset.get("seed", 0)) * 1009 + j)
        return rng.random(shape)
    raise ValidationError(f"unknown field preset kind {kind!r}")


def _disturbance_samples(sc: Scenario) -> np.ndarray | None:
    """u(n dt) for the steps n = 0..n_steps, or None for the zero input."""
    preset = sc.disturbance
    kind = preset.get("kind", "zero")
    if kind == "zero":
        return None
    n = sc.n_steps + 1
    if kind == "constant":
        return np.full(n, float(preset.get("value", 1.0)))
    if kind == "pulse":
        val = float(preset.get("value", 1.0))
        t0 = float(preset.get("t0", 0.0))
        t1 = float(preset.get("t1", sc.t_end))
        t = np.arange(n) * sc.dt
        return np.where((t0 <= t) & (t < t1), val, 0.0)
    if kind == "bounded_random":
        bound = float(preset.get("bound", 1.0))
        rng = np.random.default_rng(int(preset.get("seed", 0)))
        return rng.uniform(0.0, bound, n)
    raise ValidationError(f"unknown disturbance preset kind {kind!r}")


class _Engine:
    """Precomputed update data of a network, all circles fused; the members
    it steps keep their data and inputs in the state.

    The data depend only on spec, grid, dt, m_cells and input_outside_sum.
    Circle j owns the node rows starts[j]..ends[j] of the state array and
    column j of the ring buffer; it leaves the ring rows at offsets >= S_j
    unread, because its delay and history weights are zero there. The
    junction inflow of every member is one matmul with routed_t, the
    transpose of the gain's shift-free factor B. The engine keeps no
    reference to its scenario, so dropping the scenario frees it.
    """

    def __init__(self, sc: Scenario):
        spec, grid = sc.spec, sc.grid
        v, dv, dt = grid.centers, grid.widths, sc.dt
        J, K = spec.n_circles, grid.k
        self.dt = dt
        self.dv = dv
        self.vdv = v * dv
        self.xs = [np.linspace(0.0, c.length, m + 1)
                   for c, m in zip(spec.circles, sc.m_cells)]
        self.edges = tuple(int(e) for e in np.cumsum([0] + [len(x) for x in self.xs]))
        self.starts = np.array(self.edges[:-1])
        self.ends = np.array(self.edges[1:]) - 1
        self.n_hist = [int(math.ceil(c.delay / dt)) + 2 for c in spec.circles]
        s_max = max(self.n_hist)

        n_nodes = self.edges[-1]
        self.xw = np.empty(n_nodes)                 # trapezoid node weights
        # advection coefficients for the destination nodes 1..N-1; a node
        # that starts a circle gets zero and then the junction inflow
        self.c_stay = np.zeros((n_nodes - 1, K))    # (1 - a) * damp
        self.c_move = np.zeros((n_nodes - 1, K))    # a * damp
        hist_w = np.zeros((s_max, J))               # integrate samples over [-r_j, 0]
        pair_rows, pair_circle, pair_w = [], [], []
        for j, c in enumerate(spec.circles):
            a, b = self.edges[j], self.edges[j + 1]
            dx = c.length / sc.m_cells[j]
            self.xw[a:b] = dx
            self.xw[a] = self.xw[b - 1] = 0.5 * dx
            # a_k = v_k dt / dx_j, at most 1 + 1e-9 by the Scenario's CFL check
            courant = np.minimum(v * dt / dx, 1.0)
            damp = np.exp(-c.absorption.q(self.xs[j][:, None], v) * dt)[1:]
            self.c_stay[a:b - 1] = (1.0 - courant) * damp
            self.c_move[a:b - 1] = courant * damp
            s = self.n_hist[j]
            _accumulate_density(hist_w[:s, j], dt, -c.delay, 0.0, "const", 1.0)
            if c.scattering.is_zero():
                continue
            idx, wq = delay_quadrature(c.delay_measure, dt, s)
            pair_rows.extend(idx * J + j)           # flat row of (offset, circle)
            pair_circle.extend([j] * len(idx))
            pair_w.extend(wq)
        self.pair_rows = np.array(pair_rows, dtype=np.intp)
        self.pair_w = np.zeros((J, len(pair_w)))   # (J, n_pairs) delay weights
        self.pair_w[pair_circle, np.arange(len(pair_w))] = pair_w
        self.routed_t = _routed_scattering(spec, grid).T
        # inflow of a unit input, flattened over (circle, velocity cell)
        routing = np.asarray(spec.routing, dtype=float)
        gain = np.ones(J) if sc.input_outside_sum else routing.sum(axis=1)
        self.input_dir = (gain[:, None] / v).ravel()
        # stacked twice, so that the history weights in ring-row order for
        # head h are the slice [S_max - h, 2 S_max - h)
        self.hist_w2 = np.concatenate([hist_w, hist_w])

    # -- state construction -------------------------------------------------
    def init_state(self, members: tuple[Scenario, ...]) -> SimState:
        """State of the members at t = 0, from their presets, with their
        inputs sampled at every step."""
        K, J, dt = len(self.dv), len(self.xs), self.dt
        R, N = len(members), self.edges[-1]
        density = np.empty((R, N, K))
        ring = np.zeros((R, max(self.n_hist), J, K))
        for r, m in enumerate(members):
            for j, xs in enumerate(self.xs):
                density[r, self.edges[j]:self.edges[j + 1]] = _field_values(
                    m.initial, xs, xs[-1], j, (K, len(xs)), axis=1).T
                s = self.n_hist[j]
                thetas = -np.arange(s) * dt
                ring[r, :s, j] = _field_values(m.history, thetas, (s - 1) * dt, j,
                                               (s, K), axis=0)
        samples = [_disturbance_samples(m) for m in members]
        inputs = None
        if any(u is not None for u in samples):
            inputs = np.zeros((members[0].n_steps + 1, R, 1))
            for r, u in enumerate(samples):
                if u is not None:
                    inputs[:, r, 0] = u
        rows = np.arange(R)[:, None] * N + self.starts  # circle-start nodes
        return SimState(t=0.0, density=density, ring=ring,
                        start_cells=(rows[:, :, None] * K + np.arange(K)).ravel(),
                        inputs=inputs)

    # -- one time step ------------------------------------------------------
    def step(self, state: SimState) -> SimState:
        z = state.density
        moved = self.c_move * z[:, :-1]
        z[:, 1:] *= self.c_stay
        z[:, 1:] += moved

        # push new traces, then resolve the junction (one sweep also covers a
        # delay atom at theta = 0, whose sample is the trace just pushed)
        ring = state.ring
        R, s_max, J, K = ring.shape
        state.head = (state.head - 1) % s_max
        ring[:, state.head] = z[:, self.ends]
        samples = np.take(ring.reshape(R, s_max * J, K),
                          self.pair_rows + state.head * J, axis=1, mode="wrap")
        inflow = (self.pair_w @ samples).reshape(R, J * K) @ self.routed_t

        state.step_count += 1
        inputs = state.inputs
        if inputs is not None:
            # past the horizon the input holds its last sample
            inflow += inputs[min(state.step_count, len(inputs) - 1)] * self.input_dir
        np.put(z, state.start_cells, inflow)
        state.t = state.step_count * self.dt
        return state

    # -- diagnostics, one value per member ----------------------------------
    def _over_history(self, state: SimState, ring: np.ndarray,
                      along_v: np.ndarray) -> np.ndarray:
        """sum_j sum_s hist_w[s, j] * (trace of circle j at offset s) . along_v"""
        R, s_max = ring.shape[:2]
        per_row = ring.reshape(R, -1, len(along_v)) @ along_v
        weights = self.hist_w2[s_max - state.head:2 * s_max - state.head]
        return per_row @ weights.ravel()

    def state_norm(self, state: SimState) -> np.ndarray:
        return np.abs(state.density) @ self.dv @ self.xw

    def history_norm(self, state: SimState) -> np.ndarray:
        return self._over_history(state, np.abs(state.ring), self.dv)

    def outflux(self, state: SimState) -> np.ndarray:
        return state.density[:, self.ends] @ self.vdv

    def transit_mass(self, state: SimState) -> np.ndarray:
        return self._over_history(state, state.ring, self.vdv)


# what lockstep members share besides the network and the velocity grid
_SHARED_FIELDS = ("dt", "t_end", "stride", "m_cells", "input_outside_sum")


def _check_members(first: Scenario, others: tuple) -> None:
    for other in others:
        if not (other.spec is first.spec
                or other.spec.to_config() == first.spec.to_config()):
            raise ValidationError("lockstep scenarios must share the network spec")
        if not (other.grid is first.grid
                or np.array_equal(other.grid.edges, first.grid.edges)):
            raise ValidationError("lockstep scenarios must share the velocity grid")
        for name in _SHARED_FIELDS:
            if getattr(other, name) != getattr(first, name):
                raise ValidationError(f"lockstep scenarios must share {name}")


def run(scenario: Scenario, *others: Scenario) -> Trajectory | tuple[Trajectory, ...]:
    """Integrate to t_end, recording norms, mass and fluxes at the stride.

    With further scenarios that differ from the first only in initial,
    history and disturbance, all are stepped in lockstep through one engine
    and a tuple of trajectories comes back in argument order.
    """
    _check_members(scenario, others)
    eng = scenario.engine()
    state = eng.init_state((scenario, *others))
    n_steps, stride = scenario.n_steps, scenario.stride
    R, n_records, J = len(others) + 1, scenario.n_records, scenario.spec.n_circles
    times = np.empty(n_records)
    norm_state, norm_history, mass = np.empty((3, R, n_records))
    outflux = np.empty((R, n_records, J))
    i = 0
    for n in range(n_steps + 1):
        if n > 0:
            eng.step(state)
        if n % stride == 0 or n == n_steps:
            times[i] = state.t
            norm_state[:, i] = eng.state_norm(state)
            norm_history[:, i] = eng.history_norm(state)
            mass[:, i] = eng.transit_mass(state)
            outflux[:, i] = eng.outflux(state)
            i += 1
    mass += norm_state                       # circle mass plus transit mass
    trajectories = tuple(
        Trajectory(times=times, norm_state=norm_state[r],
                   norm_history=norm_history[r], total_mass=mass[r],
                   outflux=outflux[r],
                   initial_data_norm=float(norm_state[r, 0] + norm_history[r, 0]))
        for r in range(R))
    return trajectories if others else trajectories[0]

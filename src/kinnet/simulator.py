"""Time integration of the transport network with delayed junction scattering.

Scheme: semi-Lagrangian characteristics with linear interpolation (CFL-limited
to one cell per step, where it coincides with first-order upwind and preserves
positivity), absorption applied as an arrival-node exponential factor, and
per-circle ring buffers holding the junction trace history for the delay
reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .delayquad import delay_quadrature, _accumulate_density
from .errors import CflError, DomainError, ValidationError
from .model import NetworkSpec
from .operators import VelocityGrid, scattering_table

ZERO = {"kind": "zero"}


@dataclass(eq=False)
class Scenario:
    """Full description of one simulation run.

    initial / history / disturbance are preset dicts:
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
    initial: dict = field(default_factory=lambda: dict(ZERO))
    history: dict = field(default_factory=lambda: dict(ZERO))
    disturbance: dict = field(default_factory=lambda: dict(ZERO))
    input_outside_sum: bool = False
    record_snapshots: bool = False
    _engine: "object" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValidationError(f"t_end must be finite and > 0, got {self.t_end}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be finite and > 0, got {self.dt}")
        if not self.m_cells:
            self.m_cells = default_m_cells(self.spec)
        if self.stride < 1:
            raise ValidationError("recording stride must be >= 1")
        dx_min = min(c.length / m for c, m in zip(self.spec.circles, self.m_cells))
        v_top = float(np.max(self.grid.centers))
        if self.dt > dx_min / v_top * (1.0 + 1e-9):
            raise CflError(
                f"dt = {self.dt} exceeds CFL bound dx_min over the fastest "
                f"grid speed = {dx_min / v_top}")

    @property
    def n_steps(self) -> int:
        return max(1, int(math.ceil(self.t_end / self.dt - 1e-9)))

    def engine(self) -> "_Engine":
        if self._engine is None:
            self._engine = _Engine(self)
        return self._engine


def default_m_cells(spec: NetworkSpec, base: int = 64) -> tuple[int, ...]:
    l_under = min(c.length for c in spec.circles)
    return tuple(int(math.ceil(base * c.length / l_under)) for c in spec.circles)


def make_scenario(spec: NetworkSpec, grid: VelocityGrid | None = None, *,
                  t_end: float, k_velocity: int = 16, dt: float | None = None,
                  stride: int = 1, m_base: int = 64,
                  m_cells: tuple[int, ...] | None = None,
                  initial: dict | None = None, history: dict | None = None,
                  disturbance: dict | None = None,
                  input_outside_sum: bool = False,
                  record_snapshots: bool = False) -> Scenario:
    """Scenario with the default resolution rules filled in."""
    if grid is None:
        grid = VelocityGrid.for_spec(spec, k_velocity)
    if m_cells is None:
        m_cells = default_m_cells(spec, m_base)
    dx_min = min(c.length / m for c, m in zip(spec.circles, m_cells))
    if dt is None:
        dt = 0.9 * dx_min / spec.v_max
    return Scenario(spec=spec, grid=grid, dt=dt, t_end=t_end, stride=stride,
                    m_cells=tuple(m_cells),
                    initial=dict(initial or ZERO), history=dict(history or ZERO),
                    disturbance=dict(disturbance or ZERO),
                    input_outside_sum=input_outside_sum,
                    record_snapshots=record_snapshots)


@dataclass(eq=False)
class SimState:
    """Mutable integration state: densities, trace ring buffers, clock."""

    t: float
    z: list[np.ndarray]          # per circle, shape (K, M_j + 1)
    buffers: list[np.ndarray]    # per circle, shape (S_j, K)
    heads: list[int]             # ring buffer head: buffers[j][head] is newest
    step_count: int = 0

    def copy(self) -> "SimState":
        return SimState(t=self.t, z=[a.copy() for a in self.z],
                        buffers=[b.copy() for b in self.buffers],
                        heads=list(self.heads), step_count=self.step_count)


@dataclass(eq=False)
class Trajectory:
    """Recorded norms, masses and junction fluxes of a run."""

    times: np.ndarray
    norm_state: np.ndarray
    norm_history: np.ndarray
    total_mass: np.ndarray
    outflux: np.ndarray          # (n_records, J)
    initial_data_norm: float     # ||f|| + ||phi|| at t = 0
    snapshots: list | None = None

    def to_csv(self, path) -> None:
        J = self.outflux.shape[1]
        header = "t,norm_state,norm_history,total_mass," + ",".join(
            f"outflux_{j}" for j in range(J))
        data = np.column_stack([self.times, self.norm_state, self.norm_history,
                                self.total_mass, self.outflux])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


class _Engine:
    """Precomputed per-circle update data for one scenario."""

    def __init__(self, sc: Scenario):
        spec, grid = sc.spec, sc.grid
        self.sc = sc
        v = grid.centers
        self.v = v
        self.dv = grid.widths
        self.J = spec.n_circles
        self.K = grid.k

        self.xs = []          # spatial nodes
        self.xw = []          # trapezoid node weights
        self.courant = []     # a_k = v_k dt / dx_j
        self.damp = []        # (K, M+1) arrival-node absorption factors
        self.n_hist = []      # ring buffer depth S_j
        self.delay_idx = []   # quadrature offsets into the buffer
        self.delay_w = []
        self.hist_w = []      # weights integrating samples over [-r_j, 0]
        self.bv = []          # (K, K) beta(v, v') v' dv' or None
        for j, c in enumerate(spec.circles):
            m = sc.m_cells[j]
            dx = c.length / m
            xs = np.linspace(0.0, c.length, m + 1)
            self.xs.append(xs)
            w = np.full(m + 1, dx)
            w[0] = w[-1] = 0.5 * dx
            self.xw.append(w)
            a = v * sc.dt / dx
            if np.any(a > 1.0 + 1e-9):
                raise CflError(f"circle {j}: characteristic foot leaves the cell")
            self.courant.append(np.minimum(a, 1.0))
            q = np.array([[c.absorption.q(x, vk) for x in xs] for vk in v])
            self.damp.append(np.exp(-q * sc.dt))
            s = int(math.ceil(c.delay / sc.dt)) + 2
            self.n_hist.append(s)
            idx, wq = delay_quadrature(c.delay_measure, sc.dt, s)
            self.delay_idx.append(idx)
            self.delay_w.append(wq)
            hw = np.zeros(s)
            _accumulate_density(hw, sc.dt, -c.delay, 0.0, "const", 1.0)
            self.hist_w.append(hw)
            self.bv.append(None if c.scattering.is_zero()
                           else scattering_table(c, grid))
        self.routing = np.asarray(spec.routing, dtype=float)
        self.u_of_step = self._build_disturbance()

    # -- presets ------------------------------------------------------------
    def _field_values(self, preset: dict, coords: np.ndarray, span: float,
                      j: int, shape: tuple[int, ...], axis: int) -> np.ndarray:
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

    def _build_disturbance(self):
        preset = self.sc.disturbance
        kind = preset.get("kind", "zero")
        if kind == "zero":
            return lambda n: 0.0
        if kind == "constant":
            val = float(preset.get("value", 1.0))
            return lambda n: val
        if kind == "pulse":
            val = float(preset.get("value", 1.0))
            t0 = float(preset.get("t0", 0.0))
            t1 = float(preset.get("t1", self.sc.t_end))
            dt = self.sc.dt
            return lambda n: val if t0 <= n * dt < t1 else 0.0
        if kind == "bounded_random":
            bound = float(preset.get("bound", 1.0))
            rng = np.random.default_rng(int(preset.get("seed", 0)))
            vals = rng.uniform(0.0, bound, self.sc.n_steps + 1)
            return lambda n: float(vals[min(n, len(vals) - 1)])
        raise ValidationError(f"unknown disturbance preset kind {kind!r}")

    # -- state construction -------------------------------------------------
    def init_state(self) -> SimState:
        sc = self.sc
        z = []
        buffers = []
        heads = []
        for j, c in enumerate(sc.spec.circles):
            zj = self._field_values(sc.initial, self.xs[j], c.length, j,
                                    (self.K, len(self.xs[j])), axis=1)
            z.append(zj)
            s = self.n_hist[j]
            thetas = -np.arange(s) * sc.dt
            buf = self._field_values(sc.history, thetas, (s - 1) * sc.dt, j,
                                     (s, self.K), axis=0)
            buffers.append(buf)
            heads.append(0)
        return SimState(t=0.0, z=z, buffers=buffers, heads=heads)

    # -- one time step ------------------------------------------------------
    def step(self, state: SimState) -> SimState:
        sc = self.sc
        new_z = []
        for j in range(self.J):
            zj = state.z[j]
            a = self.courant[j][:, None]
            nz = np.empty_like(zj)
            nz[:, 1:] = ((1.0 - a) * zj[:, 1:] + a * zj[:, :-1]) * self.damp[j][:, 1:]
            nz[:, 0] = 0.0
            new_z.append(nz)

        # push new traces, then resolve the junction (one sweep also covers a
        # delay atom at theta = 0, whose sample is the trace just pushed)
        for j in range(self.J):
            state.heads[j] = (state.heads[j] - 1) % self.n_hist[j]
            state.buffers[j][state.heads[j]] = new_z[j][:, -1]

        delayed = np.zeros((self.J, self.K))
        for j in range(self.J):
            if self.bv[j] is None:
                continue
            rows = (state.heads[j] + self.delay_idx[j]) % self.n_hist[j]
            hvec = self.delay_w[j] @ state.buffers[j][rows]
            delayed[j] = (self.bv[j] @ hvec) / self.v

        u_val = self.u_of_step(state.step_count + 1)
        if sc.input_outside_sum:
            inflow = self.routing @ delayed + u_val / self.v[None, :]
        else:
            inflow = self.routing @ (delayed + u_val / self.v[None, :])
        for i in range(self.J):
            new_z[i][:, 0] = inflow[i]

        for j in range(self.J):
            state.z[j] = new_z[j]
        state.step_count += 1
        state.t = state.step_count * sc.dt
        return state

    # -- diagnostics --------------------------------------------------------
    def state_norm(self, state: SimState) -> float:
        return float(sum(
            np.sum(np.abs(state.z[j]) * self.dv[:, None] * self.xw[j][None, :])
            for j in range(self.J)))

    def history_norm(self, state: SimState) -> float:
        total = 0.0
        for j in range(self.J):
            s = self.n_hist[j]
            rows = (state.heads[j] + np.arange(s)) % s
            samples = state.buffers[j][rows]          # offset-ordered, newest first
            per_theta = np.abs(samples) @ self.dv
            total += float(self.hist_w[j] @ per_theta)
        return total

    def outflux(self, state: SimState) -> np.ndarray:
        return np.array([
            float(np.sum(self.v * state.z[j][:, -1] * self.dv))
            for j in range(self.J)])

    def transit_mass(self, state: SimState) -> float:
        total = 0.0
        for j in range(self.J):
            s = self.n_hist[j]
            rows = (state.heads[j] + np.arange(s)) % s
            flux = state.buffers[j][rows] @ (self.v * self.dv)
            total += float(self.hist_w[j] @ flux)
        return total


def init_state(scenario: Scenario) -> SimState:
    return scenario.engine().init_state()


def step(state: SimState, scenario: Scenario) -> SimState:
    return scenario.engine().step(state)


def state_norm(state: SimState, scenario: Scenario) -> float:
    return scenario.engine().state_norm(state)


def history_norm(state: SimState, scenario: Scenario) -> float:
    return scenario.engine().history_norm(state)


def total_mass(state: SimState, scenario: Scenario) -> float:
    """Circle mass plus delay-line transit mass from the trace ledger."""
    eng = scenario.engine()
    return eng.state_norm(state) + eng.transit_mass(state)


def run(scenario: Scenario) -> Trajectory:
    """Integrate to t_end, recording norms, mass and fluxes at the stride."""
    eng = scenario.engine()
    state = eng.init_state()
    times = [0.0]
    norm_state = [eng.state_norm(state)]
    norm_history = [eng.history_norm(state)]
    mass = [total_mass(state, scenario)]
    outflux = [eng.outflux(state)]
    snapshots = [state.copy()] if scenario.record_snapshots else None
    initial_data_norm = norm_state[0] + norm_history[0]

    n_steps = scenario.n_steps
    for n in range(1, n_steps + 1):
        eng.step(state)
        if n % scenario.stride == 0 or n == n_steps:
            times.append(state.t)
            norm_state.append(eng.state_norm(state))
            norm_history.append(eng.history_norm(state))
            mass.append(total_mass(state, scenario))
            outflux.append(eng.outflux(state))
            if snapshots is not None:
                snapshots.append(state.copy())
    return Trajectory(times=np.array(times), norm_state=np.array(norm_state),
                      norm_history=np.array(norm_history),
                      total_mass=np.array(mass), outflux=np.array(outflux),
                      initial_data_norm=initial_data_norm, snapshots=snapshots)

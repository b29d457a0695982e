"""Time integration of the transport network with delayed junction scattering.

Scheme: semi-Lagrangian characteristics with linear interpolation (CFL-limited
to one cell per step, where it coincides with first-order upwind and preserves
positivity), absorption applied as an arrival-node exponential factor, and the
junction trace history held for the delay reads.

Layout: the densities of all circles sit in one state array with a row per
node, (N, K) with N = sum_j (L + M_j + 1): L inflow rows and then the M_j + 1
nodes of each circle. A trace is kept only as its sums, the 2 + m numbers
that the records and the delay reads take of it (see Memory), in one ring
buffer of 2 P rows with a single head that only decreases, (2 + m, 2 P, J):
when a block would start above row 0, its S_max live rows move to the far
end. Both arrays carry a leading member axis R: members share the network,
grid and clock and differ only in initial data, history and input, so
`run(a, b)` steps them in lockstep, (R, N, K) and (R, 2 + m, 2 P, J). The
advection reads the state as one flat vector of all members, row after row,
and moves every value one row down, K values on: member r's last node flows
into the top inflow row of member r + 1, as circle j's last node flows into
the top inflow row of circle j + 1. Nothing there is ever read, since the next
block's lookahead rewrites every inflow row before what it holds reaches a
start node. So a single step costs the same three numpy calls on contiguous
vectors whatever the number of circles and members, and a segment of steps
one einsum (see Segments).

Block: with CFL <= 1 a step moves information at most one node, so an
inflow written on a start node reaches its circle's trace no sooner than
M_j steps later. The junction is resolved once per block of
L = min(min_j M_j, 16) steps (`LOOKAHEAD`), with one matmul for the
traces, into a buffer of the block's L J traces whose sums go to the ring,
and one scatter of the inflows (see `_Engine`). The block's buffers, views
and inputs, padded with L copies of the last sample, live in the state.

Segments: an engine's steps go s = gcd(L, stride) at a time (its span).
Events fall at every block start and every record, so every stretch
between two of them is a multiple of s but a run's last: verify and
simulate (stride 8) take 8-step segments, a sweep (stride 4) 4-step ones,
and a stride that shares no factor with L (1, 3, 5, 11 at L = 16) none.
After s steps each flat value of a member is a banded combination of the
values 0..s rows above it, so a segment of s >= 2 steps is one einsum with
the engine's s-step map (`_Engine.map`) in place of 3 s calls; the rest
of a stretch takes single steps. The map is built where s >= 2 and its
(s + 1) N K float64 values fit under MAX_ARRAY_VALUES; else every step is
single. Per step, on random data, on a 2-vCPU Xeon guest with NumPy 2.4,
single steps and maps of 2, 4, 8 and 16 steps took 27.4, 26.4, 20.2, 17.5
and 15.9 us for `heterogeneous_five(0.4)` at (128, 32) (N K = 36 896,
R = 1), and 4.9, 4.7, 3.3, 2.6 and 2.3 us for `iss_five_circle` at
(32, 8) (N K = 2 824, R = 2): on these states a longer map is never
slower per step, so the span needs no cap below L. The 8-step map of the
former holds 2.53 MiB. A segment leaves each member's first s rows
unwritten: they are circle 0's top inflow rows, which no start node reads
before the next lookahead rewrites them, as above.

Records: a record reads the state and the sums of its history window (see
Memory). `run` copies these snapshots of C records into a chunk buffer and
takes the records of the whole chunk in one contraction, the same calls as
for one record with a leading chunk axis, so that a small run pays the
per-call overhead of a record once per chunk. C is as many snapshots as
128 KiB hold (`_CHUNK_BYTES`), at least one and at most the run's records;
a chunk of one is the live state, copied nowhere. A record's |z| takes no
array of its own: it overwrites the chunk's copies once they are read, and
for a chunk of one it fills the state's spare density buffer, which holds
nothing between steps.

A sign-free state takes no |z|. Every coefficient of the scheme is >= 0,
so a state whose initial node values, history values and inputs have no
sign bit set (-0.0 counts as signed) never gets one, and there z @ dv is
|z| @ dv bit for bit but for the sign of a nan from 0 * inf: the node
product of the mass gives norm_state, and a block's traces are their own
|trace|. `init_state` decides it once for all members (`SimState.sign_free`).

Memory: the arrays that a step or a record streams start on a cache line.
The ring holds |trace| @ dv and trace @ (v dv), which the records read,
and the m moments trace @ omega, which the delay reads take, per row and
circle (see `_Engine`): 2 + m numbers where a ring of the traces held K.
No reader needs more of a trace once its sums are taken, so the state
holds the K values of a block's traces alone, and a rebase moves only
sums.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import _advection
from .delayquad import delay_quadrature, _accumulate_density
from .errors import CflError, DomainError, ValidationError, _ieee_policy
from .model import NetworkSpec
from .operators import MAX_ARRAY_VALUES, VelocityGrid, _junction_moments

# the longest block of steps whose junction inflows are resolved at once
LOOKAHEAD = 16
# the most bytes of record snapshots that `run` holds at once, and of the
# unit pulses that build an engine's trace map
_CHUNK_BYTES = 128 * 1024
_LINE = 64  # bytes in a cache line
ZERO = MappingProxyType({"kind": "zero"})
_UNIT = MappingProxyType({"kind": "constant", "value": 1.0})


@dataclass(frozen=True, eq=False)
class Scenario:
    """Full description of one simulation run.

    initial / history / disturbance are presets: mappings of a "kind"
    (default "zero") and the keys that `_PRESETS` lists for it under the
    slot, stored as read-only copies with the kind written out.
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
    # built on first use; frozen fields keep them current, and init=False
    # keeps `replace` from carrying them over
    _engine: "object" = field(default=None, init=False, repr=False, compare=False)
    _inputs: "object" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_real("t_end", self.t_end, positive=True)
        _check_real("dt", self.dt, positive=True)
        for slot in _PRESETS:
            object.__setattr__(self, slot, _checked_preset(slot, getattr(self, slot)))
        m_cells = (_checked_m_cells(self.spec, self.m_cells)
                   if self.m_cells else default_m_cells(self.spec))
        object.__setattr__(self, "m_cells", m_cells)
        if not isinstance(self.input_outside_sum, bool):
            raise ValidationError(f"input_outside_sum must be true or false, "
                                  f"got {self.input_outside_sum!r}")
        if not _is_int(self.stride) or self.stride < 1:
            raise ValidationError(
                f"recording stride must be an integer >= 1, got {self.stride!r}")
        dx_min = min(c.length / m for c, m in zip(self.spec.circles, self.m_cells))
        v_top = float(np.max(self.grid.centers))
        if self.dt > dx_min / v_top * (1.0 + 1e-9):
            raise CflError(
                f"dt = {self.dt} exceeds CFL bound dx_min over the fastest "
                f"grid speed = {dx_min / v_top}")
        _check_sizes((self,))

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


def _check_sizes(members: tuple[Scenario, ...]) -> None:
    """Raise unless each array of a lockstep run of the members, which share
    the sizes of the first, holds at most MAX_ARRAY_VALUES values; the state
    of R > 1 members counts together with its two advection coefficient
    vectors, which are tiled R times for it."""
    sc, R = members[0], len(members)
    # state R x sum_j (L + M_j + 1) x K, and the ring of the traces' sums
    # R x (2 + m) x 2 P x J, counted at m = K, as the engine allocates them;
    # r_max / dt may be too large to round to an integer, and then the ring
    # is too
    K, J, L = sc.grid.k, sc.spec.n_circles, _block(sc.m_cells)
    r_max = max(c.delay for c in sc.spec.circles)
    state = R * sum(L + m + 1 for m in sc.m_cells) * K
    if (3 if R > 1 else 1) * state > MAX_ARRAY_VALUES:
        raise ValidationError(f"m_base/m_cells give over {MAX_ARRAY_VALUES} "
                              f"state values for {R} member(s)")
    if (not r_max / sc.dt < MAX_ARRAY_VALUES or R * 2 * J * (K + 2) * _ring_period(
            math.ceil(r_max / sc.dt) + 2, L) > MAX_ARRAY_VALUES):
        raise ValidationError(f"dt = {sc.dt} gives over {MAX_ARRAY_VALUES} "
                              f"ring values for {R} member(s)")
    # records R x n_records x J, input samples R x (n_steps + 1 + L), padded
    # for the last block
    if not math.isfinite(sc.t_end / sc.dt):
        raise ValidationError(f"t_end / dt = {sc.t_end / sc.dt} steps is not finite")
    if R * sc.n_records * J > MAX_ARRAY_VALUES:
        raise ValidationError(f"t_end / dt / stride gives over {MAX_ARRAY_VALUES} "
                              f"record values for {R} member(s)")
    forced = any(m.disturbance["kind"] != "zero" for m in members)
    if forced and R * (sc.n_steps + 1 + L) > MAX_ARRAY_VALUES:
        raise ValidationError(f"t_end / dt gives over {MAX_ARRAY_VALUES} "
                              f"input samples for {R} member(s)")


def _aligned(shape) -> np.ndarray:
    """A float64 array of zeros whose data start on a cache line: allocated
    7 values longer and sliced, as malloc aligns only to 16 bytes, and a
    vector load that straddles two lines costs two."""
    n = math.prod(shape)
    buf = np.zeros(n + _LINE // 8 - 1)
    first = -buf.ctypes.data % _LINE // 8
    return buf[first:first + n].reshape(shape)


def _block(m_cells: tuple[int, ...]) -> int:
    """Steps per junction resolution: no inflow reaches a trace sooner."""
    return min(min(m_cells), LOOKAHEAD)


def _ring_period(s_max: int, block: int) -> int:
    """Half the ring's rows, P: at least the S_max history rows of a step
    plus the L - 1 traces written ahead of it, rounded up to a multiple of
    the block. The ring's 2 P >= 2 S_max + 2 L - 2 rows let a rebase move
    the S_max live rows to the far end without overlap, and leave the
    blocks between two rebases at least S_max + L - 1 rows to move into."""
    return block * -(-(s_max + block - 1) // block)


def default_m_cells(spec: NetworkSpec, base: int = 64) -> tuple[int, ...]:
    """Cells per circle: base on the shortest circle, the same dx elsewhere."""
    _check_real("m_base", base, positive=True)
    l_under = min(c.length for c in spec.circles)
    cells = [base * c.length / l_under for c in spec.circles]
    if not all(map(math.isfinite, cells)):
        raise ValidationError(f"m_base = {base} overflows the cell counts")
    return tuple(int(math.ceil(m)) for m in cells)


def _is_int(value) -> bool:
    # a bool is an Integral, but no scenario number is a truth value
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_real(name: str, value, *, positive: bool = False) -> None:
    # a JSON integer can lie beyond float range, where math.isfinite raises
    if isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        raise ValidationError(f"{name} is an integer beyond float range")
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise ValidationError(f"{name} must be finite and > 0, got {value!r}")


# the kinds of each preset slot, and the numeric keys of each kind with their
# defaults; a default of None stands for the run's t_end
_FIELD_KINDS = {"zero": {}, "constant": {"value": 1.0},
                "gaussian_bump": {"center": 0.5, "width": 0.1, "amplitude": 1.0},
                "random_nonneg": {"seed": 0}}
_PRESETS = {"initial": _FIELD_KINDS, "history": _FIELD_KINDS,
            "disturbance": {"zero": {}, "constant": {"value": 1.0},
                            "pulse": {"value": 1.0, "t0": 0.0, "t1": None},
                            "bounded_random": {"bound": 1.0, "seed": 0}}}


def _checked_preset(slot: str, preset) -> Mapping:
    """A read-only copy of the preset mapping with its kind written out,
    once the kind is one of the slot's, the preset has no other keys than its
    kind reads, and every number it holds is a finite real within float
    range (a seed: an integer >= 0; a bound: >= 0, and stored as +0.0 if
    -0.0, which uniform(0, bound) refuses)."""
    if not isinstance(preset, Mapping):
        raise ValidationError(f"{slot} must be a preset object, got {preset!r}")
    kind, kinds = preset.get("kind", "zero"), _PRESETS[slot]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(f"unknown {slot} preset kind {kind!r}")
    unknown = set(preset) - {"kind", *kinds[kind]}
    if unknown:
        raise ValidationError(f"unknown {slot} keys for kind {kind!r}: "
                              f"{sorted(unknown, key=str)}")
    checked = {**preset, "kind": kind}
    for key, value in preset.items():
        if key == "kind":
            continue
        _check_real(f"{slot}.{key}", value)
        if key == "seed" and not (_is_int(value) and value >= 0):
            raise ValidationError(f"{slot}.seed must be an integer >= 0, got {value!r}")
        if key == "bound":  # the upper end of uniform(0, bound)
            if value < 0:
                raise ValidationError(f"{slot}.bound must be >= 0, got {value!r}")
            checked[key] = abs(value)                 # -0.0 as +0.0
    return MappingProxyType(checked)


def _resolved(sc: Scenario, slot: str) -> dict:
    """The scenario's preset in the slot, with every key its kind reads and
    the defaults filled in."""
    preset = getattr(sc, slot)
    return {"kind": preset["kind"], **{
        key: preset.get(key, sc.t_end if default is None else default)
        for key, default in _PRESETS[slot][preset["kind"]].items()}}


def _checked_m_cells(spec: NetworkSpec, m_cells) -> tuple[int, ...]:
    m_cells = tuple(m_cells)
    if len(m_cells) != len(spec.circles):
        raise ValidationError(f"m_cells has {len(m_cells)} entries for "
                              f"{len(spec.circles)} circles")
    for j, m in enumerate(m_cells):
        if not _is_int(m) or m < 1:
            raise ValidationError(
                f"m_cells[{j}] must be an integer >= 1, got {m!r}")
        if m > sys.float_info.max:
            raise ValidationError(f"m_cells[{j}] is an integer beyond float range")
    return m_cells


def make_scenario(spec: NetworkSpec, grid: VelocityGrid | None = None, *,
                  t_end: float, k_velocity: int = 16, dt: float | None = None,
                  stride: int = 1, m_base: int = 64,
                  m_cells: tuple[int, ...] | None = None,
                  initial: Mapping = ZERO, history: Mapping = ZERO,
                  disturbance: Mapping = ZERO,
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
                    m_cells=m_cells, initial=initial, history=history,
                    disturbance=disturbance, input_outside_sum=input_outside_sum)


@dataclass(eq=False)
class SimState:
    """Mutable integration state of R members in lockstep: densities, the
    ring buffer of the traces' sums, clock, and the members' inputs.

    The state holds a second density buffer, `spare`. Where the engine
    holds a map, a segment of steps writes it and then swaps it with
    `density`, so `density` is always the live state but not always the
    same array: look it up again after `advance`."""

    t: float
    density: np.ndarray          # (R, N, K), circle j's nodes at rows engine.nodes[j]
    sums: np.ndarray             # (R, 2 + m, 2 P, J): |trace| @ dv, trace @ (v dv)
                                 # and the m moments trace @ omega of each trace
                                 # and circle (`_Engine._trace_sums`); row head
                                 # holds the newest trace's, head + o those of the
                                 # trace o steps before it
    inputs: np.ndarray | None    # (R, n_steps + 1) input samples; None if unforced
    head: int = 0
    step_count: int = 0
    # set by `init_state`: no member's initial value, history value or
    # input has its sign bit set, and as every coefficient is >= 0 no value
    # ever will (see the module docstring)
    sign_free: bool = field(default=False, init=False, repr=False)
    # set by `_Engine.init_state`: the advection coefficients of
    # density.reshape(-1)[K:], the second density buffer (R, N, K), the
    # flat indices in the density of the last L + 1 nodes of each circle
    # and cell (R, J K, L + 1, 1) and of the inflow rows (R, L, J K), a
    # block's buffers of those nodes, of its traces and then their absolute
    # values (R, L J, K), newest first, of the junction (R, L, J m + 1) and
    # of the inflows (R, L, J K), the inputs padded with L copies of the
    # last sample, of which `inputs` is a view, the block's views of these
    # buffers (`_advection.BlockViews`), and, where the engine holds a map,
    # the two (window, rows) operands of a segment (`_advection.map_views`),
    # one per orientation of the density buffers, indexed by swapped:
    # whether `density` is the buffer that `init_state` made as `spare`.
    # Nothing but the swap of `density` and `spare` replaces these buffers,
    # so no view is built again
    c_stay: np.ndarray = field(init=False, repr=False)
    c_move: np.ndarray = field(init=False, repr=False)
    spare: np.ndarray = field(init=False, repr=False)
    tail_flat: np.ndarray = field(init=False, repr=False)
    inflow_flat: np.ndarray = field(init=False, repr=False)
    tails: np.ndarray = field(init=False, repr=False)
    magnitude: np.ndarray = field(init=False, repr=False)
    junction: np.ndarray = field(init=False, repr=False)
    inflow: np.ndarray = field(init=False, repr=False)
    padded_inputs: np.ndarray | None = field(init=False, repr=False)
    views: _advection.BlockViews = field(init=False, repr=False)
    segments: tuple = field(default=(), init=False, repr=False)
    swapped: bool = field(default=False, init=False, repr=False)

    @property
    def moved(self) -> np.ndarray:
        """The buffer of a single step's moved values, R N K - K of them:
        the flat tail of `spare`."""
        return self.spare.reshape(-1)[self.density.shape[-1]:]


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


def _field_values(preset: dict, coords: np.ndarray, span: float, j: int,
                  shape: tuple[int, ...], axis: int) -> np.ndarray:
    """Values of a resolved initial or history preset on the grid."""
    kind = preset["kind"]
    if kind == "zero":
        return np.zeros(shape)
    if kind == "constant":
        return np.full(shape, float(preset["value"]))
    if kind == "gaussian_bump":
        center = float(preset["center"]) * span
        width = max(float(preset["width"]) * span, 1e-12)
        amp = float(preset["amplitude"])
        dist = np.abs(coords - coords[0])
        prof = amp * np.exp(-((dist - center) / width) ** 2)
        out = np.zeros(shape)
        sl = [None] * len(shape)
        sl[axis] = slice(None)
        return out + prof[tuple(sl)]
    rng = np.random.default_rng(int(preset["seed"]) * 1009 + j)  # random_nonneg
    return rng.random(shape)


def _disturbance_samples(sc: Scenario) -> np.ndarray | None:
    """u(n dt) for the steps n = 0..n_steps, read-only, or None for the zero
    input; drawn once per scenario and shared by every reader."""
    if sc.disturbance["kind"] == "zero":
        return None
    if sc._inputs is None:
        samples = _draw_samples(sc)
        samples.flags.writeable = False
        object.__setattr__(sc, "_inputs", samples)
    return sc._inputs


def _draw_samples(sc: Scenario) -> np.ndarray:
    u = _resolved(sc, "disturbance")
    n = sc.n_steps + 1
    if u["kind"] == "constant":
        return np.full(n, float(u["value"]))
    if u["kind"] == "pulse":
        t = np.arange(n) * sc.dt
        return np.where((float(u["t0"]) <= t) & (t < float(u["t1"])),
                        float(u["value"]), 0.0)
    rng = np.random.default_rng(int(u["seed"]))                # bounded_random
    return rng.uniform(0.0, float(u["bound"]), n)


class _Engine:
    """Precomputed update data of a network, all circles fused; the members
    it steps keep their data and inputs in the state.

    The data depend only on spec, grid, dt, stride, m_cells and
    input_outside_sum. Circle j owns L inflow rows and then its node rows
    `nodes[j]` of the state array, and column j of the ring of sums. Row i
    of `c_stay` and `c_move` (N, K) updates state row i from rows i and
    i - 1. An inflow row
    and a start node have c_stay = 0, c_move = 1 and no trapezoid weight, so
    the inflow written s rows above a start node reaches it s steps later.
    Row 0 follows the same rule, so `advance` runs the advection on the
    flat state of all members, with the coefficients tiled once per member
    (see the module docstring).

    At a step_count n that L divides, `advance` first resolves the junction
    of the steps n + 1..n + L. Their traces are fixed nonnegative
    combinations of the last L + 1 nodes of each circle at step n, since no
    inflow of the block reaches a trace within L <= M_j steps: `trace_coef`
    (J K, L, L + 1) holds an (L, L + 1) matrix per column, circle and cell,
    and one member-batched matmul with the gathered nodes (R, J K, L + 1,
    1) writes the L traces of each member and column into the block's
    trace buffer (R, L J, K), a matrix-vector product each. Their sums go
    to the L ring rows above the head (`_trace_sums`), and the buffer is
    left holding |trace|. The gain's shift-free factor B is a mean omega
    over the m velocity groups on which every kernel is constant, then a
    route U (`operators._junction_moments`), so the lookahead contracts the
    moment rows of the ring that the block's delay reads cover with a
    banded (L, window) weight matrix per circle, routes the result with
    one matmul with U (the inputs ride along as one more column) into a
    buffer (R, L, J K), and writes that into every inflow row at flat
    indices that `init_state` builds. The block's nodes, traces, delayed
    moments and inflows have buffers in the state, and `init_state` builds
    the views of the ring over all its rows, of the trace buffer and of the
    junction with the state (`_advection.BlockViews`), so a block slices
    them and allocates no array.

    The ring has 2 P >= 2 S_max + 2 L - 2 rows (`_ring_period`), and the
    head only decreases: a block writes the L rows above the head. When
    the head is below L, the lookahead first moves the S_max live rows,
    head .. head + S_max - 1, of the ring's sums to the last S_max rows and
    rebases the head there, once every S_max / L blocks or so. Those rows
    hold all that a later delay read (rows up to head + S_max - 2) or
    history window can reach, so a step's history and a block's delay reads
    are contiguous slices and nothing else is ever copied. The history work
    of a record is O(pairs) and that of a block O(L J K). Circle j leaves
    the ring rows at offsets >= S_j unread, because its delay and history
    weights are zero there; the records contract only the (offset, circle)
    pairs of nonzero history weight. The history preset goes into the ring
    as its sums, circle by circle (`init_state`).

    Between two events, a block start and the end of an `advance`, the steps
    go in segments of s = gcd(L, stride) (`span`) while at least s are
    left, and the rest in single steps; where the engine holds no map,
    span = 1 and every step is single. A segment is one einsum of the
    s-step map (`map`) with a strided view of the state, (s + 1, R,
    N K - s K), into the spare buffer. The map is built with the engine,
    from unit coefficients stepped with the step's own arithmetic
    (`_advection`), and broadcast over the members, so a member's values
    do not depend on the others: lockstep members equal their solo runs
    bit for bit. The einsum sums the s + 1 terms of a value in another
    order than s steps do, so the records agree with those of single steps
    within 5e-15 relative on the suite at (32, 8), not bit for bit; where
    every segment is one step they are the same. Against a single-step
    loop in np.longdouble, the records of `conservation_spec` to t = 20
    drift 4.3e-15 at (32, 8) and 1.8e-14 at (128, 32) with the 8-step map
    (stride 8), 3.0e-15 and 6.5e-15 with the 16-step map (stride 16), where
    single steps drift 4.5e-16 and 4.8e-16. A single step keeps the three
    calls: an einsum of two terms, into the spare buffer, costs 1.6 and 1.1
    times as much at R = 2 and N K = 392 and 2 824 (24.1 against 14.8 and
    71.8 against 64.9 us per 8 steps), and as much at R = 1, N K = 36 896
    (339 against 348 us), on a 2-vCPU Xeon guest with NumPy 2.4.

    `_records` takes the records of a chunk of C snapshots, densities and
    history windows (`_window`), in one pass with a matrix-vector product
    per snapshot and member, so that a record does not depend on its chunk;
    `record` is a chunk of one, the live state. On a sign-free state
    (`SimState.sign_free`) `run` takes a chunk's records with the one node
    product z @ dv, and a block's |trace| sums read the traces as they are:
    every coefficient is >= 0, so z and the traces are their own absolute
    values, bit for bit but for the sign of a nan.

    `c_stay` and `c_move`, like every array of the state, start on a
    64-byte cache line (`_aligned`). When 8 divides K so do the views
    `c.ravel()[K:]` and `density.reshape(-1)[K:]`: all six operands of the
    advection start on a line, and no vector load straddles two. The engine keeps no
    reference to its scenario, so dropping the scenario frees it.
    """

    def __init__(self, sc: Scenario):
        spec, grid = sc.spec, sc.grid
        v, dv, dt = grid.centers, grid.widths, sc.dt
        J, K = spec.n_circles, grid.k
        L = self.block = _block(sc.m_cells)
        self.dt = dt
        self.dv = dv
        self.vdv = v * dv
        self.xs = [np.linspace(0.0, c.length, m + 1)
                   for c, m in zip(spec.circles, sc.m_cells)]
        tops = np.cumsum([0] + [L + len(x) for x in self.xs])  # first inflow rows
        self.nodes = tuple(slice(int(a) + L, int(b)) for a, b in zip(tops, tops[1:]))
        self.ends = tops[1:] - 1
        self.n_hist = [int(math.ceil(c.delay / dt)) + 2 for c in spec.circles]
        s_max = self.s_max = max(self.n_hist)
        self.period = _ring_period(s_max, L)

        n_rows = int(tops[-1])
        # the span s: every stretch between two events of a run but the last
        # is a multiple of it; 1 where its map's values pass the cap
        span = math.gcd(L, sc.stride)
        self.span = span if (span + 1) * n_rows * K <= MAX_ARRAY_VALUES else 1
        self.node_rows = np.concatenate([np.arange(n.start, n.stop) for n in self.nodes])
        xw = []                                     # trapezoid node weights
        # an inflow row or a start node copies the row above it
        self.c_stay = _aligned((n_rows, K))         # (1 - a) * damp
        self.c_move = _aligned((n_rows, K))         # a * damp
        self.c_move[:] = 1.0
        hist_w = np.zeros((s_max, J))               # integrate samples over [-r_j, 0]
        circle, offset, weight = [], [], []         # the delay reads
        for j, c in enumerate(spec.circles):
            a, b = self.nodes[j].start, self.nodes[j].stop
            dx = c.length / sc.m_cells[j]
            xw.append(np.full(b - a, dx))
            xw[-1][[0, -1]] = 0.5 * dx
            # a_k = v_k dt / dx_j, at most 1 + 1e-9 by the Scenario's CFL check
            courant = np.minimum(v * dt / dx, 1.0)
            damp = np.exp(-c.absorption.q(self.xs[j][:, None], v) * dt)[1:]
            self.c_stay[a + 1:b] = (1.0 - courant) * damp
            self.c_move[a + 1:b] = courant * damp
            s = self.n_hist[j]
            _accumulate_density(hist_w[:s, j], dt, -c.delay, 0.0, 1.0, 0.0)
            idx, wq = delay_quadrature(c.delay_measure, dt, s)
            circle.append(np.full(len(idx), j))
            offset.append(idx)
            weight.append(wq)
        self.xw = np.concatenate(xw)
        # the span's map of one member, (s + 1, N K - s K)
        self.map = (_advection.advection_map(self.c_stay.ravel()[K:], self.c_move.ravel()[K:],
                                             K, self.span) if self.span > 1 else None)
        # the (offset, circle) pairs of the history window, in ring order,
        # whose weight is nonzero, and their weights: a pair of zero weight
        # would turn an overflowed trace into nan
        self.hist_pairs = np.flatnonzero(hist_w)
        self.hist_w = hist_w.ravel()[self.hist_pairs]

        # the trace of step n + s is sum_i coef[c, L - s, i] * node (end - L +
        # i) at step n, for each column c, circle and cell
        self.tail_rows = np.arange(-L, 1)[:, None] + self.ends     # (L + 1, J)
        self.trace_coef = _advection.trace_map(
            *(c[self.tail_rows[1:]].reshape(L, J * K) for c in (self.c_stay, self.c_move)))

        # the block's reads, from the block's newest ring row h: step n + s
        # reads offset o at row h + L - s + o, a band of the window of rows
        # h + o_lo .. h + o_hi + L - 1 (a circle with a zero kernel reads
        # too, into rows of U that are zero)
        circle, offset, weight = (np.concatenate(x) for x in (circle, offset, weight))
        self.o_lo, o_hi = int(offset.min()), int(offset.max())
        self.delay_w = np.zeros((J, L, o_hi - self.o_lo + L))
        step = np.arange(1, L + 1)[:, None]
        self.delay_w[circle, step - 1, L - step + offset - self.o_lo] = weight
        # B as a mean and a route, whose last row is the inflow of a unit input
        (group, first, share), route = _junction_moments(spec, grid)
        self.omega = (group[:, None] == np.arange(len(first))) * share[:, None]
        gain = np.ones(J) if sc.input_outside_sum else spec.routing.sum(axis=1)
        self.route = np.vstack([route, (gain[:, None] / v).ravel()])
        # inflow row s above circle j's start node takes step n + s
        self.inflow_rows = tops[:-1] + L - np.arange(1, L + 1)[:, None]

    # -- state construction -------------------------------------------------
    def init_state(self, members: tuple[Scenario, ...]) -> SimState:
        """State of the members at t = 0, from their presets, with their
        inputs sampled at every step."""
        K, J, dt, P, L = len(self.dv), len(self.xs), self.dt, self.period, self.block
        R, N = len(members), len(self.c_stay)
        density = _aligned((R, N, K))
        sums = _aligned((R, 2 + self.omega.shape[1], 2 * P, J))
        signed = False
        for r, m in enumerate(members):
            initial, history = _resolved(m, "initial"), _resolved(m, "history")
            for j, xs in enumerate(self.xs):
                density[r, self.nodes[j]] = _field_values(
                    initial, xs, xs[-1], j, (K, len(xs)), axis=1).T
                # the history's sums, circle by circle: row o holds step -o
                s = self.n_hist[j]
                thetas, rows = -np.arange(s) * dt, sums[r, :, :s, j]
                traces = _field_values(history, thetas, (s - 1) * dt, j, (s, K), axis=0)
                signed = signed or np.signbit(traces).any()
                self._trace_sums(traces, rows[0], rows[1], rows[2:].T)
        samples = [_disturbance_samples(m) for m in members]
        padded = inputs = None
        if any(u is not None for u in samples):
            n = members[0].n_steps + 1
            padded = np.zeros((R, n + L))
            for r, u in enumerate(samples):
                if u is not None:
                    padded[r, :n] = u
            # past the horizon the input holds its last sample
            padded[:, n:] = padded[:, n - 1:n]
            inputs = padded[:, :n]
        state = SimState(t=0.0, density=density, sums=sums, inputs=inputs)
        state.padded_inputs = padded
        state.sign_free = not (signed or np.signbit(density).any()
                               or padded is not None and np.signbit(padded).any())
        # flat indices of the tail nodes (R, J K, L + 1, 1) and of the
        # inflows (R, L, J K) in the (R, N, K) density, members included
        member, cells = np.arange(R)[:, None, None] * N * K, np.arange(K)
        state.tail_flat = (member + (self.tail_rows.T[:, None] * K + cells[:, None])
                           .reshape(J * K, L + 1))[..., None]
        state.inflow_flat = member + (self.inflow_rows[:, :, None] * K
                                      + cells).reshape(L, J * K)
        state.tails = np.empty(state.tail_flat.shape)
        state.magnitude = _aligned((R, L * J, K))
        state.junction = np.zeros((R, L, self.route.shape[0]))  # last column: the inputs
        state.inflow = np.empty((R, L, J * K))
        state.views = _advection.BlockViews.of(state, L)
        # one member reads the engine's coefficients; more read them tiled
        stay, move = self.c_stay, self.c_move
        if R > 1:
            stay, move = _aligned((R, N, K)), _aligned((R, N, K))
            stay[:], move[:] = self.c_stay, self.c_move
        state.c_stay, state.c_move = stay.ravel()[K:], move.ravel()[K:]
        state.spare = spare = _aligned((R, N, K))
        if self.span > 1:
            state.segments = (_advection.map_views(density, spare, self.span),
                              _advection.map_views(spare, density, self.span))
        return state

    # -- time stepping ------------------------------------------------------
    def _lookahead(self, state: SimState) -> None:
        """Resolve the junction of the steps n + 1..n + L, n = step_count:
        their traces into the block's buffer and their sums into the ring,
        and their inflows into the inflow rows; first rebase the ring if the
        block would start above row 0."""
        z, sums, L, v = state.density, state.sums, self.block, state.views
        rows, J = sums.shape[2:]
        # every product writes a buffer of the state or a view of one
        if state.head < L:                          # the live rows to the far end
            live, top = slice(state.head, state.head + self.s_max), rows - self.s_max
            # member by member and sum by sum: over all members the source
            # and target rows interleave, and numpy would copy the source
            for part in sums.reshape(-1, rows, J):
                part[top:] = part[live]
            state.head = top
        h = state.head - L                          # row of the trace of step n + L
        # the indices are in range: mode "clip" only spares take a buffer
        np.take(z, state.tail_flat, out=state.tails, mode="clip")
        np.matmul(self.trace_coef, state.tails, out=v.columns)
        block = slice(h * J, (h + L) * J)
        self._trace_sums(state.magnitude, v.absolute[:, block], v.velocity[:, block],
                         v.cells[:, block], state.sign_free)
        window = v.moments[:, :, h + self.o_lo:h + self.o_lo + self.delay_w.shape[2]]
        np.matmul(self.delay_w, window, out=v.delayed)
        if state.inputs is not None:
            n = state.step_count + 1
            np.copyto(v.inputs, state.padded_inputs[:, n:n + L])
        np.matmul(state.junction, self.route, out=state.inflow)
        z.reshape(-1)[state.inflow_flat] = state.inflow

    def advance(self, state: SimState, n: int) -> SimState:
        """Take n steps, after the block's lookahead where L divides the step
        count: the steps up to each block start or the end in segments of
        the span s while at least s are left, and the rest in single steps.
        A segment of s >= 2 steps is one einsum into the spare buffer, which
        then swaps with `density`; a single step is the upwind advection of
        the flat state of all members, three calls on contiguous vectors
        (see `_Engine`)."""
        L, s = self.block, self.span
        end = state.step_count + n
        while state.step_count < end:
            count = state.step_count
            if count % L == 0:
                self._lookahead(state)                  # may rebase the head
            stretch = left = min(end, count - count % L + L) - count
            while left >= s > 1:                        # a segment of s steps
                window, rows = state.segments[state.swapped]
                np.einsum("dp,drp->rp", self.map, window, out=rows)
                state.density, state.spare = state.spare, state.density
                state.swapped = not state.swapped
                left -= s
            if left:
                _advection.steps(state.c_stay, state.c_move, state.density,
                                 state.moved, left)
            state.head -= stretch
            state.step_count += stretch
        state.t = state.step_count * self.dt
        return state

    # -- records, one value per member ---------------------------------------
    def record(self, state: SimState) -> tuple[np.ndarray, ...]:
        """norm_state, norm_history, the signed mass (on the circles plus in
        transit in the delay lines) and the outflux per circle, per member:
        the records of a chunk of one, the live state. The general reader:
        it takes |z| whatever the state's signs."""
        return tuple(x[0] for x in self._records(state.density[None],
                                                 self._window(state)[None]))

    def _window(self, state: SimState) -> np.ndarray:
        """The sums (R, 2, S_max, J) of the S_max ring rows of the step,
        newest first: the history that a record reads. The rows written
        ahead for the rest of the block lie outside it."""
        return state.sums[:, :2, state.head:state.head + self.s_max]

    def _records(self, z: np.ndarray, window: np.ndarray,
                 magnitude: np.ndarray | None = None,
                 sign_free: bool = False) -> tuple[np.ndarray, ...]:
        """The records (C, R), and the outflux (C, R, J), of a chunk of C
        snapshots of R members: densities z (C, R, N, K) and history
        windows (C, R, 2, S_max, J). |z| is written into magnitude, an
        array of z's shape that may be z itself, if given; else into a new
        one. Sign-free snapshots take no |z|: norm_state reads the node
        sums z @ dv of the mass, with the same product.

        The sums over nodes take the node rows only, so an inflow that
        overflows counts once it reaches its node. The history is read from
        the window's sums, one take of the pairs of nonzero weight and one
        contraction per snapshot and member. The outflux is read from the
        end nodes: the newest ring row is not the same thing, as at t = 0 it
        holds the history preset, not the initial data at the end node."""
        C, R, N, _ = z.shape
        node_sums = np.empty((C, R, 1 if sign_free else 2, N))
        np.matmul(z, self.dv, out=node_sums[:, :, -1])
        outflux = z.take(self.ends, axis=2) @ self.vdv
        if not sign_free:
            np.matmul(np.abs(z, out=magnitude), self.dv, out=node_sums[:, :, 0])
        norm_state, node_mass = _weighted(node_sums, self.node_rows, self.xw)
        norm_history, hist_mass = _weighted(window.reshape(C, R, 2, -1),
                                            self.hist_pairs, self.hist_w)
        return norm_state, norm_history, node_mass + hist_mass, outflux

    def _trace_sums(self, traces: np.ndarray, absolute: np.ndarray,
                    velocity: np.ndarray, cells: np.ndarray,
                    sign_free: bool = False) -> None:
        """trace @ (v dv), the m moments trace @ omega and |trace| @ dv of
        the contiguous traces (..., n, K) into velocity and absolute (...,
        n) and cells (..., n, m), views of the sums; then the traces hold
        their absolute values, as sign-free traces already do. A product
        per member each: one gemm would round the velocity sums apart from
        a matrix-vector product."""
        np.matmul(traces, self.vdv, out=velocity)
        np.matmul(traces, self.omega, out=cells)
        if not sign_free:
            np.abs(traces, out=traces)
        np.matmul(traces, self.dv, out=absolute)


def _weighted(sums: np.ndarray, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per snapshot and member, weights @ sums[..., 0, rows] and weights @
    sums[..., -1, rows] of the sums (C, R, 2, n), or (C, R, 1, n) whose one
    row gives both, as a pair of (C, R).

    The rows are taken C ordered, and each member's sums are contracted on
    their own, as for a single member: one matrix-vector product over
    several members sums in an order that depends on their number, and a
    member's records would then depend on the others."""
    pair = sums.take(rows, axis=-1)[..., None, :] @ weights     # (C, R, 2, 1)
    return pair[..., 0, 0], pair[..., -1, 0]


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
    _check_sizes((first, *others))


@_ieee_policy()
def run(scenario: Scenario, *others: Scenario) -> Trajectory | tuple[Trajectory, ...]:
    """Integrate to t_end, recording norms, mass and fluxes at the stride.

    The steps between two records are one `advance`, and the records are
    taken a chunk at a time (see the module docstring), equal bit for bit
    to those of `record` after each stride.

    A run whose values pass the float range, as an unstable network's do,
    is a result and not an error: its records read inf or nan from then
    on, under the package's floating-point policy (errors._ieee_policy).

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
    # the snapshots of up to C records, densities and history windows: as
    # many as _CHUNK_BYTES hold, at least one
    shapes = (state.density.shape, (R, 2, eng.s_max, J))
    C = max(1, min(n_records, _CHUNK_BYTES // (8 * sum(map(math.prod, shapes)))))
    if C > 1:
        chunk = [_aligned((C, *shape)) for shape in shapes]
        slots = list(zip(*chunk))
    for i in range(n_records):
        eng.advance(state, min(i * stride, n_steps) - state.step_count)
        times[i] = state.t
        c = i % C
        if C > 1:
            np.copyto(slots[c][0], state.density)
            np.copyto(slots[c][1], eng._window(state))
        if c == C - 1 or i == n_records - 1:
            # |z|, if signed, overwrites the chunk's densities, or fills the
            # spare buffer that the next steps overwrite
            snapshot = ([held[:c + 1] for held in chunk] if C > 1
                        else (state.density[None], eng._window(state)[None]))
            magnitude = snapshot[0] if C > 1 else state.spare[None]
            ns, nh, m, of = eng._records(*snapshot, magnitude, state.sign_free)
            rows = slice(i - c, i + 1)
            norm_state[:, rows], norm_history[:, rows], mass[:, rows] = ns.T, nh.T, m.T
            outflux[:, rows] = of.swapaxes(0, 1)
    trajectories = tuple(
        Trajectory(times=times, norm_state=norm_state[r],
                   norm_history=norm_history[r], total_mass=mass[r],
                   outflux=outflux[r],
                   initial_data_norm=float(norm_state[r, 0] + norm_history[r, 0]))
        for r in range(R))
    return trajectories if others else trajectories[0]

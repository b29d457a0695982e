import gc
import math
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import kinnet.simulator
from kinnet import (AbsorptionProfile, CflError, DelayMeasure, Scenario, ValidationError,
                    VelocityGrid, make_scenario, network_bounds, run, verify_iss)
from kinnet.delayquad import _accumulate_density, delay_quadrature
from kinnet.operators import MAX_ARRAY_VALUES, _gain_factors
from kinnet.simulator import _disturbance_samples, default_m_cells
from kinnet.presets import (constant_kernel, conservation_spec,
                            heterogeneous_five, regression_suite, single_circle)

from conftest import constant_scenario, moment_specs


def _k1_scenario(spec, t_end, m=64, **kw):
    """Single velocity cell with the time step matched to the cell speed, so
    advection is an exact shift."""
    g = VelocityGrid.for_spec(spec, 1)
    v1 = float(g.centers[0])
    l = spec.circles[0].length
    dx = l / m
    return make_scenario(spec, g, t_end=t_end, dt=dx / v1, m_cells=(m,), **kw)


def _circles(eng, nodes):
    """Per circle, the (K, M_j + 1) view of its nodes in one member's node
    rows, (sum_j (M_j + 1), K)."""
    sizes = [rows.stop - rows.start for rows in eng.nodes]
    return [zj.T for zj in np.split(nodes, np.cumsum(sizes)[:-1])]


def _history_traces(eng, members):
    """The members' history presets as the traces of steps 0, -1, ...,
    (R, S_max, J, K): circle j's rows from its n_hist[j] on are zero."""
    K = len(eng.dv)
    traces = np.zeros((len(members), eng.s_max, len(eng.xs), K))
    for r, m in enumerate(members):
        history = kinnet.simulator._resolved(m, "history")
        for j, s in enumerate(eng.n_hist):
            traces[r, :s, j] = kinnet.simulator._field_values(
                history, -np.arange(s) * eng.dt, (s - 1) * eng.dt, j, (s, K), axis=0)
    return traces


def _block_traces(eng, state):
    """The signed traces of the block that the last lookahead resolved, (R,
    L, J, K) newest first: the engine's trace map times the block's gathered
    nodes, into a buffer laid out as the state's |trace| buffer, whose
    values they equal bit for bit once taken absolute."""
    R, L = len(state.density), eng.block
    traces = np.empty_like(state.magnitude)
    np.matmul(eng.trace_coef, state.tails,
              out=traces.reshape(R, L, -1).transpose(0, 2, 1)[..., None])
    assert np.array_equal(np.abs(traces), state.magnitude)
    return traces.reshape(R, L, len(eng.xs), len(eng.dv))


class _TraceRing:
    """The K-wide ring (R, 2 P, J, K) of the traces whose sums alone the
    engine keeps, on the engine's head: the history presets at t = 0, each
    block's traces written after its lookahead (`_block_traces`), and the
    live rows moved to the far end where the lookahead rebases the sums.
    It wraps the engine's `_lookahead` and stands in for it on the engine."""

    def __init__(self, eng, members, monkeypatch):
        self.eng = eng
        self.ring = np.zeros((len(members), 2 * eng.period, len(eng.xs), len(eng.dv)))
        self.ring[:, :eng.s_max] = _history_traces(eng, members)
        self.wrapped = eng._lookahead
        monkeypatch.setattr(eng, "_lookahead", self.lookahead)

    def lookahead(self, state):
        S, L, head = self.eng.s_max, self.eng.block, state.head
        self.wrapped(state)
        if state.head != head:                 # rebased
            self.ring[:, state.head:state.head + S] = self.ring[:, head:head + S]
        h = state.head - L
        self.ring[:, h:h + L] = _block_traces(self.eng, state)


# ---------------------------------------------------------------------------
# construction

def test_zero_scenario_stays_zero(sc_spec, grid8):
    sc = make_scenario(sc_spec, grid8, t_end=1.0)
    traj = run(sc)
    assert np.all(traj.norm_state == 0.0)
    assert np.all(traj.total_mass == 0.0)


def test_constant_initial_norm(sc_spec, grid8):
    sc = constant_scenario(sc_spec, grid8, t_end=1.0, history={"kind": "zero"})
    eng = sc.engine()
    st = eng.init_state((sc,))
    expected = sum(c.length for c in sc_spec.circles) * (sc_spec.v_max - sc_spec.v_min)
    norm_state, norm_history, mass, _ = eng.record(st)
    assert norm_state.item() == pytest.approx(expected, abs=1e-12)
    assert mass.item() == pytest.approx(expected, abs=1e-12)
    assert norm_history.item() == 0.0


def test_random_preset_deterministic(sc_spec, grid8):
    def mk():
        sc = make_scenario(sc_spec, grid8, t_end=1.0,
                           initial={"kind": "random_nonneg", "seed": 11},
                           history={"kind": "random_nonneg", "seed": 12})
        return sc.engine().init_state((sc,))
    a, b = mk(), mk()
    assert np.array_equal(a.density, b.density)
    assert np.array_equal(a.sums, b.sums)


def test_scenario_validation(sc_spec, grid8):
    with pytest.raises(ValidationError):
        make_scenario(sc_spec, grid8, t_end=-1.0)
    with pytest.raises(CflError):
        make_scenario(sc_spec, grid8, t_end=1.0, dt=1.0)


# ---------------------------------------------------------------------------
# stepping

def test_decoupled_junction_inflow_zero():
    # w = 0 zeroes the junction sum, disturbance included
    spec = single_circle(0.0)
    g = VelocityGrid.for_spec(spec, 4)
    sc = make_scenario(spec, g, t_end=1.0,
                       initial={"kind": "constant", "value": 1.0},
                       disturbance={"kind": "constant", "value": 2.0})
    eng = sc.engine()
    st = eng.advance(eng.init_state((sc,)), 1)
    assert np.all(st.density[0, eng.nodes[0].start] == 0.0)


def test_input_outside_sum_flag():
    spec = single_circle(0.0)
    g = VelocityGrid.for_spec(spec, 4)
    sc = make_scenario(spec, g, t_end=1.0, input_outside_sum=True,
                       disturbance={"kind": "constant", "value": 2.0})
    eng = sc.engine()
    st = eng.advance(eng.init_state((sc,)), 1)
    assert np.allclose(st.density[0, eng.nodes[0].start], 2.0 / g.centers)


@pytest.mark.parametrize("flag", ["false", 1, None])
def test_input_outside_sum_must_be_a_bool(flag):
    # a truthy string or number would switch the input's gain to 1 per circle
    spec = single_circle(0.0)
    with pytest.raises(ValidationError, match="input_outside_sum"):
        make_scenario(spec, t_end=1.0, k_velocity=4, input_outside_sum=flag)


def test_positivity(monkeypatch):
    _assert_stays_nonnegative(monkeypatch, single_circle(0.9))


def test_positivity_with_a_block_of_3(monkeypatch):
    _assert_stays_nonnegative(monkeypatch, heterogeneous_five(0.4), m_cells=(3, 5, 4, 3, 9))


def _assert_stays_nonnegative(monkeypatch, spec, m_cells=None):
    g = VelocityGrid.for_spec(spec, 4)
    sc = make_scenario(spec, g, t_end=4.0, m_cells=m_cells,
                       initial={"kind": "random_nonneg", "seed": 2},
                       history={"kind": "random_nonneg", "seed": 3},
                       disturbance={"kind": "bounded_random", "bound": 1.0, "seed": 4})
    eng = sc.engine()
    st = eng.init_state((sc,))
    traces = _TraceRing(eng, (sc,), monkeypatch)
    for _ in range(sc.n_steps):
        eng.advance(st, 1)
        assert np.all(st.density >= 0.0) and np.all(traces.ring >= 0.0)
        assert np.all(st.sums >= 0.0)


def _lockstep_densities(*members):
    """The node rows of the members stepped in lockstep, (R, sum_j (M_j + 1),
    K), one copy per step, t = 0 included. The inflow rows stay out: a
    member's top inflow row takes the last node of the member before it,
    which nothing reads."""
    eng = members[0].engine()
    st = eng.init_state(members)
    densities = [st.density[:, eng.node_rows]]
    for _ in range(members[0].n_steps):
        densities.append(eng.advance(st, 1).density[:, eng.node_rows])
    return densities


def test_linearity_in_the_data(sc_spec, grid8):
    one, zero = {"kind": "constant", "value": 1.0}, {"kind": "zero"}
    mk = lambda init, hist: make_scenario(sc_spec, grid8, t_end=2.0,
                                          initial=init, history=hist)
    for a, b, c in _lockstep_densities(mk(one, zero), mk(zero, one), mk(one, one)):
        assert np.allclose(a + b, c, atol=1e-10)


def test_disturbance_homogeneity(sc_spec, grid8):
    mk = lambda val: make_scenario(sc_spec, grid8, t_end=2.0,
                                   disturbance={"kind": "constant", "value": val})
    for one, three in _lockstep_densities(mk(1.0), mk(3.0)):
        assert np.allclose(3.0 * one, three, atol=1e-10)


def test_finite_extinction_exact():
    spec = single_circle(0.5, kernel_scale=0.0)
    c = spec.circles[0]
    v1 = 0.5 * (spec.v_min + spec.v_max)
    t_exit = c.length / v1 + c.delay
    sc = _k1_scenario(spec, t_end=1.5 * t_exit,
                      initial={"kind": "constant", "value": 1.0},
                      history={"kind": "constant", "value": 1.0})
    traj = run(sc)
    total = traj.norm_state + traj.norm_history
    late = traj.times > t_exit + 2 * sc.dt
    assert np.all(total[late] == 0.0)
    assert total[0] > 0.0


def test_engine_freed_with_its_scenario(sc_spec, grid8):
    gc.disable()
    try:
        sc = constant_scenario(sc_spec, grid8, t_end=0.5)
        engine = weakref.ref(sc.engine())
        run(sc)
        del sc
        assert engine() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# per-circle reference stepper

def _reference_run(sc):
    """Step the scenario one circle at a time, each circle with its own ring
    buffer and head. Returns what `run` records, at every step, and the
    per-circle densities after every step."""
    spec, grid, dt = sc.spec, sc.grid, sc.dt
    v, dv = grid.centers, grid.widths
    eng = sc.engine()
    st = eng.init_state((sc,))
    circles = []
    for j, c in enumerate(spec.circles):
        m = sc.m_cells[j]
        dx = c.length / m
        xs = np.linspace(0.0, c.length, m + 1)
        xw = np.full(m + 1, dx)
        xw[0] = xw[-1] = 0.5 * dx
        q = np.array([[c.absorption.q(x, vk) for x in xs] for vk in v])
        s = int(math.ceil(c.delay / dt)) + 2
        idx, wq = delay_quadrature(c.delay_measure, dt, s)
        hw = np.zeros(s)
        _accumulate_density(hw, dt, -c.delay, 0.0, 1.0, 0.0)
        circles.append(dict(
            xw=xw, a=np.minimum(v * dt / dx, 1.0)[:, None], damp=np.exp(-q * dt),
            s=s, idx=idx, wq=wq, hw=hw, buf=_history_traces(eng, (sc,))[0, :s, j], head=0,
            bv=None if c.scattering.is_zero()
            else c.scattering.beta(v[:, None], v[None, :]) * (v * dv)[None, :]))
    z = [zj.copy() for zj in _circles(eng, st.density[0, eng.node_rows])]
    inputs = _disturbance_samples(sc)
    routing = np.asarray(spec.routing)
    rec = {"norm_state": [], "norm_history": [], "total_mass": [], "outflux": []}
    densities = []
    for n in range(sc.n_steps + 1):
        if n > 0:
            for j, c in enumerate(circles):
                nz = np.empty_like(z[j])
                nz[:, 1:] = ((1.0 - c["a"]) * z[j][:, 1:]
                             + c["a"] * z[j][:, :-1]) * c["damp"][:, 1:]
                z[j] = nz
                c["head"] = (c["head"] - 1) % c["s"]
                c["buf"][c["head"]] = nz[:, -1]
            delayed = np.zeros((len(z), len(v)))
            for j, c in enumerate(circles):
                if c["bv"] is not None:
                    rows = (c["head"] + c["idx"]) % c["s"]
                    delayed[j] = c["bv"] @ (c["wq"] @ c["buf"][rows]) / v
            u = (0.0 if inputs is None else inputs[n]) / v[None, :]
            inflow = (routing @ delayed + u if sc.input_outside_sum
                      else routing @ (delayed + u))
            for j in range(len(z)):
                z[j][:, 0] = inflow[j]
        norm = sum(np.sum(np.abs(zj) * dv[:, None] * c["xw"])
                   for zj, c in zip(z, circles))
        ordered = [c["buf"][(c["head"] + np.arange(c["s"])) % c["s"]]
                   for c in circles]
        rec["norm_state"].append(norm)
        rec["norm_history"].append(sum(
            c["hw"] @ (np.abs(b) @ dv) for b, c in zip(ordered, circles)))
        rec["total_mass"].append(sum(
            np.sum(zj * dv[:, None] * c["xw"]) + c["hw"] @ (b @ (v * dv))
            for zj, b, c in zip(z, ordered, circles)))
        rec["outflux"].append([np.sum(v * zj[:, -1] * dv) for zj in z])
        densities.append([zj.copy() for zj in z])
    return rec, densities


def _zero_kernel_network():
    five = heterogeneous_five(0.4)
    mute = replace(five.circles[2],
                   scattering=constant_kernel(five.v_min, five.v_max, 0.0))
    return replace(five, circles=five.circles[:2] + (mute,) + five.circles[3:],
                   mass_preserving=False)


@pytest.mark.parametrize("spec, k, m, kw", [
    (heterogeneous_five(0.4), 4, 1, {}),
    (_zero_kernel_network(), 4, 1, {}),
    (heterogeneous_five(0.4), 4, 1, {
        "input_outside_sum": True,
        "disturbance": {"kind": "bounded_random", "bound": 0.5, "seed": 7}}),
    (dict(moment_specs())["mixed"], 8, 4, {}),
], ids=["heterogeneous_five", "zero_kernel_circle", "input_outside_sum", "mixed_moments"])
def test_fused_engine_matches_per_circle_reference(spec, k, m, kw):
    # the reference reads each kernel through beta, the engine through the
    # m velocity groups' moments of _junction_moments
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, k), t_end=8.0,
                       m_base=8,
                       initial={"kind": "random_nonneg", "seed": 1},
                       history={"kind": "gaussian_bump", "width": 0.3}, **kw)
    assert sc.n_steps >= 200
    assert len(set(sc.m_cells)) > 1
    traj = run(sc)
    rec, densities = _reference_run(sc)
    eng = sc.engine()
    assert eng.omega.shape == (k, m)
    for density, z in zip(_lockstep_densities(sc), densities, strict=True):
        for zj, ref in zip(_circles(eng, density[0]), z, strict=True):
            np.testing.assert_allclose(zj, ref, rtol=1e-12, atol=1e-300)
    for name, ref in rec.items():
        np.testing.assert_allclose(getattr(traj, name), np.array(ref),
                                   rtol=1e-12, atol=1e-300)


_RANDOM_DATA = {"initial": {"kind": "random_nonneg", "seed": 1},
                "history": {"kind": "gaussian_bump", "width": 0.3},
                "disturbance": {"kind": "bounded_random", "bound": 0.5, "seed": 7}}


def _assert_matches_reference(*members):
    """run(*members) records, for each member, what the per-circle reference
    records at the member's stride and at the last step."""
    trajectories = run(*members)
    for sc, traj in zip(members, trajectories if len(members) > 1 else (trajectories,),
                        strict=True):
        rec, _ = _reference_run(sc)
        kept = sorted({*range(0, sc.n_steps + 1, sc.stride), sc.n_steps})
        for name, ref in rec.items():
            np.testing.assert_allclose(getattr(traj, name), np.array(ref)[kept],
                                       rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("stride", [1, 3, 11])
def test_records_mid_block_and_after_a_partial_block_match_the_reference(stride):
    five = heterogeneous_five(0.4)
    sc = make_scenario(five, VelocityGrid.for_spec(five, 4), t_end=3.0, m_base=8,
                       stride=stride, **_RANDOM_DATA)
    assert sc.engine().block == 8 and sc.n_steps % 8 > 0
    _assert_matches_reference(sc)


@pytest.mark.parametrize("m_cells, block", [((1, 4, 2, 6, 3), 1),
                                            ((3, 5, 4, 3, 9), 3)])
def test_the_shortest_circle_bounds_the_block(m_cells, block):
    five = heterogeneous_five(0.4)
    sc = make_scenario(five, VelocityGrid.for_spec(five, 4), t_end=3.0,
                       m_cells=m_cells, stride=2, **_RANDOM_DATA)
    assert sc.engine().block == block
    _assert_matches_reference(sc)


def test_a_delay_atom_at_theta_zero_matches_the_reference():
    # the inflow of step n + s reads the trace of step n + s itself
    five = heterogeneous_five(0.4)
    c = five.circles[1]
    with pytest.warns(UserWarning, match="atom at theta=0"):
        measure = DelayMeasure(kind="piecewise", r=c.delay,
                               atoms=((0.0, 0.3), (-0.5 * c.delay, 0.2)))
    spec = replace(five, mass_preserving=False, circles=(
        five.circles[0], replace(c, delay_measure=measure), *five.circles[2:]))
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 4), t_end=3.0, m_base=8,
                       stride=3, **_RANDOM_DATA)
    assert sc.engine().o_lo == 0
    _assert_matches_reference(sc)


def test_three_lockstep_members_match_the_reference():
    a, b = _member_pair(heterogeneous_five(0.4))
    c = replace(b, initial={"kind": "gaussian_bump", "center": 0.3},
                disturbance={"kind": "pulse", "value": 2.0, "t0": 0.5, "t1": 1.5})
    _assert_matches_reference(a, b, c)


def _step_loop_records(*members, mirrored=False):
    """The records of the members from a step loop that keeps the members
    apart: one step at a time on the (R, N, K) state, each member's rows
    1..N - 1 from its rows 0..N - 2, a record at the stride and at the last
    step. Mirrored: with `_mirrored_lookahead` on a ring whose head wraps
    modulo P."""
    eng = members[0].engine()
    st = eng.init_state(members)
    lookahead, period = eng._lookahead, None
    if mirrored:
        lookahead, period = _mirrored_lookahead(eng, members), eng.period
        st.sums[:, :, period:] = st.sums[:, :, :period]
    n_steps, stride = members[0].n_steps, members[0].stride
    records = []
    for n in range(n_steps + 1):
        if n > 0:
            if st.step_count % eng.block == 0:
                lookahead(st)
            z = st.density
            moved = eng.c_move[1:] * z[:, :-1]
            z[:, 1:] *= eng.c_stay[1:]
            z[:, 1:] += moved
            st.head = st.head - 1 if period is None else (st.head - 1) % period
            st.step_count += 1
            st.t = st.step_count * eng.dt
        if n % stride == 0 or n == n_steps:
            records.append((st.t, *eng.record(st)))
    return records


def _circle_major_trace_coef(eng):
    """The engine's trace map circle first, (J, L, L + 1, K): unit pulses on
    every row, all circles and cells at once, stepped with temporaries."""
    L, J, K = eng.block, len(eng.xs), len(eng.dv)
    tail_rows = eng.tail_rows.T                             # (J, L + 1)
    stay, move = (c[tail_rows[:, None, 1:]] for c in (eng.c_stay, eng.c_move))
    pulse = np.broadcast_to(np.eye(L + 1)[:, :, None], (J, L + 1, L + 1, K)).copy()
    coef = np.empty((J, L, L + 1, K))
    for s in range(L):
        pulse[:, :, 1:] = stay * pulse[:, :, 1:] + move * pulse[:, :, :-1]
        coef[:, s] = pulse[:, :, L]
    return coef[:, ::-1].copy()


def _ring_row_pulse_map(eng):
    """The circle-major pulse map, one (L, L + 1) matrix per column, as the
    engine's trace map is laid out."""
    L = eng.block
    return _circle_major_trace_coef(eng).transpose(0, 3, 1, 2).reshape(-1, L, L + 1)


@pytest.mark.parametrize("name, m_base, k", [
    pytest.param(name, m_base, k, id=f"{name}-{m_base}x{k}")
    for name in [n for n, _, _ in regression_suite()] + ["conservation"]
    for m_base, k in ((32, 8), (128, 32))])
def test_the_trace_map_in_ring_rows_equals_the_circle_major_map(name, m_base, k):
    # absorption constant in x: the end node's functional, stepped back,
    # sums the same products as unit pulses stepped forward, bit for bit
    spec = conservation_spec() if name == "conservation" else _suite_spec(name)
    eng = make_scenario(spec, VelocityGrid.for_spec(spec, k), t_end=1.0,
                        m_base=m_base).engine()
    L, J = eng.block, len(eng.xs)
    assert eng.trace_coef.shape == (J * k, L, L + 1)
    assert np.array_equal(eng.trace_coef, _ring_row_pulse_map(eng))


def _tabulated_in_x(spec):
    """spec with each circle's constant absorption q replaced by 24 cells
    along the circle, rising from 0.5 q to 1.5 q, so that a block's tail
    crosses cell edges at m_base 32 and 128."""
    def table(c):
        q = c.absorption.value * np.linspace(0.5, 1.5, 24)
        return AbsorptionProfile(kind="tabulated", x_edges=tuple(np.linspace(0.0, c.length, 25)),
                                 v_edges=(spec.v_min, spec.v_max),
                                 values=tuple((float(x),) for x in q))
    return replace(spec, circles=tuple(replace(c, absorption=table(c)) for c in spec.circles))


@pytest.mark.parametrize("m_base, k", [(32, 8), (128, 32)])
def test_the_trace_map_of_absorption_tabulated_in_x_is_the_pulse_map_to_rounding(m_base, k):
    # the coefficients change along the tail, so the functional's products
    # associate from the other end than the pulses': equal to rounding, with
    # the same structural zeros
    spec = _tabulated_in_x(heterogeneous_five(0.4))
    eng = make_scenario(spec, VelocityGrid.for_spec(spec, k), t_end=1.0,
                        m_base=m_base).engine()
    got, want = eng.trace_coef, _ring_row_pulse_map(eng)
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    assert not np.array_equal(got, want)


@pytest.mark.parametrize("name, cells, k", [
    *[pytest.param(name, {"m_base": m_base}, k, id=f"{name}-{m_base}x{k}")
      for name, _, _ in regression_suite() for m_base, k in ((32, 8), (128, 32))],
    pytest.param("heterogeneous_five", {"m_cells": (3, 5, 4, 3, 9)}, 4, id="block_3")])
def test_the_block_traces_agree_with_an_einsum_of_the_map(name, cells, k):
    # one matrix-vector product per member and column in place of the
    # einsum over the circle-and-cell axis of the map in ring rows
    spec = heterogeneous_five(0.4) if name == "heterogeneous_five" else _suite_spec(name)
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, k), t_end=1.0, **cells)
    eng = sc.engine()
    L = eng.block
    assert L == (3 if "m_cells" in cells else 16)
    state = eng.init_state((sc, sc))
    state.density[:] = np.random.default_rng(3).random(state.density.shape)
    tails = state.density[:, eng.tail_rows].reshape(2, L + 1, -1)
    expected = np.einsum("sip,rip->rsp", eng.trace_coef.transpose(1, 2, 0), tails)
    eng._lookahead(state)
    got = state.magnitude.reshape(2, L, -1)        # |trace|, newest first
    assert (expected > 0).all()
    np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)


def _mirrored_lookahead(eng, members):
    """A second lookahead for the engine's state, to check the engine's
    against: the circle-major trace map, in columns, times the gathered
    tail nodes of each member and column, on a K-wide ring of its own,
    of period P and holding the history presets at first, whose rows h and
    h + P hold the same trace, as do those of the state's sums, so that no
    block wraps; the sums of a block from a copy of its ring rows."""
    L, P, J, K, R = eng.block, eng.period, len(eng.xs), len(eng.dv), len(members)
    tail_rows = eng.tail_rows.T                             # (J, L + 1)
    coef = _circle_major_trace_coef(eng).transpose(0, 3, 1, 2).reshape(-1, L, L + 1)
    ring = np.zeros((R, 2 * P, J, K))
    ring[:, :eng.s_max] = _history_traces(eng, members)
    ring[:, P:] = ring[:, :P]

    def lookahead(st):
        z, sums = st.density, st.sums
        h = (st.head - L) % P
        tails = z[:, tail_rows].transpose(0, 1, 3, 2).reshape(R, J * K, L + 1, 1)
        ring[:, h:h + L] = np.matmul(coef, tails).reshape(R, J, K, L).transpose(0, 3, 1, 2)
        block = sums[:, :, h:h + L]
        eng._trace_sums(ring[:, h:h + L].reshape(R, L * J, K).copy(),
                        block[:, 0].reshape(R, -1), block[:, 1].reshape(R, -1),
                        block[:, 2:].reshape(R, block.shape[1] - 2, -1).mT)
        ring[:, h + P:h + P + L] = ring[:, h:h + L]
        sums[:, :, h + P:h + P + L] = sums[:, :, h:h + L]
        # the moments of the mirrored traces, in the rows of its own sums
        window = sums[:, 2:, h + eng.o_lo:h + eng.o_lo + eng.delay_w.shape[2]]
        m = window.shape[1]
        delayed = np.zeros((R, L, J * m + 1))
        np.matmul(eng.delay_w, window.transpose(0, 3, 2, 1),
                  out=delayed[:, :, :-1].reshape(R, L, J, m).transpose(0, 2, 1, 3))
        if st.inputs is not None:
            n = st.step_count + 1
            delayed[:, :, -1] = st.padded_inputs[:, n:n + L]
        z[:, eng.inflow_rows] = (delayed @ eng.route).reshape(R, L, J, K)

    return lookahead


def _assert_equals_loop(trajectories, loop, equal_nan=False):
    """Each member's trajectory holds the loop's records bit for bit."""
    assert len(loop) == len(trajectories[0].times)
    for r, traj in enumerate(trajectories):
        for name, column in zip(_RECORDS, zip(*loop)):
            column = np.array([value if name == "times" else value[r]
                               for value in column])
            assert np.array_equal(getattr(traj, name), column, equal_nan=equal_nan), name


@pytest.mark.parametrize("n_members", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 3, 8, 11])
def test_run_equals_the_step_loop_bit_for_bit(stride, n_members):
    five = heterogeneous_five(0.4)
    a, b = (replace(m, stride=stride)
            for m in _member_pair(five, m_cells=(3, 5, 4, 3, 9)))
    c = replace(b, disturbance={"kind": "pulse", "value": 2.0, "t0": 0.5, "t1": 1.5})
    members = (b, a, c)[:n_members]
    # single steps only: a multi-step map sums in another order
    b.engine().span = 1
    assert a.engine().block == 3
    trajectories = run(*members)
    if n_members == 1:
        trajectories = (trajectories,)
    assert len(trajectories[0].times) == members[0].n_records
    _assert_equals_loop(trajectories, _step_loop_records(*members))


def _other_members(sc):
    """Two members with other nonnegative data, the second one forced."""
    return (replace(sc, initial={"kind": "constant", "value": 0.5},
                    history={"kind": "random_nonneg", "seed": 2},
                    disturbance={"kind": "zero"}),
            replace(sc, disturbance={"kind": "pulse", "value": 2.0,
                                     "t0": 0.5, "t1": 1.5}))


@pytest.mark.parametrize("n_members", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 3, 8, 11])
def test_eight_step_blocks_equal_a_mirrored_ring_bit_for_bit(stride, n_members,
                                                             monkeypatch):
    # the ring-row trace map and the rebased ring change no bit of a record
    monkeypatch.setattr(kinnet.simulator, "LOOKAHEAD", 8)
    five = heterogeneous_five(0.4)
    a = make_scenario(five, VelocityGrid.for_spec(five, 4), t_end=4.0, m_base=16,
                      stride=stride, **_RANDOM_DATA)
    members = (a, *_other_members(a))[:n_members]
    eng = a.engine()
    eng.span = 1                                  # single steps only
    assert eng.block == 8 and a.n_steps > 3 * (2 * eng.period - eng.s_max)
    trajectories = run(*members)
    _assert_equals_loop(trajectories if n_members > 1 else (trajectories,),
                        _step_loop_records(*members, mirrored=True))


@pytest.mark.parametrize("name", [name for name, _, _ in regression_suite()])
def test_sixteen_step_blocks_agree_with_eight_step_blocks(name, monkeypatch):
    spec = next(s for n, s, _ in regression_suite() if n == name)
    runs = []
    for block in (16, 8):
        monkeypatch.setattr(kinnet.simulator, "LOOKAHEAD", block)
        sc = make_scenario(spec, VelocityGrid.for_spec(spec, 4), t_end=3.0, m_base=16,
                           **_RANDOM_DATA)
        assert sc.engine().block == block
        runs.append(run(sc, *_other_members(sc)))
    for long, short in zip(*runs, strict=True):
        for record in _RECORDS[1:]:
            np.testing.assert_allclose(getattr(long, record), getattr(short, record),
                                       rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# multi-step advection maps

def _suite_spec(name):
    return next(s for n, s, _ in regression_suite() if n == name)


def _unit_pulse_map(eng, s):
    """The s-step map from s single steps of one member, with the step's
    arithmetic, on unit pulses every s + 1 rows, one residue of the rows at
    a time: after s steps, row q >= s holds the coefficient of the pulse d
    rows above it, d = (q - i) mod (s + 1), and zeros from all others."""
    N, K = eng.c_stay.shape
    stay, move = eng.c_stay.ravel()[K:], eng.c_move.ravel()[K:]
    rows = np.arange(s, N)
    expected = np.empty((s + 1, N - s, K))
    for i in range(s + 1):
        x = np.repeat((np.arange(N) % (s + 1) == i).astype(float), K)
        for _ in range(s):
            moved = move * x[:-K]
            x[K:] *= stay
            x[K:] += moved
        expected[(rows - i) % (s + 1), rows - s] = x[s * K:].reshape(N - s, K)
    return expected.reshape(s + 1, -1)


@pytest.mark.parametrize("s", [2, 4, 8, 16])
def test_a_map_equals_single_steps_on_unit_pulses(s):
    five = heterogeneous_five(0.4)
    eng = make_scenario(five, VelocityGrid.for_spec(five, 4), t_end=1.0,
                        m_base=16, stride=s).engine()
    assert (eng.block, eng.span) == (16, s)
    got = eng.map
    assert got.shape == (s + 1, eng.c_stay.size - s * 4)
    assert np.array_equal(got, _unit_pulse_map(eng, s))
    assert (got >= 0).all()


def _segment_loop_records(*members):
    """The records of the members from a step loop that keeps the members
    apart and takes the engine's own segments: between two events, a block
    start and a record, segments of the engine's span s while at least s
    steps are left, and single steps for the rest; each member's rows s..
    from one einsum of the engine's map with its own state, and a single
    step as three products and sums; a record at the stride and at the
    last step."""
    eng = members[0].engine()
    st = eng.init_state(members)
    z, (R, N, K) = st.density, st.density.shape
    n_steps, stride, L = members[0].n_steps, members[0].stride, eng.block
    records = [(st.t, *eng.record(st))]
    for n in sorted({*range(stride, n_steps + 1, stride), n_steps}):
        while st.step_count < n:
            if st.step_count % L == 0:
                eng._lookahead(st)
            left = min(n, st.step_count - st.step_count % L + L) - st.step_count
            while left:
                s = eng.span if left >= eng.span else 1
                for r in range(R):
                    flat = z[r].reshape(-1)
                    if s == 1:
                        moved = eng.c_move.ravel()[K:] * flat[:-K]
                        flat[K:] *= eng.c_stay.ravel()[K:]
                        flat[K:] += moved
                        continue
                    window = np.stack([flat[(s - d) * K:(N - d) * K]
                                       for d in range(s + 1)])[:, None]
                    out = np.empty((1, (N - s) * K))
                    np.einsum("dp,drp->rp", eng.map, window, out=out)
                    flat[s * K:] = out[0]
                st.head, st.step_count, left = st.head - s, st.step_count + s, left - s
            st.t = st.step_count * eng.dt
        records.append((st.t, *eng.record(st)))
    return records


@pytest.mark.parametrize("n_members", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 3, 4, 8, 11, 12, 16])
@pytest.mark.parametrize("cells, block", [({"m_base": 16}, 16), ({"m_base": 12}, 12),
                                          ({"m_cells": (3, 5, 4, 3, 9)}, 3)],
                         ids=["span_16", "block_12", "block_3"])
def test_run_equals_a_segment_loop_bit_for_bit(cells, block, stride, n_members):
    # the ring, the lookahead, the swap of the buffers and the chunks of
    # records change no bit while the map takes the steps: segments of
    # gcd(L, stride) steps, 16, 12, 8, 4 or 3 here, and single steps where
    # the gcd is 1
    five = heterogeneous_five(0.4)
    a = make_scenario(five, VelocityGrid.for_spec(five, 4), t_end=3.0, stride=stride,
                      **cells, **_RANDOM_DATA)
    members = (a, *_other_members(a))[:n_members]
    eng = a.engine()
    assert (eng.block, eng.span) == (block, math.gcd(block, stride))
    trajectories = run(*members)
    _assert_equals_loop(trajectories if n_members > 1 else (trajectories,),
                        _segment_loop_records(*members))


@pytest.mark.parametrize("name", [n for n, _, _ in regression_suite()
                                  if n.startswith("iss_")])
def test_lockstep_members_with_maps_equal_their_solo_runs(name):
    # verify's runs at (32, 8): the maps broadcast over the members
    spec = _suite_spec(name)
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 8), t_end=4.0, m_base=32,
                       stride=8, **_RANDOM_DATA)
    members = (replace(sc, disturbance={"kind": "zero"}), sc, *_other_members(sc))
    assert sc.engine().span == 8
    for together, m in zip(run(*members), members, strict=True):
        _assert_same_records(together, run(m))


@pytest.mark.parametrize("stride", [3, 8, 11])
def test_chunked_records_with_maps_equal_the_per_stride_records(stride, monkeypatch):
    # blocks of 12, 16 and 11 steps, so that the stride divides the block
    # and every stretch is one segment of the stride's map
    five = heterogeneous_five(0.4)
    a = make_scenario(five, VelocityGrid.for_spec(five, 4), t_end=3.0,
                      m_base={3: 12, 8: 16, 11: 11}[stride], stride=stride, **_RANDOM_DATA)
    members = (a, *_other_members(a))
    assert a.engine().span == stride
    trajectories, lengths = _chunked_run(monkeypatch, members, None)
    assert len(lengths) < a.n_records
    _assert_equals_per_stride_records(trajectories, members)


def test_twenty_one_lockstep_members_equal_their_solo_runs():
    # the batch of the acceptance criteria: a member's traces, sums and
    # segments do not depend on the number of members
    spec = _suite_spec("iss_five_circle")
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 8), t_end=1.0, m_base=32,
                       stride=12, **_RANDOM_DATA)
    assert (sc.engine().block, sc.engine().span) == (16, 4) and sc.n_steps > 2 * 16
    members = [replace(sc, initial={"kind": "random_nonneg", "seed": r},
                       history={"kind": "constant", "value": r / 7 - 1},
                       disturbance=({"kind": "zero"} if r % 3 == 0 else
                                    {"kind": "bounded_random", "bound": 0.5, "seed": r}))
               for r in range(21)]
    for together, m in zip(run(*members), members, strict=True):
        _assert_same_records(together, run(m))


@pytest.mark.parametrize("name", [n for n, _, _ in regression_suite()])
def test_maps_agree_with_single_steps(name):
    # maps of 4, 4, 8 and 16 steps in blocks of 16
    spec = _suite_spec(name)
    for stride in (4, 12, 8, 16):
        runs = []
        for maps in (True, False):
            sc = make_scenario(spec, VelocityGrid.for_spec(spec, 8), t_end=6.0,
                               m_base=32, stride=stride, **_RANDOM_DATA)
            if not maps:
                sc.engine().span = 1              # single steps only
            assert sc.engine().span == (math.gcd(16, stride) if maps else 1)
            runs.append(run(sc, *_other_members(sc)))
        for maps, steps in zip(*runs, strict=True):
            for record in _RECORDS[1:]:
                np.testing.assert_allclose(getattr(maps, record), getattr(steps, record),
                                           rtol=5e-15, atol=0, err_msg=f"stride {stride}")


def _longdouble_records(sc):
    """The records of a single-step loop on a state in np.longdouble, with
    the engine's coefficients and its lookahead; each record rounds the
    state's sums to float64. The lookahead's views of the replaced buffers
    are built again: the engine never replaces them."""
    eng = sc.engine()
    st = eng.init_state((sc,))
    for name in ("density", "sums", "magnitude", "tails", "junction"):
        setattr(st, name, getattr(st, name).astype(np.longdouble))
    st.views = kinnet._advection.BlockViews.of(st, eng.block)
    stay, move = (c[1:].astype(np.longdouble) for c in (eng.c_stay, eng.c_move))
    records = [eng.record(st)]
    for _ in range(sc.n_steps):
        if st.step_count % eng.block == 0:
            eng._lookahead(st)
        z = st.density
        moved = move * z[:, :-1]
        z[:, 1:] *= stay
        z[:, 1:] += moved
        st.head, st.step_count = st.head - 1, st.step_count + 1
        if st.step_count % sc.stride == 0 or st.step_count == sc.n_steps:
            records.append(eng.record(st))
    return records


def test_maps_stay_within_1e_14_of_a_longdouble_step_loop():
    # a long run that does not decay, on nonnegative data
    spec = conservation_spec()
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 8), t_end=20.0, m_base=32,
                       stride=8, initial={"kind": "random_nonneg", "seed": 1},
                       history={"kind": "constant", "value": 0.3})
    assert sc.engine().span == 8
    traj, ref = run(sc), _longdouble_records(sc)
    for record, column in zip(_RECORDS[1:], zip(*ref)):
        np.testing.assert_allclose(getattr(traj, record),
                                   np.array([value[0] for value in column]),
                                   rtol=1e-14, atol=0)


def test_eight_step_maps_at_128x32_stay_within_1e_14_of_a_longdouble_step_loop():
    # simulate's conservation run to t = 8: its maps drifted 7.7e-15 from
    # the np.longdouble loop, and single steps 4.6e-16
    spec = conservation_spec()
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 32), t_end=8.0, m_base=128,
                       stride=8, initial={"kind": "random_nonneg", "seed": 1},
                       history={"kind": "constant", "value": 0.3})
    assert sc.engine().span == 8
    traj, ref = run(sc), _longdouble_records(sc)
    for record, column in zip(_RECORDS[1:], zip(*ref)):
        np.testing.assert_allclose(getattr(traj, record),
                                   np.array([value[0] for value in column]),
                                   rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", [n for n, _, _ in regression_suite()])
@pytest.mark.parametrize("m_base, k", [(32, 8), (128, 32)])
def test_every_map_fits_in_its_budget(name, m_base, k):
    # at the stride 8 of verify and simulate, every engine holds the one
    # map of gcd(L, 8) = 8 steps, whose buffer of 9 N K values fits under
    # the cap on an array's values
    spec = _suite_spec(name)
    eng = make_scenario(spec, VelocityGrid.for_spec(spec, k), t_end=1.0,
                        m_base=m_base, stride=8).engine()
    assert (eng.block, eng.span) == (16, 8)
    assert eng.map.shape == (9, eng.c_stay.size - 8 * k)
    assert eng.map.base.size == 9 * eng.c_stay.size <= MAX_ARRAY_VALUES


def test_a_state_past_the_cap_or_with_a_short_block_takes_single_steps(monkeypatch):
    five = heterogeneous_five(0.4)
    sc = make_scenario(five, VelocityGrid.for_spec(five, 32), t_end=0.05, m_base=128,
                       stride=8)
    size = sc.engine().c_stay.size
    assert (sc.engine().span, sc.engine().block) == (8, 16)
    monkeypatch.setattr(kinnet.simulator, "MAX_ARRAY_VALUES", 9 * size - 1)
    assert replace(sc).engine().span == 1
    monkeypatch.setattr(kinnet.simulator, "MAX_ARRAY_VALUES", 9 * size)
    assert replace(sc).engine().span == 8
    monkeypatch.undo()
    # a block of 7 steps, which shares no factor with the stride
    short = replace(sc, m_cells=(7, *sc.m_cells[1:]))
    assert (short.engine().span, short.engine().block) == (1, 7)


def _segment_traffic(monkeypatch):
    """Two lists that fill as the engine steps: the length of each segment
    that one einsum of a map takes, and the steps of each call of single
    steps."""
    segments, single = [], []
    einsum, steps = np.einsum, kinnet._advection.steps

    def counted_einsum(subscripts, *operands, **kwargs):
        if subscripts == "dp,drp->rp":
            segments.append(len(operands[0]) - 1)
        return einsum(subscripts, *operands, **kwargs)

    def counted_steps(stay, move, z, moved, n):
        single.append(n)
        steps(stay, move, z, moved, n)

    monkeypatch.setattr(np, "einsum", counted_einsum)
    monkeypatch.setattr(kinnet._advection, "steps", counted_steps)
    return segments, single


def test_a_large_state_takes_eight_step_maps_and_keeps_no_k_wide_ring(monkeypatch):
    # simulate's runs at (128, 32): each 8-step segment is one einsum of
    # the 8-step map, the shorter last stretch single steps, and the state
    # keeps the sums of the traces and a block's traces, no ring of them
    five = heterogeneous_five(0.4)
    sc = make_scenario(five, VelocityGrid.for_spec(five, 32), t_end=0.06,
                       m_base=128, stride=8, **_RANDOM_DATA)
    members = (sc, replace(sc, initial={"kind": "constant", "value": 0.5}))
    eng = sc.engine()
    assert (eng.span, eng.block) == (8, 16)
    assert sc.n_steps % 8 > 1
    N, K = eng.c_stay.shape
    J, P, L = len(eng.xs), eng.period, eng.block
    # the sums: |trace| @ dv, trace @ (v dv) and one moment per row, m = 1;
    # the block's traces (R, L J, K)
    assert _aligned_shapes(monkeypatch, lambda: eng.init_state(members)) == [
        (2, N, K), (2, 3, 2 * P, J), (2, L * J, K), (2, N, K), (2, N, K),
        (2, N, K)]
    state = eng.init_state(members)
    assert max(x.size for x in vars(state).values() if isinstance(x, np.ndarray)
               and x.shape[-1] == K and x.shape[-2] in (J, L * J)) == 2 * L * J * K
    segments, single = _segment_traffic(monkeypatch)
    run(*members)
    assert segments == [8] * (sc.n_steps // 8) and single == [sc.n_steps % 8]


@pytest.mark.parametrize("case, stride", [("32x8", 8), ("128x32", 8), ("32x8", 4),
                                          ("32x8", 1), ("32x8", 3)])
def test_runs_take_segments_of_the_gcd_of_stride_and_block(case, stride, monkeypatch):
    # verify's runs at (32, 8) and simulate's at (128, 32), stride 8, take
    # 8-step segments and single steps for the last stretch alone, a
    # sweep's stride 4 4-step segments; strides 1 and 3 share no factor with
    # L = 16 and take single steps alone, bit for bit the step loop's
    if case == "32x8":
        spec = _suite_spec("iss_five_circle")
        sc = make_scenario(spec, VelocityGrid.for_spec(spec, 8), t_end=1.25,
                           m_base=32, stride=stride, **_RANDOM_DATA)
    else:
        spec = heterogeneous_five(0.4)
        sc = make_scenario(spec, VelocityGrid.for_spec(spec, 32), t_end=0.06,
                           m_base=128, stride=stride, **_RANDOM_DATA)
    members = (sc, *_other_members(sc))
    s, n = math.gcd(16, stride), sc.n_steps
    assert (sc.engine().block, sc.engine().span) == (16, s)
    segments, single = _segment_traffic(monkeypatch)
    trajectories = run(*members)
    monkeypatch.undo()
    if s > 1:
        assert n % s > 0
        assert segments == [s] * (n // s) and single == [n % s]
    else:
        assert segments == [] and sum(single) == n
        _assert_equals_loop(trajectories, _step_loop_records(*members))


def test_lockstep_members_with_eight_step_maps_equal_their_solo_runs():
    # simulate's size, with the maps broadcast over the members
    five = heterogeneous_five(0.4)
    sc = make_scenario(five, VelocityGrid.for_spec(five, 32), t_end=0.08,
                       m_base=128, stride=8, **_RANDOM_DATA)
    members = (replace(sc, disturbance={"kind": "zero"}), sc, *_other_members(sc))
    assert sc.engine().span == 8 and sc.n_steps > 2 * sc.engine().block
    for together, m in zip(run(*members), members, strict=True):
        _assert_same_records(together, run(m))


@pytest.mark.parametrize("n, swapped", [(16, True), (24, False), (1, False)])
def test_advance_may_swap_the_density_buffer(n, swapped):
    # a segment writes the spare buffer and swaps it in: an array taken
    # before `advance` is the live state only after an even number of
    # segments, and `state.density` always is
    five = heterogeneous_five(0.4)
    sc = make_scenario(five, VelocityGrid.for_spec(five, 4), t_end=3.0, m_base=12,
                       stride=12, **_RANDOM_DATA)
    eng = sc.engine()
    assert (eng.block, eng.span) == (12, 12)
    state = eng.init_state((sc,))
    before = state.density
    eng.advance(state, n)               # segments 12, 4 steps; 12, 12; one step
    assert (state.density is before, state.spare is before) == (not swapped, swapped)
    # the same steps, up to a run's last record at step n
    _, *expected = _segment_loop_records(replace(sc, t_end=n * sc.dt))[-1]
    for got, want in zip(eng.record(state), expected, strict=True):
        assert np.array_equal(got, want)


def test_advance_allocates_no_array_per_segment(monkeypatch):
    # an einsum that copied its strided view of the state would allocate
    # (s + 1) R (N - s) K values; the lookahead's own temporaries stay out
    spec = _suite_spec("iss_dirac_low")
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 8), t_end=12.0, m_base=32,
                       stride=8, **_RANDOM_DATA)
    eng = sc.engine()
    assert eng.span == 8
    state = eng.init_state((replace(sc, disturbance={"kind": "zero"}), sc))
    eng.advance(state, 129)
    monkeypatch.setattr(eng, "_lookahead", lambda state: None)
    eng.advance(state, 64)                   # segments of 8 and single steps
    assert 8 * 3 * state.density.size > 16 * 1024
    tracemalloc.start()
    try:
        eng.advance(state, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024


def test_advance_allocates_no_array_per_block():
    # the block's gathered nodes, traces, |trace|, junction and inflows
    # live in the state, and a rebase of the ring copies through no
    # temporary: an (R, L, J K) array of the block would be 10 KiB here
    spec = _suite_spec("iss_five_circle")
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 8), t_end=12.0, m_base=32,
                       stride=8, **_RANDOM_DATA)
    eng = sc.engine()
    state = eng.init_state((replace(sc, disturbance={"kind": "zero"}), sc))
    eng.advance(state, 129)
    eng.advance(state, 128)                  # every map and view built
    assert 8 * state.inflow.size == 10 * 1024
    peaks, rebased = [], []
    for _ in range(3):
        head = state.head
        tracemalloc.start()
        try:
            eng.advance(state, 64)           # four blocks
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rebased.append(state.head > head)
    assert any(rebased)
    assert max(peaks) < 3 * 1024


@pytest.mark.parametrize("case", ["chunk_17", "chunk_1"])
def test_run_takes_a_record_without_a_copy_of_its_densities(case, monkeypatch):
    # |z| overwrites the chunk's copies, or the spare buffer for a chunk of
    # one: |z| in an array of its own took 1.26 and 1.07 times z here
    if case == "chunk_17":                   # verify's runs at (32, 8)
        spec = _suite_spec("iss_dirac_low")
        sc = make_scenario(spec, VelocityGrid.for_spec(spec, 8), t_end=3.0,
                           m_base=32, stride=8, **_RANDOM_DATA)
        members = (replace(sc, disturbance={"kind": "zero"}), sc)
    else:                                    # simulate's runs at (128, 32)
        five = heterogeneous_five(0.4)
        members = (make_scenario(five, VelocityGrid.for_spec(five, 32), t_end=0.05,
                                 m_base=128, stride=8, **_RANDOM_DATA),)
    eng = members[0].engine()
    records, calls = eng._records, []

    def traced(z, *rest):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = records(z, *rest)
        calls.append((tracemalloc.get_traced_memory()[1] - before, z.nbytes, len(z)))
        return out

    monkeypatch.setattr(eng, "_records", traced)
    tracemalloc.start()
    try:
        run(*members)
    finally:
        tracemalloc.stop()
    assert max(size for *_, size in calls) == (17 if case == "chunk_17" else 1)
    assert all(peak < 0.75 * nbytes for peak, nbytes, _ in calls)


@pytest.mark.parametrize("n_members", [1, 2])
@pytest.mark.parametrize("cells", [{"m_cells": (1, 4, 2, 6, 3)},
                                   {"m_cells": (3, 5, 4, 3, 9)}, {"m_base": 16}],
                         ids=["block_1", "block_3", "block_16"])
def test_the_ring_holds_the_last_s_max_traces_across_rebases(cells, n_members,
                                                             monkeypatch):
    five = heterogeneous_five(0.4)
    sc = make_scenario(five, VelocityGrid.for_spec(five, 4), t_end=5.0, stride=2,
                       **cells, **_RANDOM_DATA)
    members = (sc, *_other_members(sc))[:n_members]
    eng = sc.engine()
    L, S = eng.block, eng.s_max
    assert L in (1, 3, 16) and (L == 1 or S % L > 0)
    lookahead, window = eng._lookahead, eng._window
    traces, rebases, records = {}, [], []     # the traces by step number
    history = _history_traces(eng, members)   # the history: step -o at row o
    traces.update({-o: history[:, o] for o in range(S)})

    def kept_lookahead(state):
        head = state.head
        lookahead(state)
        if state.head != head:
            rebases.append(state.step_count)
        block = _block_traces(eng, state)     # newest first, as in the ring
        for s in range(1, L + 1):
            traces[state.step_count + s] = block[:, L - s]

    def checked_window(state):
        n, head = state.step_count, state.head
        assert ring.ring.shape[1] == state.sums.shape[2] == 2 * eng.period
        live = np.stack([traces[n - o] for o in range(S)], axis=1)
        assert np.array_equal(ring.ring[:, head:head + S], live)
        sums = state.sums[:, :, head:head + S]
        np.testing.assert_allclose(sums[:, 0], np.abs(live) @ eng.dv, rtol=1e-15)
        np.testing.assert_allclose(sums[:, 1], live @ eng.vdv, rtol=1e-15)
        np.testing.assert_allclose(sums[:, 2:], (live @ eng.omega).transpose(0, 3, 1, 2),
                                   rtol=1e-15)
        records.append(n)
        return window(state)

    monkeypatch.setattr(eng, "_lookahead", kept_lookahead)
    monkeypatch.setattr(eng, "_window", checked_window)
    # the K-wide ring of the traces on the engine's head and rebases
    ring = _TraceRing(eng, members, monkeypatch)
    _assert_matches_reference(*members)
    assert len(rebases) >= 3 and rebases[0] == 0
    assert records == sorted({*range(0, sc.n_steps + 1, 2), sc.n_steps})


def test_an_overflowing_member_leaves_its_lockstep_partners_alone():
    # a member's last node flows into the top inflow row of the next one,
    # which the next lookahead rewrites before it reaches a start node
    spec = single_circle(1e50)
    grid = VelocityGrid.for_spec(spec, 2)
    finite = make_scenario(spec, grid, t_end=3.0, m_base=8, **_RANDOM_DATA)
    hot = make_scenario(spec, grid, t_end=3.0, m_base=8,
                        initial={"kind": "constant", "value": 1e308})
    with np.errstate(all="ignore"):
        before, overflowed, after = run(finite, hot, finite)
    assert not np.isfinite(overflowed.norm_state).all()
    alone = run(finite)
    assert np.isfinite(alone.norm_state).all()
    _assert_same_records(before, alone)
    _assert_same_records(after, alone)


def test_history_records_leave_out_ring_rows_of_zero_weight():
    # a history of 1e308 on a velocity range of 2 overflows the velocity sum
    # of every trace: the records read inf while such a trace has weight,
    # and then 1e308 times those of a unit history, as the data are linear
    spec = single_circle(0.5, v_max=3.0)
    unit = make_scenario(spec, VelocityGrid.for_spec(spec, 2), t_end=3.0, m_base=8,
                         history={"kind": "constant", "value": 1.0})
    sc = replace(unit, history={"kind": "constant", "value": 1e308})
    eng = sc.engine()
    weighted = len(eng.hist_pairs)
    assert list(eng.hist_pairs) == list(range(weighted))
    assert weighted < eng.s_max
    with np.errstate(over="ignore"):
        traj = run(sc)
    scaled = run(unit)
    for name in ("norm_history", "total_mass"):
        got = getattr(traj, name)
        assert np.isinf(got[:weighted]).all()
        np.testing.assert_allclose(got[weighted:], 1e308 * getattr(scaled, name)[weighted:],
                                   rtol=1e-12)


def test_one_lookahead_per_block(monkeypatch):
    five = heterogeneous_five(0.4)
    sc = make_scenario(five, VelocityGrid.for_spec(five, 2), t_end=2.0, m_base=8,
                       stride=5, **_RANDOM_DATA)
    eng = sc.engine()
    lookahead, calls = eng._lookahead, []

    def counted(state):
        calls.append(state.step_count)
        lookahead(state)

    monkeypatch.setattr(eng, "_lookahead", counted)
    run(sc)
    assert calls == list(range(0, sc.n_steps, eng.block))


@pytest.mark.parametrize("n_members", [1, 2, 3])
@pytest.mark.parametrize("k", [8, 32])
def test_advection_operands_start_on_a_cache_line(k, n_members):
    five = heterogeneous_five(0.4)
    sc = make_scenario(five, VelocityGrid.for_spec(five, k), t_end=0.1, m_base=8)
    state = sc.engine().init_state((sc,) * n_members)
    flat = state.density.reshape(-1)
    assert np.shares_memory(flat, state.density)
    operands = (state.c_stay, state.c_move, state.moved, flat[k:], flat[:-k],
                state.magnitude, state.sums)
    assert [x.ctypes.data % 64 for x in operands] == [0] * len(operands)


def test_records_do_not_depend_on_alignment(monkeypatch):
    five = heterogeneous_five(0.4)
    grid = VelocityGrid.for_spec(five, 8)
    members = [make_scenario(five, grid, t_end=1.0, m_base=8, stride=3, **_RANDOM_DATA),
               make_scenario(five, grid, t_end=1.0, m_base=8, stride=3,
                             initial={"kind": "constant", "value": 0.5})]
    aligned = run(*members)

    def off_line(shape):
        # the data start 16 bytes past a cache line
        n = math.prod(shape)
        buf = np.zeros(n + 10)
        first = -buf.ctypes.data % 64 // 8 + 2
        return buf[first:first + n].reshape(shape)

    monkeypatch.setattr(kinnet.simulator, "_aligned", off_line)
    fresh = [replace(m) for m in members]           # engines built anew
    state = fresh[0].engine().init_state(tuple(fresh))
    assert state.density.ctypes.data % 64 == 16
    assert fresh[0].engine().c_stay.ctypes.data % 64 == 16
    for traj, ref in zip(run(*fresh), aligned, strict=True):
        _assert_same_records(traj, ref)


@pytest.mark.parametrize("stride", [1, 3, 8, 11])
def test_trace_sums_follow_the_ring(stride, monkeypatch):
    # after each lookahead and where each record takes its history window
    # the sums are those of the K-wide ring of the traces, mirror rows
    # included, for every member
    five = heterogeneous_five(0.4)
    grid = VelocityGrid.for_spec(five, 3)
    sc = make_scenario(five, grid, t_end=1.0, m_base=8, stride=stride, **_RANDOM_DATA)
    other = replace(sc, initial={"kind": "constant", "value": -0.5},
                    history={"kind": "random_nonneg", "seed": 2})
    eng = sc.engine()
    traces = _TraceRing(eng, (sc, other), monkeypatch)
    lookahead, window, checked = eng._lookahead, eng._window, []

    def check(state):
        ring = traces.ring
        np.testing.assert_allclose(state.sums[:, 0], np.abs(ring) @ eng.dv, rtol=1e-15)
        np.testing.assert_allclose(state.sums[:, 1], ring @ eng.vdv, rtol=1e-15)
        # and the moments of every row and circle, the junction's delay reads
        np.testing.assert_allclose(state.sums[:, 2:], (ring @ eng.omega).transpose(0, 3, 1, 2),
                                   rtol=1e-15)
        checked.append(state.step_count)

    def checked_lookahead(state):
        lookahead(state)
        check(state)

    def checked_window(state):
        check(state)
        return window(state)

    monkeypatch.setattr(eng, "_lookahead", checked_lookahead)
    monkeypatch.setattr(eng, "_window", checked_window)
    run(sc, other)
    blocks = list(range(0, sc.n_steps, eng.block))
    records = sorted({min(i * stride, sc.n_steps) for i in range(sc.n_records)})
    assert sorted(checked) == sorted(blocks + records)


def _dense_junction(members, monkeypatch):
    """A lookahead for the members' engine that routes the delayed traces
    with the dense shift-free factor B, as the junction did before it read
    moments: the engine's lookahead, and then its inflows written again
    from the K-wide ring of the traces (`_TraceRing`)."""
    sc = members[0]
    eng = sc.engine()
    b = _gain_factors(sc.spec, sc.grid).dense(np.ones(sc.spec.n_circles * sc.grid.k))
    routed = np.vstack([b.T, eng.route[-1]])
    traces, L = _TraceRing(eng, members, monkeypatch), eng.block

    def dense(st):
        traces.lookahead(st)
        R, _, J, K = traces.ring.shape
        h = st.head - L
        window = traces.ring[:, h + eng.o_lo:h + eng.o_lo + eng.delay_w.shape[2]]
        junction = np.empty((R, L, J * K + 1))
        np.matmul(eng.delay_w, window.transpose(0, 2, 1, 3),
                  out=junction[:, :, :-1].reshape(R, L, J, K).transpose(0, 2, 1, 3))
        junction[:, :, -1] = st.junction[:, :, -1]
        st.density[:, eng.inflow_rows] = (junction @ routed).reshape(R, L, J, K)

    return dense


def test_an_engine_refuses_junction_operators_past_the_cap():
    # the route U is built under the same cap as B, which the engine built
    # before it read moments: 5 800 (circle, velocity cell) pairs
    spec = single_circle(0.5)
    spec = replace(spec, circles=spec.circles * 2, routing=np.full((2, 2), 0.2))
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 2900), t_end=1e-4, m_base=2)
    with pytest.raises(ValidationError, match="junction operators over"):
        sc.engine()


@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("name, spec", moment_specs(), ids=[n for n, _ in moment_specs()])
def test_moments_route_what_a_dense_b_routes(name, spec, outside, monkeypatch):
    # kernels that vary with the incoming velocity, m > 1 groups, over
    # several rebases of the ring, for a lockstep pair
    grid = VelocityGrid.for_spec(spec, 8)
    sc = make_scenario(spec, grid, t_end=6.0, m_base=8, stride=3,
                       input_outside_sum=outside, **_RANDOM_DATA)
    members = (sc, _other_members(sc)[1])
    eng = sc.engine()
    assert eng.omega.shape[1] > 1
    moments = run(*members)
    monkeypatch.setattr(eng, "_lookahead", _dense_junction(members, monkeypatch))
    for traj, ref in zip(moments, run(*members), strict=True):
        for record in _RECORDS[1:]:
            np.testing.assert_allclose(getattr(traj, record), getattr(ref, record),
                                       rtol=5e-15, atol=0)


def _per_stride_records(*members):
    """The records of the members from `record` after each stride's
    `advance`, one tuple (t, norm_state, norm_history, mass, outflux) per
    record."""
    eng = members[0].engine()
    st = eng.init_state(members)
    n_steps, stride = members[0].n_steps, members[0].stride
    records = []
    for i in range(members[0].n_records):
        eng.advance(st, min(i * stride, n_steps) - st.step_count)
        records.append((st.t, *eng.record(st)))
    return records


def _snapshot_bytes(*members):
    """Bytes of one record's snapshot: the state and the history window."""
    eng = members[0].engine()
    state = eng.init_state(members)
    return 8 * (state.density.size + eng._window(state).size)


def _chunked_run(monkeypatch, members, chunk):
    """run(*members) as trajectories, with a chunk budget of `chunk`
    snapshots (None: the default budget), and the chunk lengths it took."""
    if chunk is not None:
        monkeypatch.setattr(kinnet.simulator, "_CHUNK_BYTES",
                            chunk * _snapshot_bytes(*members))
    eng, lengths = members[0].engine(), []
    records = eng._records

    def counted(z, *rest):
        lengths.append(len(z))
        return records(z, *rest)

    monkeypatch.setattr(eng, "_records", counted)
    trajectories = run(*members)
    return (trajectories if len(members) > 1 else (trajectories,)), lengths


def _assert_equals_per_stride_records(trajectories, members):
    _assert_equals_loop(trajectories, _per_stride_records(*members), equal_nan=True)


@pytest.mark.parametrize("n_members", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 3, 8, 11])
@pytest.mark.parametrize("chunk", [1, 2, 5, None])
def test_chunked_records_equal_the_per_stride_records(chunk, stride, n_members,
                                                      monkeypatch):
    five = heterogeneous_five(0.4)
    # 61, 21, 9 and 7 records: odd, and no multiple of 5
    a, b = (replace(m, stride=stride, t_end=1.8)
            for m in _member_pair(five, m_cells=(3, 5, 4, 3, 9)))
    c = replace(b, disturbance={"kind": "pulse", "value": 2.0, "t0": 0.5, "t1": 1.5})
    members = (b, a, c)[:n_members]
    trajectories, lengths = _chunked_run(monkeypatch, members, chunk)
    n_records = members[0].n_records
    size = chunk or lengths[0]
    assert size >= 5 if chunk is None else chunk == 1 or n_records % chunk
    # a full chunk at a time, and the rest in a last, shorter one
    assert lengths == ([size] * (n_records // size)
                       + [n_records % size] * (n_records % size > 0))
    _assert_equals_per_stride_records(trajectories, members)


@pytest.mark.parametrize("chunk", [2, None])
def test_chunked_records_of_an_overflowing_member(chunk, monkeypatch):
    spec = single_circle(1e50)
    grid = VelocityGrid.for_spec(spec, 2)
    finite = make_scenario(spec, grid, t_end=3.0, m_base=8, **_RANDOM_DATA)
    hot = make_scenario(spec, grid, t_end=3.0, m_base=8,
                        initial={"kind": "constant", "value": 1e308})
    members = (finite, hot, finite)
    with np.errstate(all="ignore"):
        trajectories, lengths = _chunked_run(monkeypatch, members, chunk)
        assert not np.isfinite(trajectories[1].norm_state).all()
        assert lengths[0] == (chunk or finite.n_records) and len(lengths) > (chunk or 0)
        _assert_equals_per_stride_records(trajectories, members)


def _aligned_shapes(monkeypatch, call):
    """The shapes that call() allocates through `_aligned`."""
    shapes, aligned = [], kinnet.simulator._aligned

    def spy(shape):
        shapes.append(tuple(shape))
        return aligned(shape)

    monkeypatch.setattr(kinnet.simulator, "_aligned", spy)
    call()
    monkeypatch.setattr(kinnet.simulator, "_aligned", aligned)
    return shapes


@pytest.mark.parametrize("name", ["iss_dirac_low", "iss_two_circle", "iss_five_circle"])
def test_the_chunk_buffer_holds_at_most_128_kib(name, monkeypatch):
    # verify's runs: the scenario and its unforced companion at (32, 8)
    spec = next(s for n, s, _ in regression_suite() if n == name)
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 8), t_end=3.0, m_base=32,
                       stride=8, **_RANDOM_DATA)
    members = (replace(sc, disturbance={"kind": "zero"}), sc)
    state = _aligned_shapes(monkeypatch, lambda: sc.engine().init_state(members))
    shapes = _aligned_shapes(monkeypatch, lambda: run(*members))
    assert shapes[:len(state)] == state
    chunk = shapes[len(state):]
    assert len(chunk) == 2 and chunk[0][0] == chunk[1][0] > 1
    assert 8 * sum(math.prod(shape) for shape in chunk) <= 128 * 1024
    assert chunk[0][0] * _snapshot_bytes(*members) <= 128 * 1024


def test_a_large_run_allocates_no_chunk(monkeypatch):
    # simulate's runs: a snapshot at (128, 32) is over 128 KiB, so a chunk
    # is the live state
    five = heterogeneous_five(0.4)
    sc = make_scenario(five, VelocityGrid.for_spec(five, 32), t_end=0.05,
                       m_base=128, stride=8, **_RANDOM_DATA)
    assert _snapshot_bytes(sc) > 128 * 1024 and sc.n_records > 1
    state = _aligned_shapes(monkeypatch, lambda: sc.engine().init_state((sc,)))
    assert _aligned_shapes(monkeypatch, lambda: run(sc)) == state


def test_the_last_block_holds_the_last_input_sample(monkeypatch):
    # the last block runs past n_steps, where the input holds its last sample
    spec = single_circle(0.5)
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 2), t_end=1.0, m_base=8,
                       disturbance={"kind": "bounded_random", "bound": 0.5, "seed": 4})
    other = replace(sc, disturbance={"kind": "pulse", "t0": 0.0, "t1": 0.5})
    eng = sc.engine()
    L, n_steps = eng.block, sc.n_steps
    lookahead, inputs = eng._lookahead, {}

    def read(state):
        lookahead(state)
        inputs[state.step_count] = state.junction[:, :, -1].copy()

    monkeypatch.setattr(eng, "_lookahead", read)
    run(sc, other)
    last = max(inputs)
    assert last + L > n_steps
    u = np.array([_disturbance_samples(m) for m in (sc, other)])
    for n, got in inputs.items():
        steps = np.minimum(n + np.arange(1, L + 1), n_steps)
        assert np.array_equal(got, u[:, steps])
    assert (inputs[last][0, n_steps - last - 1:] == u[0, -1]).all()


def test_padded_input_samples_count_toward_the_cap(sc_spec, grid8):
    # n_steps + 1 samples fit, but not with the L padded for the last block
    dt = 1.0 / 1024
    random_input = {"kind": "bounded_random", "bound": 0.5, "seed": 1}
    L = make_scenario(sc_spec, grid8, t_end=1.0, dt=dt).engine().block
    n = MAX_ARRAY_VALUES - 1 - L
    sc = make_scenario(sc_spec, grid8, t_end=n * dt, dt=dt, stride=10**9,
                       disturbance=random_input)
    assert sc.engine().block == L > 1 and sc.n_steps + 1 + L == MAX_ARRAY_VALUES
    with pytest.raises(ValidationError, match="input samples"):
        make_scenario(sc_spec, grid8, t_end=(n + 1) * dt, dt=dt, stride=10**9,
                      disturbance=random_input)


def test_an_overflowing_run_turns_non_finite_at_the_reference_record():
    # the first inf is an inflow; the start node that held it reads nan one
    # step later where the reference reads the next inflow, so the records
    # agree up to that record and are non-finite from it on
    spec = single_circle(1e300)
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 2), t_end=3.0, m_base=8,
                       initial={"kind": "constant", "value": 1.0})
    with np.errstate(all="ignore"):
        traj = run(sc)
        rec, _ = _reference_run(sc)
    for name, ref in rec.items():
        ref, got = np.array(ref), getattr(traj, name)
        finite = np.isfinite(ref)
        assert not finite.all()
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-12, atol=1e-300)


def test_an_overflowing_run_raises_no_floating_point_warning():
    # outside any errstate: warnings are errors here (pyproject.toml)
    spec = single_circle(1e300)
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 2), t_end=3.0, m_base=8,
                       initial={"kind": "constant", "value": 1.0})
    traj = run(sc)
    assert not np.isfinite(traj.norm_history).all()
    assert np.geterr()["over"] == "warn"     # the caller's settings are back


# ---------------------------------------------------------------------------
# lockstep members

_LOCKSTEP_CASES = [
    (heterogeneous_five(0.4), {}),
    (_zero_kernel_network(), {}),
    (heterogeneous_five(0.4), {"input_outside_sum": True}),
]
_LOCKSTEP_IDS = ["heterogeneous_five", "zero_kernel_circle", "input_outside_sum"]


def _member_pair(spec, **kw):
    """An unforced member with unit data and a forced member with random
    data, on one engine's worth of shared settings."""
    base = dict(t_end=6.0, m_base=8, stride=3, **kw)
    grid = VelocityGrid.for_spec(spec, 4)
    unforced = make_scenario(spec, grid, **base,
                             initial={"kind": "constant", "value": 1.0},
                             history={"kind": "constant", "value": 1.0})
    forced = make_scenario(spec, grid, **base,
                           initial={"kind": "random_nonneg", "seed": 1},
                           history={"kind": "gaussian_bump", "width": 0.3},
                           disturbance={"kind": "bounded_random", "bound": 0.5,
                                        "seed": 7})
    return unforced, forced


@pytest.mark.parametrize("spec, kw", _LOCKSTEP_CASES, ids=_LOCKSTEP_IDS)
def test_lockstep_matches_separate_runs(spec, kw):
    a, b = _member_pair(spec, **kw)
    pair = run(a, b)
    assert isinstance(pair, tuple) and len(pair) == 2
    for together, alone in zip(pair, (run(a), run(b)), strict=True):
        _assert_same_records(together, alone)
        assert together.initial_data_norm == alone.initial_data_norm
    # states too, and a forced member's input goes to that member only
    eng = a.engine()
    both, each = eng.init_state((a, b)), [eng.init_state((m,)) for m in (a, b)]
    for _ in range(a.n_steps):
        eng.advance(both, 1)
        for r, st in enumerate(each):
            eng.advance(st, 1)
            np.testing.assert_allclose(both.density[r, eng.node_rows],
                                       st.density[0, eng.node_rows],
                                       rtol=1e-12, atol=1e-300)
            # the block's |trace| and the sums of every trace
            np.testing.assert_allclose(both.magnitude[r], st.magnitude[0],
                                       rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(both.sums[r], st.sums[0],
                                       rtol=1e-12, atol=1e-300)


def test_lockstep_returns_trajectories_in_argument_order():
    a, b = _member_pair(heterogeneous_five(0.4))
    ba = run(b, a)
    np.testing.assert_allclose(ba[0].norm_state, run(b).norm_state, rtol=1e-12)
    np.testing.assert_allclose(ba[1].norm_state, run(a).norm_state, rtol=1e-12)
    assert len(run(a, b, a)) == 3


@pytest.mark.parametrize("change", [
    {"spec": single_circle(0.6)},
    {"grid": VelocityGrid.for_spec(single_circle(0.5), 3)},
    {"dt": 0.01},
    {"t_end": 2.0},
    {"stride": 2},
    {"m_cells": (16,)},
    {"input_outside_sum": True},
], ids=lambda c: next(iter(c)))
def test_lockstep_rejects_members_that_differ_in_more_than_data(change):
    spec = single_circle(0.5)
    a = make_scenario(spec, VelocityGrid.for_spec(spec, 4), t_end=1.0,
                      m_cells=(8,), dt=0.02)
    b = replace(a, **change)
    with pytest.raises(ValidationError, match="lockstep"):
        run(a, b)
    with pytest.raises(ValidationError, match="lockstep"):
        run(b, a)


def test_lockstep_accepts_an_equal_spec_and_grid():
    spec = single_circle(0.5)
    a = make_scenario(spec, VelocityGrid.for_spec(spec, 4), t_end=1.0,
                      m_cells=(8,), dt=0.02)
    b = replace(a, spec=single_circle(0.5), grid=VelocityGrid.for_spec(spec, 4),
                initial={"kind": "constant", "value": 2.0})
    np.testing.assert_allclose(run(a, b)[1].norm_state, run(b).norm_state,
                               rtol=1e-12)


_RECORDS = ("times", "norm_state", "norm_history", "total_mass", "outflux")


def _assert_same_records(traj, ref):
    for name in _RECORDS:
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name


def test_runs_reuse_the_cached_engine_unchanged(sc_spec, grid8):
    sc = constant_scenario(sc_spec, grid8, t_end=0.5)
    engine = sc.engine()
    data = dict(vars(engine))
    run(sc)
    assert sc.engine() is engine
    other = replace(sc, disturbance={"kind": "constant", "value": 1.0})
    run(sc, other)
    assert sc.engine() is engine
    assert vars(engine).keys() == data.keys()
    assert all(vars(engine)[name] is value for name, value in data.items())
    _assert_same_records(run(sc), run(constant_scenario(sc_spec, grid8, t_end=0.5)))


def test_replace_never_reuses_a_cached_engine(sc_spec, grid8):
    sc = make_scenario(sc_spec, grid8, t_end=1.0)
    run(sc)
    forced = {"kind": "constant", "value": 1.0}
    _assert_same_records(run(replace(sc, disturbance=forced)),
                         run(make_scenario(sc_spec, grid8, t_end=1.0,
                                           disturbance=forced)))
    _assert_same_records(run(replace(sc, dt=sc.dt / 2)),
                         run(make_scenario(sc_spec, grid8, t_end=1.0,
                                           dt=sc.dt / 2)))


def test_presets_are_read_only_copies(sc_spec, grid8):
    given = {"kind": "constant", "value": 1.0}
    sc = make_scenario(sc_spec, grid8, t_end=1.0, m_base=8, initial=given,
                       history=given, disturbance=given)
    ref = run(sc)
    given["value"] = math.nan
    for name in ("initial", "history", "disturbance"):
        with pytest.raises(TypeError):
            getattr(sc, name)["value"] = math.nan
    _assert_same_records(run(sc), ref)
    _assert_same_records(run(replace(sc)), ref)
    assert replace(sc).initial == {"kind": "constant", "value": 1.0}


@pytest.mark.parametrize("name, value", [("dt", 0.001), ("dt", -1.0),
                                         ("t_end", 1.0), ("m_cells", (16,)),
                                         ("spec", single_circle(0.6))])
def test_scenario_fields_cannot_change_under_its_engine(sc_spec, grid8, name, value):
    # a changed field would be served by the engine cached for the old one
    sc = constant_scenario(sc_spec, grid8, t_end=2.0, m_base=8)
    ref = run(sc)
    with pytest.raises(FrozenInstanceError):
        setattr(sc, name, value)
    _assert_same_records(run(sc), ref)


# ---------------------------------------------------------------------------
# sign-free records

_SIGNED = {"kind": "constant", "value": -0.0}
_UNIT = {"kind": "constant", "value": 1.0}
# perfbench's data: unit, random_nonneg, a constant 0.3 history and a
# bounded random input
_BENCH_DATA = {"initial": {"kind": "random_nonneg", "seed": 1},
               "history": {"kind": "constant", "value": 0.3},
               "disturbance": {"kind": "bounded_random", "bound": 0.5, "seed": 7}}


def _record_paths(monkeypatch, eng):
    """The (chunk length, sign_free) of every `_records` call on the engine."""
    records, calls = eng._records, []

    def spied(z, window, magnitude=None, sign_free=False):
        calls.append((len(z), sign_free))
        return records(z, window, magnitude, sign_free)

    monkeypatch.setattr(eng, "_records", spied)
    return calls


@pytest.mark.parametrize("case", ["iss_dirac_low-32x8", "heterogeneous_five-128x32"])
def test_both_record_paths_give_the_same_records(case, monkeypatch):
    # a sign-free member alone takes the one node product, and in lockstep
    # with a member whose history is -0.0 the general |z| path: bit for bit
    if case.startswith("iss"):                   # verify's runs: maps, C > 1
        spec = _suite_spec("iss_dirac_low")
        sc = make_scenario(spec, VelocityGrid.for_spec(spec, 8), t_end=3.0,
                           m_base=32, stride=8, **_BENCH_DATA)
    else:                                        # simulate's: 8-step maps, C = 1
        spec = heterogeneous_five(0.4)
        sc = make_scenario(spec, VelocityGrid.for_spec(spec, 32), t_end=0.05,
                           m_base=128, stride=8, **_BENCH_DATA)
    signed = replace(sc, history=_SIGNED)
    eng = sc.engine()
    assert eng.span == 8
    assert eng.init_state((sc,)).sign_free
    assert not eng.init_state((sc, signed)).sign_free
    calls = _record_paths(monkeypatch, eng)
    alone = run(sc)
    assert {free for _, free in calls} == {True}
    chunk = calls[0][0]
    assert chunk > 1 if case.startswith("iss") else chunk == 1
    calls.clear()
    together, _ = run(sc, signed)
    assert {free for _, free in calls} == {False}
    _assert_same_records(together, alone)
    assert together.initial_data_norm == alone.initial_data_norm


@pytest.mark.parametrize("data, sign_free", [
    ({}, True),
    ({"initial": _UNIT, "history": _UNIT}, True),
    (_BENCH_DATA, True),
    ({"history": {"kind": "constant", "value": 0.0}}, True),
    ({"initial": {"kind": "constant", "value": -0.5}}, False),
    ({"initial": {"kind": "constant", "value": -0.0}}, False),
    ({"history": {"kind": "constant", "value": -0.5}}, False),
    ({"history": _SIGNED}, False),
    ({"disturbance": {"kind": "constant", "value": -0.5}}, False),
    ({"disturbance": {"kind": "pulse", "value": -0.0}}, False),
    ({"disturbance": {"kind": "bounded_random", "bound": -0.0}}, True),
])
def test_a_state_is_sign_free_unless_a_value_has_its_sign_bit_set(data, sign_free):
    spec = single_circle(0.5)
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 2), t_end=1.0, m_base=8,
                       **data)
    state = sc.engine().init_state((sc,))
    assert state.sign_free is sign_free
    # a history is read before its sums, which hold |trace| @ dv
    assert not np.signbit(state.sums[:, 0]).any()
    # run's records are those of `record`, the general reader
    _assert_equals_per_stride_records((run(sc),), (sc,))


def test_a_bound_of_minus_zero_runs_as_plus_zero():
    spec = single_circle(0.5)
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 2), t_end=1.0, m_base=8,
                       disturbance={"kind": "bounded_random", "bound": -0.0, "seed": 3})
    assert math.copysign(1.0, sc.disturbance["bound"]) == 1.0
    samples = _disturbance_samples(sc)
    assert (samples == 0.0).all() and not np.signbit(samples).any()
    _assert_same_records(run(sc), run(replace(sc, disturbance={"kind": "zero"})))


def test_an_overflowing_run_reads_the_same_on_both_paths():
    # nan from 0 * inf is nan on both paths, whatever its sign bit
    spec = single_circle(1e300)
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 2), t_end=3.0, m_base=8,
                       initial=_UNIT, history=_UNIT)
    assert sc.engine().init_state((sc,)).sign_free
    with np.errstate(all="ignore"):
        alone = run(sc)
        together, _ = run(sc, replace(sc, history=_SIGNED))
    assert not np.isfinite(alone.norm_state).all()
    for name in _RECORDS:
        got, want = getattr(together, name), getattr(alone, name)
        assert np.array_equal(np.isfinite(got), np.isfinite(want)), name
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        assert np.array_equal(got, want, equal_nan=True), name


# ---------------------------------------------------------------------------
# method-of-steps oracle

def test_against_delay_characteristic_oracle():
    l, r, gam, w = 1.0, 0.5, 0.5, 1.0
    spec = single_circle(w, gamma=gam, length=l, delay=r)
    v1 = 0.5 * (spec.v_min + spec.v_max)
    t_final = 5.0 * (l / v1 + r)

    def trace(s):
        return 1.0 if s <= 0.0 else oracle(s, l)

    def oracle(t, x):
        if t <= 0.0:
            return 1.0
        s = x / v1
        if t >= s:
            return w * trace(t - s - r) * math.exp(-gam * s)
        return math.exp(-gam * t)

    # matched grid: dt = dx / v1 (exact characteristic shift) and the delay
    # an integer number of steps
    m = 64
    g = VelocityGrid.for_spec(spec, 1)
    dx = l / m
    dt = dx / v1
    assert (r / dt) == pytest.approx(round(r / dt), abs=1e-9)
    n_steps = int(round(t_final / dt))
    t_final = n_steps * dt
    sc = make_scenario(spec, g, t_end=t_final, dt=dt, m_cells=(m,),
                       initial={"kind": "constant", "value": 1.0},
                       history={"kind": "constant", "value": 1.0})
    eng = sc.engine()
    st = eng.init_state((sc,))
    for _ in range(n_steps):
        eng.advance(st, 1)
    assert st.t == pytest.approx(t_final, abs=1e-9)
    xs = np.linspace(0.0, l, m + 1)
    ref = np.array([oracle(t_final, x) for x in xs])
    err = np.max(np.abs(st.density[0, eng.nodes[0], 0] - ref)) / np.max(np.abs(ref))
    assert err <= 0.02


# ---------------------------------------------------------------------------
# conservation and diagnostics

@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_conservation_short_run(sign):
    # the mass is signed: negative data conserve a negative mass
    spec = conservation_spec()
    g = VelocityGrid.for_spec(spec, 8)
    sc = make_scenario(spec, g, t_end=5.0, stride=8, m_base=32,
                       initial={"kind": "gaussian_bump", "width": 0.25,
                                "amplitude": sign},
                       history={"kind": "constant", "value": 0.3 * sign})
    traj = run(sc)
    m = traj.total_mass
    assert np.sign(m[0]) == sign
    assert np.max(np.abs(m - m[0])) / abs(m[0]) < 0.005


def test_trajectory_csv(tmp_path, sc_spec, grid8):
    traj = run(constant_scenario(sc_spec, grid8, t_end=1.0, stride=4))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,norm_state,norm_history,total_mass,outflux_0"
    assert len(lines) == len(traj.times) + 1


def test_record_lengths_respect_stride(sc_spec, grid8):
    sc = constant_scenario(sc_spec, grid8, t_end=1.0, stride=5)
    traj = run(sc)
    n = sc.n_steps
    expected = 1 + n // 5 + (1 if n % 5 else 0)
    assert len(traj.times) == expected
    assert traj.outflux.shape == (expected, 1)


def test_scenario_fills_default_m_cells(sc_spec, grid8):
    dt = 0.5 * sc_spec.circles[0].length / 64 / sc_spec.v_max
    sc = Scenario(spec=sc_spec, grid=grid8, dt=dt, t_end=0.1)
    assert sc.m_cells == default_m_cells(sc_spec)
    assert len(run(sc).times) == sc.n_steps + 1


def test_scenario_rejects_horizons_beyond_array_range(sc_spec, grid8):
    with pytest.raises(ValidationError, match="t_end / dt"):
        make_scenario(sc_spec, grid8, t_end=1.7e308, dt=0.001)
    with pytest.raises(ValidationError, match="record values"):
        make_scenario(sc_spec, grid8, t_end=1e6, dt=0.001)
    random_input = {"kind": "bounded_random", "bound": 0.5, "seed": 1}
    with pytest.raises(ValidationError, match="input samples"):
        make_scenario(sc_spec, grid8, t_end=1e12, dt=0.001, stride=10**9,
                      disturbance=random_input)
    # unforced, the same horizon stores no input samples
    sc = make_scenario(sc_spec, grid8, t_end=1e12, dt=0.001, stride=10**9)
    assert sc.n_records == 10**6 + 1


def test_lockstep_batch_is_capped_in_total(sc_spec, grid1, monkeypatch):
    # at K = 1 the ring's sums, 2 + m = 3 values per row of the ring stored
    # twice, are its largest array, and each member's hold 0.9 of the cap:
    # one member passes, two do not
    dt = sc_spec.circles[0].delay / (0.15 * MAX_ARRAY_VALUES)
    sc = make_scenario(sc_spec, grid1, t_end=dt, dt=dt, m_base=8)

    def no_engine(*args):
        raise AssertionError("an engine was built for an oversized batch")

    monkeypatch.setattr(kinnet.simulator, "_Engine", no_engine)
    with pytest.raises(ValidationError, match="ring values for 2 member"):
        run(sc, sc)
    # verify steps its unforced companion in lockstep with the scenario
    with pytest.raises(ValidationError, match="ring values for 2 member"):
        verify_iss(sc)


def test_lockstep_state_counts_its_tiled_coefficients(monkeypatch):
    # a member's state holds 0.2 of the cap, so two members' states hold 0.4
    # and, with the advection coefficients tiled for them, 1.2; a short delay
    # keeps the ring small
    spec = single_circle(0.5, delay=1e-3)
    m = int(0.2 * MAX_ARRAY_VALUES) - 9               # N = L + M + 1, L = 8
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 1), t_end=1e-7,
                       m_cells=(m,))

    def no_engine(*args):
        raise AssertionError("an engine was built for an oversized batch")

    monkeypatch.setattr(kinnet.simulator, "_Engine", no_engine)
    with pytest.raises(ValidationError, match="state values for 2 member"):
        run(sc, sc)
    with pytest.raises(ValidationError, match="state values for 2 member"):
        verify_iss(sc)


def test_disturbance_samples_match_the_presets():
    spec = single_circle(0.5)
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 2), t_end=1.0,
                       disturbance={"kind": "pulse", "value": 3.0, "t0": 0.2,
                                    "t1": 0.5})
    u = _disturbance_samples(sc)
    assert len(u) == sc.n_steps + 1
    assert list(u) == [3.0 if 0.2 <= n * sc.dt < 0.5 else 0.0
                       for n in range(sc.n_steps + 1)]
    sc = replace(sc, disturbance={"kind": "bounded_random", "bound": 0.5,
                                  "seed": 4})
    assert np.array_equal(_disturbance_samples(sc), np.random.default_rng(4)
                          .uniform(0.0, 0.5, sc.n_steps + 1))
    assert _disturbance_samples(replace(sc, disturbance={"kind": "zero"})) is None


def test_scenario_rejects_non_finite_times(sc_spec, grid8):
    for kw in ({"t_end": math.inf}, {"t_end": math.nan},
               {"t_end": 1.0, "dt": math.inf}, {"t_end": 1.0, "dt": math.nan},
               {"t_end": 1.0, "dt": 0.0}):
        with pytest.raises(ValidationError):
            make_scenario(sc_spec, grid8, **kw)


@pytest.mark.parametrize("kw", [
    {"t_end": True}, {"stride": True}, {"m_base": True},
    {"m_cells": (True, True)},
    {"disturbance": {"kind": "bounded_random", "bound": True, "seed": False}},
    {"initial": {"kind": "random_nonneg", "seed": True}},
], ids=["t_end", "stride", "m_base", "m_cells", "bound", "seed"])
def test_scenario_numbers_reject_booleans(kw):
    # a bool is an integer to Python, and JSON true a bool, but no scenario
    # number is a truth value
    with pytest.raises(ValidationError):
        make_scenario(conservation_spec(), k_velocity=2, **{"t_end": 1.0, **kw})

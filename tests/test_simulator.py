import math

import numpy as np
import pytest

from kinnet import (CflError, Scenario, ValidationError, VelocityGrid,
                    history_norm, init_state, make_scenario, network_bounds,
                    run, state_norm, step, total_mass)
from kinnet.simulator import default_m_cells
from kinnet.presets import conservation_spec, single_circle

from conftest import constant_scenario


def _k1_scenario(spec, t_end, m=64, **kw):
    """Single velocity cell with the time step matched to the cell speed, so
    advection is an exact shift."""
    g = VelocityGrid.for_spec(spec, 1)
    v1 = float(g.centers[0])
    l = spec.circles[0].length
    dx = l / m
    return make_scenario(spec, g, t_end=t_end, dt=dx / v1, m_cells=(m,), **kw)


# ---------------------------------------------------------------------------
# construction

def test_zero_scenario_stays_zero(sc_spec, grid8):
    sc = make_scenario(sc_spec, grid8, t_end=1.0)
    traj = run(sc)
    assert np.all(traj.norm_state == 0.0)
    assert np.all(traj.total_mass == 0.0)


def test_constant_initial_norm(sc_spec, grid8):
    sc = constant_scenario(sc_spec, grid8, t_end=1.0, history={"kind": "zero"})
    st = init_state(sc)
    expected = sum(c.length for c in sc_spec.circles) * (sc_spec.v_max - sc_spec.v_min)
    assert state_norm(st, sc) == pytest.approx(expected, abs=1e-12)
    assert total_mass(st, sc) == pytest.approx(expected, abs=1e-12)
    assert history_norm(st, sc) == 0.0


def test_random_preset_deterministic(sc_spec, grid8):
    mk = lambda: init_state(make_scenario(
        sc_spec, grid8, t_end=1.0,
        initial={"kind": "random_nonneg", "seed": 11},
        history={"kind": "random_nonneg", "seed": 12}))
    a, b = mk(), mk()
    assert np.array_equal(a.z[0], b.z[0])
    assert np.array_equal(a.buffers[0], b.buffers[0])


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
    st = step(init_state(sc), sc)
    assert np.all(st.z[0][:, 0] == 0.0)


def test_input_outside_sum_flag():
    spec = single_circle(0.0)
    g = VelocityGrid.for_spec(spec, 4)
    sc = make_scenario(spec, g, t_end=1.0, input_outside_sum=True,
                       disturbance={"kind": "constant", "value": 2.0})
    st = step(init_state(sc), sc)
    assert np.allclose(st.z[0][:, 0], 2.0 / g.centers)


def test_positivity():
    spec = single_circle(0.9)
    g = VelocityGrid.for_spec(spec, 4)
    sc = make_scenario(spec, g, t_end=4.0, stride=4,
                       initial={"kind": "random_nonneg", "seed": 2},
                       history={"kind": "random_nonneg", "seed": 3},
                       disturbance={"kind": "bounded_random", "bound": 1.0, "seed": 4},
                       record_snapshots=True)
    traj = run(sc)
    assert all(np.all(s.z[0] >= 0.0) for s in traj.snapshots)
    assert np.all(traj.norm_state >= 0.0)


def test_linearity_of_snapshots(sc_spec, grid8):
    mk = lambda init, hist: run(make_scenario(
        sc_spec, grid8, t_end=2.0, stride=8, initial=init, history=hist,
        record_snapshots=True))
    a = mk({"kind": "constant", "value": 1.0}, {"kind": "zero"})
    b = mk({"kind": "zero"}, {"kind": "constant", "value": 1.0})
    c = mk({"kind": "constant", "value": 1.0}, {"kind": "constant", "value": 1.0})
    for sa, sb, sc_ in zip(a.snapshots, b.snapshots, c.snapshots):
        assert np.allclose(sa.z[0] + sb.z[0], sc_.z[0], atol=1e-10)


def test_disturbance_homogeneity(sc_spec, grid8):
    mk = lambda val: run(make_scenario(
        sc_spec, grid8, t_end=2.0, stride=8,
        disturbance={"kind": "constant", "value": val}, record_snapshots=True))
    one, three = mk(1.0), mk(3.0)
    for s1, s3 in zip(one.snapshots, three.snapshots):
        assert np.allclose(3.0 * s1.z[0], s3.z[0], atol=1e-10)


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
    st = init_state(sc)
    for _ in range(n_steps):
        step(st, sc)
    assert st.t == pytest.approx(t_final, abs=1e-9)
    xs = np.linspace(0.0, l, m + 1)
    ref = np.array([oracle(t_final, x) for x in xs])
    err = np.max(np.abs(st.z[0][0] - ref)) / np.max(np.abs(ref))
    assert err <= 0.02


# ---------------------------------------------------------------------------
# conservation and diagnostics

def test_conservation_short_run():
    spec = conservation_spec()
    g = VelocityGrid.for_spec(spec, 8)
    sc = make_scenario(spec, g, t_end=5.0, stride=8, m_base=32,
                       initial={"kind": "gaussian_bump", "width": 0.25},
                       history={"kind": "constant", "value": 0.3})
    traj = run(sc)
    m = traj.total_mass
    assert np.max(np.abs(m - m[0])) / m[0] < 0.005


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


def test_scenario_rejects_non_finite_times(sc_spec, grid8):
    for kw in ({"t_end": math.inf}, {"t_end": math.nan},
               {"t_end": 1.0, "dt": math.inf}, {"t_end": 1.0, "dt": math.nan},
               {"t_end": 1.0, "dt": 0.0}):
        with pytest.raises(ValidationError):
            make_scenario(sc_spec, grid8, **kw)

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from kinnet import (CflError, Scenario, ValidationError, VelocityGrid,
                    history_norm, init_state, make_scenario, network_bounds,
                    run, state_norm, step, total_mass)
from kinnet.delayquad import _accumulate_density, delay_quadrature
from kinnet.operators import scattering_table
from kinnet.simulator import _disturbance_samples, default_m_cells
from kinnet.presets import (constant_kernel, conservation_spec,
                            heterogeneous_five, single_circle)

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


def test_snapshots_do_not_alias_the_live_state(sc_spec, grid8):
    sc = constant_scenario(sc_spec, grid8, t_end=1.0, record_snapshots=True)
    first, second, *_ = run(sc).snapshots
    assert np.all(first.z[0] == 1.0) and np.all(first.buffers[0] == 1.0)
    assert not np.array_equal(first.z[0], second.z[0])
    assert np.shares_memory(first.z[0], first.density)
    assert not np.shares_memory(first.density, second.density)
    assert not np.shares_memory(first.ring, second.ring)


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
    st = init_state(sc)
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
        _accumulate_density(hw, dt, -c.delay, 0.0, "const", 1.0)
        circles.append(dict(
            xw=xw, a=np.minimum(v * dt / dx, 1.0)[:, None], damp=np.exp(-q * dt),
            s=s, idx=idx, wq=wq, hw=hw, buf=st.buffers[j][:s].copy(), head=0,
            bv=None if c.scattering.is_zero() else scattering_table(c, grid)))
    z = [zj.copy() for zj in st.z]
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
        rec["total_mass"].append(norm + sum(
            c["hw"] @ (b @ (v * dv)) for b, c in zip(ordered, circles)))
        rec["outflux"].append([np.sum(v * zj[:, -1] * dv) for zj in z])
        densities.append([zj.copy() for zj in z])
    return rec, densities


def _zero_kernel_network():
    five = heterogeneous_five(0.4)
    mute = replace(five.circles[2],
                   scattering=constant_kernel(five.v_min, five.v_max, 0.0))
    return replace(five, circles=five.circles[:2] + (mute,) + five.circles[3:],
                   mass_preserving=False)


@pytest.mark.parametrize("spec, kw", [
    (heterogeneous_five(0.4), {}),
    (_zero_kernel_network(), {}),
    (heterogeneous_five(0.4), {
        "input_outside_sum": True,
        "disturbance": {"kind": "bounded_random", "bound": 0.5, "seed": 7}}),
], ids=["heterogeneous_five", "zero_kernel_circle", "input_outside_sum"])
def test_fused_engine_matches_per_circle_reference(spec, kw):
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 4), t_end=8.0,
                       m_base=8, record_snapshots=True,
                       initial={"kind": "random_nonneg", "seed": 1},
                       history={"kind": "gaussian_bump", "width": 0.3}, **kw)
    assert sc.n_steps >= 200
    assert len(set(sc.m_cells)) > 1
    traj = run(sc)
    rec, densities = _reference_run(sc)
    for snapshot, z in zip(traj.snapshots, densities, strict=True):
        for zj, ref in zip(snapshot.z, z, strict=True):
            np.testing.assert_allclose(zj, ref, rtol=1e-12, atol=1e-300)
    for name, ref in rec.items():
        np.testing.assert_allclose(getattr(traj, name), np.array(ref),
                                   rtol=1e-12, atol=1e-300)


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
    base = dict(t_end=6.0, m_base=8, stride=3, record_snapshots=True, **kw)
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
        np.testing.assert_array_equal(together.times, alone.times)
        for name in ("norm_state", "norm_history", "total_mass", "outflux"):
            np.testing.assert_allclose(getattr(together, name), getattr(alone, name),
                                       rtol=1e-12, atol=1e-300)
        assert together.initial_data_norm == pytest.approx(alone.initial_data_norm,
                                                           rel=1e-12)
        for s, ref in zip(together.snapshots, alone.snapshots, strict=True):
            assert s.density.shape == ref.density.shape
            for zj, rj, bj, bref in zip(s.z, ref.z, s.buffers, ref.buffers,
                                        strict=True):
                assert zj.shape == rj.shape and bj.shape == bref.shape
                np.testing.assert_allclose(zj, rj, rtol=1e-12, atol=1e-300)
                np.testing.assert_allclose(bj, bref, rtol=1e-12, atol=1e-300)


def test_lockstep_returns_trajectories_in_argument_order():
    a, b = _member_pair(heterogeneous_five(0.4))
    ba = run(b, a)
    np.testing.assert_allclose(ba[0].norm_state, run(b).norm_state, rtol=1e-12)
    np.testing.assert_allclose(ba[1].norm_state, run(a).norm_state, rtol=1e-12)
    assert len(run(a, b, a)) == 3


def test_lockstep_state_has_no_single_member_views():
    a, b = _member_pair(single_circle(0.5))
    st = a.engine().init_state((a, b))
    assert st.density.shape[0] == 2 and st.ring.shape[0] == 2
    with pytest.raises(ValidationError):
        st.z
    with pytest.raises(ValidationError):
        st.buffers
    assert st.member(1).z[0].shape == init_state(b).z[0].shape
    # a member steps on alone as its own run would, input included
    one, alone = st.member(1), init_state(b)
    for _ in range(5):
        step(one, b)
        step(alone, b)
    np.testing.assert_array_equal(one.density, alone.density)
    np.testing.assert_array_equal(one.ring, alone.ring)


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

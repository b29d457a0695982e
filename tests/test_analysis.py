import json
import math

import numpy as np
import pytest

from kinnet import (DomainError, ExtinctionFlag, SmallGainViolation,
                    Trajectory, VelocityGrid, disturbance_lp_norm, fit_decay,
                    make_scenario, measure_total_variation, network_bounds,
                    run, scale_spec, small_gain_certificate, spectral_abscissa,
                    sweep, verify_iss)
from kinnet.presets import (regression_suite, single_circle,
                            single_circle_threshold_w)

from conftest import constant_scenario


def _synthetic(n_fun, t_end=10.0, n=101, initial=1.0):
    t = np.linspace(0.0, t_end, n)
    norm = n_fun(t)
    zeros = np.zeros_like(t)
    return Trajectory(times=t, norm_state=norm, norm_history=zeros,
                      total_mass=norm, outflux=zeros[:, None],
                      initial_data_norm=initial)


# ---------------------------------------------------------------------------
# fit_decay

def test_fit_exact_exponential():
    traj = _synthetic(lambda t: 3.0 * np.exp(-0.7 * t))
    fit = fit_decay(traj)
    assert fit.a_hat == pytest.approx(0.7, abs=1e-6)
    assert fit.n_hat == pytest.approx(3.0, abs=1e-6)
    assert fit.residual < 1e-10


def test_fit_envelope_covers_all_samples():
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 10.0, 201)
    norm = np.exp(-0.5 * t) * (1.0 + 0.3 * rng.random(201))
    traj = Trajectory(times=t, norm_state=norm, norm_history=np.zeros_like(t),
                      total_mass=norm, outflux=norm[:, None],
                      initial_data_norm=1.0)
    fit = fit_decay(traj)
    assert np.all(norm <= fit.n_hat * np.exp(-fit.a_hat * t) + 1e-12)
    assert fit.n_hat >= 1.0


def test_fit_extinction_flag():
    traj = _synthetic(lambda t: np.where(t < 4.0, 1.0, 0.0))
    with pytest.raises(ExtinctionFlag):
        fit_decay(traj)


def test_fit_window_is_the_tail_half():
    # the first half decays at another rate, which the fit must not see
    traj = _synthetic(lambda t: np.where(t < 5.0, 9.0 * np.exp(-2.0 * t),
                                         2.0 * np.exp(-0.3 * t)))
    fit = fit_decay(traj)
    assert fit.window == (5.0, 10.0)
    assert fit.a_hat == pytest.approx(0.3, abs=1e-9)


def test_fit_matches_abscissa(sc_spec, grid8):
    traj = run(constant_scenario(sc_spec, grid8, t_end=10.0, stride=4))
    fit = fit_decay(traj)
    lam = spectral_abscissa(sc_spec, grid8).lambda_star
    assert abs(fit.a_hat - (-lam)) <= 0.15 * abs(lam)


# ---------------------------------------------------------------------------
# verify_iss

def test_verify_unforced_passes(sc_spec, grid8):
    sc = constant_scenario(sc_spec, grid8, t_end=6.0, stride=4)
    report = verify_iss(sc)
    assert report.passed
    assert report.u_norm == 0.0
    assert report.worst_margin >= 0.0
    d = report.to_dict()
    assert d["schema_version"] == 1 and d["passed"] is True
    # the scenario's read-only preset goes into the report as a plain dict
    assert json.loads(json.dumps(d))["metadata"]["disturbance"] == {"kind": "zero"}


def test_verify_requires_iss_certificate():
    spec = single_circle(2.0 * single_circle_threshold_w())
    g = VelocityGrid.for_spec(spec, 4)
    sc = constant_scenario(spec, g, t_end=2.0)
    with pytest.raises(SmallGainViolation):
        verify_iss(sc)


def test_verify_constant_input_steady_state(sc_spec, grid8):
    u0 = 0.8
    sc = make_scenario(sc_spec, grid8, t_end=15.0, stride=8,
                       disturbance={"kind": "constant", "value": u0})
    report = verify_iss(sc)
    assert report.passed
    # steady state obeys the gain bound: sup_t ||z|| <= rho * ||u||_inf
    assert float(np.max(report.norms)) <= \
        report.constants.gain * u0 * (sc_spec.v_max - sc_spec.v_min) * 1.05


def test_verify_pulse_reenters_envelope(sc_spec, grid8):
    sc = make_scenario(sc_spec, grid8, t_end=14.0, stride=4,
                       disturbance={"kind": "pulse", "value": 1.0,
                                    "t0": 1.0, "t1": 3.0})
    report = verify_iss(sc)
    assert report.passed
    env = report.envelope
    t, norms = report.times, report.norms
    i0 = int(np.searchsorted(t, 3.0))
    anchor = norms[i0] + 1e-12
    rate = 0.9 * env.a_hat
    tail = slice(i0, None)
    bound = env.n_hat * anchor * np.exp(-rate * (t[tail] - t[i0]))
    assert np.all(norms[tail] <= bound * 1.05 + 1e-9)


# (worst margin, N, a, gain) of verify_iss before its companion and disturbed
# runs were stepped in lockstep, at k = 4, m_base = 16, stride 4, unit data,
# a bounded random input of size 0.5 (seed 3), horizon 6 (l_bar/v_min + r_bar)
_VERIFY_REFERENCE = {
    "iss_dirac_low": (0.9913992652254334, 1.1209636747715965, 1.2166804197451764,
                      229.1753806957065),
    "iss_dirac_mid": (0.9992335817208652, 1.0179202000382843, 0.5763216490867094,
                      2606.6909244920507),
    "iss_exponential": (0.9999139340007147, 1.0489746461735803, 0.5138293196500202,
                        23234.833423792305),
    "iss_piecewise": (0.9999706171075841, 1.024401331900854, 0.35339925547726714,
                      54450.79121806927),
    "iss_two_circle": (0.995719811332289, 1.0490120808494445, 0.773009474111982,
                       1068.1102040845774),
    "iss_five_circle": (0.9922886499056072, 1.1146881051527084, 0.9768370769529284,
                        1280.0694594068818),
}


@pytest.mark.parametrize("name", sorted(_VERIFY_REFERENCE))
def test_verify_reports_match_the_sequential_runs(name):
    spec = {n: s for n, s, _ in regression_suite()}[name]
    b = network_bounds(spec)
    sc = constant_scenario(spec, VelocityGrid.for_spec(spec, 4),
                           t_end=6.0 * (b.l_bar / spec.v_min + b.r_bar),
                           stride=4, m_base=16,
                           disturbance={"kind": "bounded_random", "bound": 0.5,
                                        "seed": 3})
    r = verify_iss(sc)
    got = (r.worst_margin, r.constants.n_envelope, r.constants.a_rate,
           r.constants.gain)
    np.testing.assert_allclose(got, _VERIFY_REFERENCE[name], rtol=1e-10, atol=0)


def test_disturbance_norms(sc_spec, grid8):
    base = dict(t_end=4.0)
    vspan = sc_spec.v_max - sc_spec.v_min
    sc = make_scenario(sc_spec, grid8, **base,
                       disturbance={"kind": "constant", "value": 2.0})
    assert disturbance_lp_norm(sc, math.inf) == pytest.approx(2.0 * vspan)
    assert disturbance_lp_norm(sc, 2.0) == pytest.approx(2.0 * vspan * 2.0)
    sc = make_scenario(sc_spec, grid8, **base,
                       disturbance={"kind": "pulse", "value": 3.0,
                                    "t0": 1.0, "t1": 2.0})
    assert disturbance_lp_norm(sc, 1.0) == pytest.approx(3.0 * vspan)
    # the run starts at t = 0: a pulse before it is no input at all, and one
    # across it counts from 0
    for t0, t1, inf_norm, two_norm in ((-5.0, -1.0, 0.0, 0.0),
                                       (-5.0, 1.0, 3.0 * vspan, 3.0 * vspan)):
        sc = make_scenario(sc_spec, grid8, **base,
                           disturbance={"kind": "pulse", "value": 3.0,
                                        "t0": t0, "t1": t1})
        assert disturbance_lp_norm(sc, math.inf) == inf_norm
        assert disturbance_lp_norm(sc, 2.0) == pytest.approx(two_norm)
    sc = make_scenario(sc_spec, grid8, **base,
                       disturbance={"kind": "bounded_random", "bound": 0.5,
                                    "seed": 1})
    assert disturbance_lp_norm(sc, math.inf) == pytest.approx(0.5 * vspan)
    assert disturbance_lp_norm(sc, 1.0) <= 0.5 * vspan * 4.0 * 1.01
    u = np.random.default_rng(1).uniform(0.0, 0.5, sc.n_steps + 1)
    assert disturbance_lp_norm(sc, 2.0) == vspan * float(
        np.sum(np.abs(u) ** 2.0) * sc.dt) ** 0.5


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_threshold_bracketed():
    spec = single_circle(single_circle_threshold_w())
    res = sweep(spec, "routing_scale", [0.5, 0.9, 1.1, 1.5])
    assert res.threshold is not None and 0.9 <= res.threshold <= 1.1
    assert res.agreement
    assert all(b > a for a, b in zip(res.r_gains, res.r_gains[1:]))
    d = res.to_dict()
    assert d["parameter"] == "routing_scale"


def test_sweep_zero_beta_entry(sc_spec):
    res = sweep(sc_spec, "beta_scale", [0.0, 0.5, 1.0])
    assert res.r_gains[0] == 0.0
    assert res.decisions[0] == "ISS"
    assert res.agreement


def test_sweep_csv(tmp_path, sc_spec):
    res = sweep(sc_spec, "routing_scale", [0.5, 1.0])
    path = tmp_path / "sweep.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "value,r_gain,a_hat,decision"
    assert len(lines) == 3


def test_sweep_validations(sc_spec):
    with pytest.raises(DomainError):
        sweep(sc_spec, "nonsense", [1.0, 2.0])
    with pytest.raises(DomainError):
        sweep(sc_spec, "routing_scale", [1.0, 0.5])


def test_scale_spec_semantics(sc_spec):
    doubled = scale_spec(sc_spec, "routing_scale", 2.0)
    assert doubled.routing[0, 0] == pytest.approx(2.0 * sc_spec.routing[0, 0])
    shrunk = scale_spec(sc_spec, "beta_scale", 0.5)
    assert not shrunk.mass_preserving
    assert shrunk.circles[0].scattering.value == pytest.approx(
        0.5 * sc_spec.circles[0].scattering.value)
    stretched = scale_spec(sc_spec, "delay_scale", 2.0)
    c = stretched.circles[0]
    assert c.delay == pytest.approx(2.0 * sc_spec.circles[0].delay)
    assert measure_total_variation(c.delay_measure) == pytest.approx(
        measure_total_variation(sc_spec.circles[0].delay_measure))


def test_regression_suite_agreement():
    # every fixed spec's certificate matches its simulated decay or growth
    from kinnet.presets import regression_suite
    from kinnet import network_bounds

    for name, spec, expected in regression_suite():
        g = VelocityGrid.for_spec(spec, 8)
        cert = small_gain_certificate(spec, g)
        assert cert.decision == expected, name
        b = network_bounds(spec)
        t_end = 8.0 * (b.l_bar / spec.v_min + b.r_bar)
        sc = constant_scenario(spec, g, t_end=t_end, stride=8, m_base=32)
        fit = fit_decay(run(sc))
        assert (fit.a_hat > 0) == (expected == "ISS"), (name, fit.a_hat)

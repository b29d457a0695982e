import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import kinnet.analysis
import kinnet.simulator

from kinnet import (DomainError, ExtinctionFlag, SmallGainViolation,
                    Trajectory, ValidationError, VelocityGrid,
                    disturbance_lp_norm, fit_decay, load_network, make_scenario,
                    measure_total_variation, network_bounds, run, scale_spec,
                    small_gain_certificate, spectral_abscissa, sweep,
                    verify_iss)
from kinnet.presets import (regression_suite, single_circle,
                            single_circle_threshold_w)

from conftest import constant_scenario, shape_doc


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


def test_fit_refuses_a_window_of_one_record(sc_spec):
    sc = make_scenario(sc_spec, VelocityGrid.for_spec(sc_spec, 2), t_end=1.0,
                       m_base=8, stride=10**6,
                       initial={"kind": "constant", "value": 1.0})
    traj = run(sc)
    assert len(traj.times) == 2
    with pytest.raises(DomainError, match="fewer than 2 records"):
        fit_decay(traj)


def test_a_fit_past_the_float_range_reads_nan_without_a_warning():
    # norm_state + norm_history overflows to inf
    t, big = np.linspace(0.0, 1.0, 5), np.full(5, 1e308)
    traj = Trajectory(times=t, norm_state=big, norm_history=big, total_mass=big,
                      outflux=big[:, None], initial_data_norm=math.inf)
    fit = fit_decay(traj)
    assert math.isnan(fit.a_hat)
    assert math.isnan(fit.n_hat)  # a nan ratio is not the larger of 1 and nan


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


def test_verify_refuses_an_input_term_past_the_float_range():
    # rho ||u|| = 975 * 1e306 * (v_max - v_min) is inf: every margin would read nan
    spec = single_circle(0.5)
    sc = make_scenario(spec, VelocityGrid.for_spec(spec, 4), t_end=1.0, stride=2,
                       m_base=8, disturbance={"kind": "bounded_random", "bound": 1e306})
    with pytest.raises(DomainError, match=r"rho \|\|u\|\| = 974\.9.* \* 1e\+306"):
        verify_iss(sc)


def test_a_zero_input_keeps_an_input_term_of_zero(sc_spec, grid8, monkeypatch):
    # rho = inf times ||u|| = 0 would read nan
    constants = kinnet.analysis.iss_constants
    monkeypatch.setattr(kinnet.analysis, "iss_constants",
                        lambda *args: replace(constants(*args), gain=math.inf))
    sc = constant_scenario(sc_spec, grid8, t_end=2.0)
    report = verify_iss(sc)
    assert report.u_norm == 0.0 and report.passed
    assert np.isfinite(report.bounds).all()
    with pytest.raises(DomainError, match="rho"):
        verify_iss(replace(sc, disturbance={"kind": "constant", "value": 0.5}))


def test_verify_refuses_a_nan_decay_rate(sc_spec, grid8, monkeypatch):
    fit = kinnet.analysis.fit_decay
    monkeypatch.setattr(kinnet.analysis, "fit_decay",
                        lambda traj: replace(fit(traj), a_hat=math.nan))
    with pytest.raises(DomainError, match="no decay"):
        verify_iss(constant_scenario(sc_spec, grid8, t_end=2.0))


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


_BATCH_INPUTS = ({"kind": "bounded_random", "bound": 0.5, "seed": 3},
                 {"kind": "pulse", "value": 1.0, "t0": 0.5, "t1": 2.0},
                 {"kind": "constant", "value": 0.3})


@pytest.mark.parametrize("p", [math.inf, 2.0])
@pytest.mark.parametrize("name", ["iss_two_circle", "iss_five_circle"])
def test_batched_reports_match_the_per_scenario_calls(name, p):
    spec = {n: s for n, s, _ in regression_suite()}[name]
    b = network_bounds(spec)
    scenarios = [constant_scenario(spec, VelocityGrid.for_spec(spec, 4),
                                   t_end=4.0 * (b.l_bar / spec.v_min + b.r_bar),
                                   stride=4, m_base=16, disturbance=u)
                 for u in _BATCH_INPUTS]
    batch = verify_iss(*scenarios, p=p)
    assert len(batch) == len(scenarios)
    for sc, got in zip(scenarios, batch):
        ref = verify_iss(sc, p=p)
        assert got.metadata == ref.metadata and got.u_norm == ref.u_norm
        assert got.certificate == ref.certificate
        assert np.array_equal(got.times, ref.times)
        for field in ("norms", "bounds", "worst_margin"):
            np.testing.assert_allclose(getattr(got, field), getattr(ref, field),
                                       rtol=1e-12, atol=0, err_msg=field)
        # the companion runs with R = 4 members here and R = 2 there
        for mine, theirs in ((got.envelope, ref.envelope),
                             (got.constants, ref.constants)):
            np.testing.assert_allclose(np.hstack(list(vars(mine).values())),
                                       np.hstack(list(vars(theirs).values())),
                                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("field", ["initial", "history"])
def test_batched_scenarios_share_the_unforced_data(sc_spec, grid8, field):
    a = constant_scenario(sc_spec, grid8, t_end=2.0)
    b = replace(a, **{field: {"kind": "constant", "value": 2.0}})
    with pytest.raises(ValidationError, match=field):
        verify_iss(a, b)
    with pytest.raises(ValidationError, match=field):
        verify_iss(b, a)


def test_an_empty_preset_is_the_zero_preset(sc_spec, grid8):
    # both switch a single verify to unit companion data, and a batch may mix
    # them
    zero = make_scenario(sc_spec, grid8, t_end=2.0, initial={"kind": "zero"},
                         history={"kind": "zero"},
                         disturbance={"kind": "constant", "value": 0.5})
    empty = replace(zero, initial={}, history={})
    assert verify_iss(empty).to_dict() == verify_iss(zero).to_dict()
    ref = verify_iss(zero, zero)
    for got, want in zip(verify_iss(empty, zero), ref):
        assert got.to_dict() == want.to_dict()
        np.testing.assert_array_equal(got.bounds, want.bounds)


def test_batched_presets_compare_with_their_defaults_filled_in(sc_spec, grid8):
    # {"kind": "constant"} reads value 1.0: the same data as the preset that
    # writes it out, so the two scenarios may share one unforced companion
    given = make_scenario(sc_spec, grid8, t_end=2.0, initial={"kind": "constant"},
                          disturbance={"kind": "constant", "value": 0.5})
    spelled = replace(given, initial={"kind": "constant", "value": 1.0})
    for got, want in zip(verify_iss(given, spelled), verify_iss(given, given)):
        assert got.to_dict() == want.to_dict()
        np.testing.assert_array_equal(got.bounds, want.bounds)
    with pytest.raises(ValidationError, match="must share initial"):
        verify_iss(given, replace(given, initial={"kind": "constant", "value": 2.0}))


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


def test_random_input_is_drawn_once_for_the_run_and_its_norm(sc_spec, grid8,
                                                             monkeypatch):
    draws = []
    draw = kinnet.simulator._draw_samples
    monkeypatch.setattr(kinnet.simulator, "_draw_samples",
                        lambda sc: draws.append(sc) or draw(sc))
    sc = make_scenario(sc_spec, grid8, t_end=4.0, m_base=8, stride=4,
                       initial={"kind": "constant", "value": 1.0},
                       disturbance={"kind": "bounded_random", "bound": 0.5,
                                    "seed": 3})
    report = verify_iss(sc, p=2.0)
    assert draws == [sc]
    # the engine's inputs and the norm read the one array, which nothing
    # can write into
    u = kinnet.simulator._disturbance_samples(sc)
    state = sc.engine().init_state((sc,))
    assert draws == [sc] and not u.flags.writeable
    np.testing.assert_array_equal(state.inputs[0], u)
    np.testing.assert_array_equal(
        u, np.random.default_rng(3).uniform(0.0, 0.5, sc.n_steps + 1))
    vspan = sc_spec.v_max - sc_spec.v_min
    assert report.u_norm == vspan * float(np.sum(u ** 2.0) * sc.dt) ** 0.5
    # replace draws for the new scenario
    assert kinnet.simulator._disturbance_samples(replace(sc)) is not u
    assert len(draws) == 2


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


def _every_kind():
    """The regression suite and the shape document: between them every
    absorption, scattering and delay measure kind."""
    return [spec for _, spec, _ in regression_suite()] + [load_network(shape_doc())]


def _scaled_config(doc, parameter, s):
    """The config of scale_spec(spec, parameter, s) for doc = spec.to_config(),
    worked out node by node from each kind's own keys."""
    doc = copy.deepcopy(doc)
    for c in doc["circles"]:
        k, m = c["scattering"], c["delay_measure"]
        if parameter == "beta_scale":
            if k["kind"] == "constant":
                k["value"] *= s
            elif k["kind"] == "separable":  # one factor carries the scale
                k["out_values"] = [v * s for v in k["out_values"]]
            else:
                k["values"] = [[v * s for v in row] for row in k["values"]]
            continue
        c["delay"] *= s
        if m["kind"] == "exponential":
            m["theta"] /= s
        elif m["kind"] == "piecewise":
            m["atoms"] = [[pos * s, mass] for pos, mass in m["atoms"]]
            m["density_edges"] = [e * s for e in m["density_edges"]]
            m["density_values"] = [v / s for v in m["density_values"]]
    if parameter == "beta_scale" and s != 1.0:
        doc["flags"]["mass_preserving"] = False
    return doc


@pytest.mark.parametrize("parameter", ["beta_scale", "delay_scale"])
def test_scale_spec_scales_every_kind(parameter):
    for spec in _every_kind():
        for s in (0.37, 2.0):
            assert (scale_spec(spec, parameter, s).to_config()
                    == _scaled_config(spec.to_config(), parameter, s))


def test_beta_scale_scales_the_gain():
    for spec in _every_kind():
        g = VelocityGrid.for_spec(spec, 8)
        r_gain = small_gain_certificate(spec, g).r_gain
        for s in (0.37, 2.0):
            scaled = small_gain_certificate(scale_spec(spec, "beta_scale", s), g)
            assert scaled.r_gain == pytest.approx(s * r_gain, rel=1e-12)


@pytest.mark.parametrize("value", [0.0, 1e-320])
@pytest.mark.parametrize("measure", ["dirac", "exponential", "piecewise"])
def test_delay_scale_must_have_a_finite_reciprocal(measure, value):
    # densities and exponential rates divide by the stretch
    with pytest.raises(DomainError, match="delay_scale"):
        scale_spec(single_circle(0.5, measure=measure), "delay_scale", value)


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

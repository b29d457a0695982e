import math

import numpy as np
import pytest

from kinnet import (BracketError, DomainError, SmallGainViolation,
                    VelocityGrid, assemble_gain, c_check, iss_constants,
                    resolvent_constant_c, small_gain_certificate,
                    spectral_abscissa, spectral_radius,
                    apply_history_resolvent, apply_transport_resolvent)
from kinnet.presets import (heterogeneous_five, single_circle,
                            single_circle_lambda_star,
                            single_circle_threshold_w)


# ---------------------------------------------------------------------------
# spectral radius

def test_radius_diagonal():
    assert spectral_radius(np.diag([0.2, 3.0, 1.0])) == pytest.approx(3.0, abs=1e-9)


def test_radius_antidiagonal_cycling():
    # power iteration alternates on this one; the squaring fallback decides
    a = np.array([[0.0, 2.0], [0.5, 0.0]])
    assert spectral_radius(a) == pytest.approx(1.0, abs=1e-8)


def test_radius_nilpotent_is_zero():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert spectral_radius(a) == 0.0


def test_radius_input_checks():
    with pytest.raises(DomainError):
        spectral_radius(np.array([[-1.0]]))
    with pytest.raises(DomainError):
        spectral_radius(np.eye(2), tol=0.0)


def test_radius_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            spectral_radius(np.full((4, 4), bad))
    a = np.eye(3)
    a[0, 2] = math.nan
    with pytest.raises(DomainError, match="finite"):
        spectral_radius(a)


def test_radius_matches_eig_on_random_nonneg():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.random((6, 6))
        ref = max(abs(np.linalg.eigvals(a)))
        assert spectral_radius(a) == pytest.approx(ref, abs=1e-8)


# ---------------------------------------------------------------------------
# certificates

def test_certificate_decisions():
    g = lambda s: VelocityGrid.for_spec(s, 1)
    wstar = single_circle_threshold_w()
    iss = single_circle(0.5 * wstar)
    hot = single_circle(1.5 * wstar)
    near = single_circle(wstar * (1.0 + 1e-4))
    assert small_gain_certificate(iss, g(iss)).decision == "ISS"
    assert small_gain_certificate(hot, g(hot)).decision == "NOT_ISS"
    assert small_gain_certificate(near, g(near)).decision == "INCONCLUSIVE"


def test_certificate_zero_scattering():
    spec = single_circle(0.5, kernel_scale=0.0)
    cert = small_gain_certificate(spec, VelocityGrid.for_spec(spec, 4))
    assert cert.r_gain == 0.0
    assert cert.decision == "ISS"


def test_certificate_sufficient_checks_applicability():
    spec = single_circle(0.5)  # dirac, mass preserving
    cert = small_gain_certificate(spec, VelocityGrid.for_spec(spec, 4))
    assert cert.sufficient_checks["example1_bound"].status != "not_applicable"
    assert cert.sufficient_checks["example2_bound"].status == "not_applicable"
    assert cert.sufficient_checks["C1_condition"].status != "not_applicable"
    spec = single_circle(0.5, measure="exponential", theta_rate=2.0)
    cert = small_gain_certificate(spec, VelocityGrid.for_spec(spec, 4))
    assert cert.sufficient_checks["example2_bound"].status != "not_applicable"
    assert cert.sufficient_checks["example1_bound"].status == "not_applicable"


def test_certificate_serialization():
    spec = single_circle(0.5)
    cert = small_gain_certificate(spec, VelocityGrid.for_spec(spec, 2))
    d = cert.to_dict()
    assert d["schema_version"] == 1
    assert d["decision"] == "ISS"


# ---------------------------------------------------------------------------
# abscissa

def test_abscissa_matches_closed_form():
    spec = single_circle(0.5)
    g = VelocityGrid.for_spec(spec, 1)
    res = spectral_abscissa(spec, g, tol=1e-8)
    assert res.lambda_star == pytest.approx(single_circle_lambda_star(spec), abs=1e-6)
    assert res.bracket_width <= 1e-8


def test_abscissa_positive_for_supercritical():
    spec = single_circle(2.0 * single_circle_threshold_w())
    g = VelocityGrid.for_spec(spec, 1)
    assert spectral_abscissa(spec, g).lambda_star > 0.0


def test_abscissa_unbounded_below_without_scattering():
    # free transport has empty junction feedback: r stays 0 for every shift
    spec = single_circle(0.5, kernel_scale=0.0)
    with pytest.raises(BracketError):
        spectral_abscissa(spec, VelocityGrid.for_spec(spec, 2))


# ---------------------------------------------------------------------------
# resolvents

def test_transport_resolvent_constant_data():
    spec = single_circle(0.5, gamma=0.4, length=1.0)
    g = VelocityGrid.for_spec(spec, 4)
    n_x = 400
    f = [np.ones((g.k, n_x + 1))]
    lam = 0.9
    out = apply_transport_resolvent(spec, g, lam, f, n_x)[0]
    xs = np.linspace(0.0, 1.0, n_x + 1)
    for k, v in enumerate(g.centers):
        mu = (lam + 0.4) / v
        ref = (1.0 - np.exp(-mu * xs)) / (lam + 0.4)
        assert np.allclose(out[k], ref, atol=1e-5)


def test_history_resolvent_constant_data():
    spec = single_circle(0.5, delay=0.8)
    g = VelocityGrid.for_spec(spec, 2)
    n_t = 400
    phi = [np.ones((n_t + 1, g.k))]
    lam = 1.3
    out = apply_history_resolvent(spec, g, lam, phi, n_t)[0]
    th = np.linspace(-0.8, 0.0, n_t + 1)
    ref = (1.0 - np.exp(lam * th)) / lam
    assert np.allclose(out[:, 0], ref, atol=1e-5)


def test_resolvent_constant_validations():
    spec = single_circle(0.5)
    g = VelocityGrid.for_spec(spec, 2)
    with pytest.raises(DomainError):
        resolvent_constant_c(spec, g, lam=-0.5, samples=2)
    c1 = resolvent_constant_c(spec, g, lam=1.0, samples=4, seed=5)
    c2 = resolvent_constant_c(spec, g, lam=1.0, samples=4, seed=5)
    assert c1 == c2 and c1 > 0.0


# ---------------------------------------------------------------------------
# constants

def test_c_check_three_cases():
    n, a, c = 2.0, 0.5, 0.25
    assert c_check(n, a, c, 1.0) == pytest.approx(n / c)
    assert c_check(n, a, c, math.inf) == pytest.approx(n / (a * c))
    p = 2.0
    mid = (n / c) * ((p - 1) / (p * a)) ** ((p - 1) / p)
    assert c_check(n, a, c, p) == pytest.approx(mid)
    with pytest.raises(DomainError):
        c_check(-1.0, a, c, 2.0)
    with pytest.raises(DomainError):
        c_check(n, a, c, 0.5)


def test_iss_constants_small_gain_guard():
    spec = single_circle(3.0 * single_circle_threshold_w())
    g = VelocityGrid.for_spec(spec, 2)
    with pytest.raises(SmallGainViolation):
        iss_constants(spec, g, math.inf, (1.0, 0.5), c_resolvent=0.1)


def test_iss_constants_values():
    spec = single_circle(0.3)
    g = VelocityGrid.for_spec(spec, 4)
    consts = iss_constants(spec, g, math.inf, (1.5, 0.4), c_resolvent=0.2)
    assert consts.pd_norm < 1.0
    assert consts.c_check_p == pytest.approx(1.5 / (0.4 * 0.2))
    assert consts.gain > 0.0
    assert consts.to_dict()["schema_version"] == 1

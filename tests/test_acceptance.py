"""Acceptance gate: one test per criterion, each printing a pass/fail line."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from kinnet import (AbsorptionProfile, CircleSpec, DelayMeasure, NetworkSpec,
                    ScatteringKernel, VelocityGrid, assemble_gain, c_check,
                    dirichlet_norm_closed_form, fit_decay, make_scenario,
                    network_bounds, pd_norm_closed_form, run,
                    small_gain_certificate, spectral_abscissa, spectral_radius,
                    verify_iss)
from kinnet.operators import BlockOperator
from kinnet.presets import (conservation_spec, constant_kernel,
                            heterogeneous_five, random_spec, regression_suite,
                            single_circle, single_circle_threshold_w)

from conftest import constant_scenario, survival_factor
from pd_oracle import assemble_pd


def _report(num, name, ok):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# 1. small-gain threshold on the closed-form single-circle family

def test_criterion_1_small_gain_threshold():
    t0 = time.perf_counter()
    wstar = single_circle_threshold_w()

    def r_of(w):
        spec = single_circle(w)
        return small_gain_certificate(spec, VelocityGrid.for_spec(spec, 1)).r_gain

    lo, hi = 0.5 * wstar, 2.0 * wstar
    while hi - lo > 1e-8 * wstar:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if r_of(mid) < 1.0 else (lo, mid)
    flip_ok = abs(0.5 * (lo + hi) - wstar) < 1e-6

    signs_ok = True
    for gain in (0.5, 0.8, 1.25, 2.0):
        spec = single_circle(gain * wstar)
        g = VelocityGrid.for_spec(spec, 1)
        fit = fit_decay(run(constant_scenario(spec, g, t_end=12.0, stride=4)))
        signs_ok &= abs(fit.a_hat) > 0.01
        signs_ok &= (fit.a_hat > 0) == (gain < 1.0)

    elapsed = time.perf_counter() - t0
    ok = _report(1, "small-gain threshold", flip_ok and signs_ok and elapsed < 30)
    assert ok, (flip_ok, signs_ok, elapsed)


# ---------------------------------------------------------------------------
# 2. fitted decay rate matches the dominant shift

def test_criterion_2_decay_rate_prediction():
    t0 = time.perf_counter()
    specs = [
        single_circle(0.5),
        single_circle(0.7, gamma=0.3, delay=0.4, length=0.8),
        single_circle(0.6, measure="exponential", theta_rate=1.5),
        heterogeneous_five(0.4),
    ]
    ok = True
    detail = []
    for spec in specs:
        for m_base, kv, tol in ((64, 16, 0.15), (128, 32, 0.08)):
            g = VelocityGrid.for_spec(spec, kv)
            lam = spectral_abscissa(spec, g).lambda_star
            t_end = max(20.0, 12.0 / max(abs(lam), 0.3))
            sc = constant_scenario(spec, g, t_end=t_end, stride=8, m_base=m_base)
            fit = fit_decay(run(sc))
            rel = abs(fit.a_hat + lam) / abs(lam)
            detail.append(rel)
            ok &= rel <= tol
    elapsed = time.perf_counter() - t0
    ok = _report(2, "decay-rate prediction", ok and elapsed < 180)
    assert ok, (detail, elapsed)


# ---------------------------------------------------------------------------
# 3. factorization: r(PD_0)^2 = r(gain_0)

def test_criterion_3_factorization():
    worst = 0.0
    for _, spec, _ in regression_suite():
        g = VelocityGrid.for_spec(spec, 8)
        r_gain = spectral_radius(assemble_gain(spec, g, 0.0).operator, tol=1e-12)
        r_pd = spectral_radius(assemble_pd(spec, g, 0.0), tol=1e-12)
        worst = max(worst, abs(r_pd ** 2 - r_gain))
    ok = _report(3, "factorization consistency", worst < 1e-8)
    assert ok, worst


# ---------------------------------------------------------------------------
# 4. closed-form bounds dominate the discretized quantities

def test_criterion_4_closed_form_bounds_dominate():
    worst = -math.inf
    for family in ("estimate", "example1", "example2", "c1"):
        for seed in range(50):
            spec = random_spec(seed, family)
            g = VelocityGrid.for_spec(spec, 8)
            b = network_bounds(spec)
            exp_factor = math.exp(b.gamma_bar * b.l_bar / spec.v_min)
            if family == "estimate":
                margin = assemble_pd(spec, g, 0.0).norm() - pd_norm_closed_form(spec)
            elif family == "example1":
                bound = (b.beta_bar * spec.v_max
                         * math.log(spec.v_max / spec.v_min)
                         * exp_factor * b.routing_norm)
                margin = spectral_radius(assemble_gain(spec, g, 0.0).operator) - bound
            elif family == "example2":
                bound = b.r_bar * (spec.v_max / spec.v_min) * exp_factor * b.routing_norm
                margin = spectral_radius(assemble_gain(spec, g, 0.0).operator) - bound
            else:
                d0_bound, k_bound = dirichlet_norm_closed_form(spec)
                survival = [survival_factor(c, 0.0, v, c.length)
                            for c in spec.circles for v in g.centers]
                d0_norm = BlockOperator(np.diag(survival),
                                        np.tile(g.widths, spec.n_circles)).norm()
                margin = max(d0_norm - d0_bound,
                             float(np.max(np.sum(spec.routing, axis=0))) - k_bound)
            worst = max(worst, margin)
    ok = _report(4, "closed-form bounds dominate", worst <= 1e-9)
    assert ok, worst


# ---------------------------------------------------------------------------
# 5. ISS estimate holds trajectory-wise under bounded disturbances

def test_criterion_5_iss_estimate():
    t0 = time.perf_counter()
    worst = 1.0
    for name, spec, _ in (s for s in regression_suite() if s[2] == "ISS"):
        g = VelocityGrid.for_spec(spec, 8)
        b = network_bounds(spec)
        t_end = 12.0 * (b.l_bar / spec.v_min + b.r_bar)
        # one batched call per spec: the seeds differ only in the input
        reports = verify_iss(*(
            constant_scenario(
                spec, g, t_end=t_end, stride=8, m_base=32,
                disturbance={"kind": "bounded_random", "bound": 0.5, "seed": seed})
            for seed in range(20)), p=math.inf)
        worst = min(worst, *(r.worst_margin for r in reports))
    elapsed = time.perf_counter() - t0
    ok = _report(5, "ISS estimate", worst >= -0.05 and elapsed < 300)
    assert ok, (worst, elapsed)


# ---------------------------------------------------------------------------
# 6. conservation and first-order drift decay

def test_criterion_6_conservation():
    spec = conservation_spec()
    b = network_bounds(spec)
    t_end = 10.0 * (b.l_bar / spec.v_min + b.r_bar)
    drifts = []
    for m_base, kv in ((64, 16), (128, 32)):
        g = VelocityGrid.for_spec(spec, kv)
        sc = make_scenario(spec, g, t_end=t_end, stride=8, m_base=m_base,
                           initial={"kind": "gaussian_bump", "width": 0.25},
                           history={"kind": "constant", "value": 0.3})
        m = run(sc).total_mass
        drifts.append(float(np.max(np.abs(m - m[0])) / m[0]))
    ok = _report(6, "conservation",
                 drifts[0] < 0.005 and drifts[1] < 0.75 * drifts[0])
    assert ok, drifts


# ---------------------------------------------------------------------------
# 7. vanishing junction operator at large shifts

def test_criterion_7_vanishing_gain_limit():
    norms_ok = True
    ladders_ok = True
    for _, spec, _ in regression_suite():
        g = VelocityGrid.for_spec(spec, 8)
        b = network_bounds(spec)
        lam_big = 50.0 * spec.v_max * max(1.0, b.gamma_bar) / b.l_under
        norms_ok &= assemble_pd(spec, g, lam_big).norm() < 1e-6
        radii = [spectral_radius(assemble_gain(spec, g, lam).operator)
                 for lam in (0.0, 0.5, 1.0, 2.0, 4.0)]
        ladders_ok &= all(b_ < a_ for a_, b_ in zip(radii, radii[1:]))
    ok = _report(7, "vanishing-gain limit", norms_ok and ladders_ok)
    assert ok, (norms_ok, ladders_ok)


# ---------------------------------------------------------------------------
# 8. gain entries against brute-force adaptive quadrature

def _oracle_gain_entry(spec, grid, i, k, j, kp):
    c = spec.circles[j]
    v_out, v_in = grid.centers[k], grid.centers[kp]
    m = c.delay_measure
    if m.kind == "dirac":
        laplace0 = 1.0
    elif m.kind == "exponential":
        laplace0, _ = quad(lambda th: math.exp(m.theta_rate * th), -m.r, 0.0)
    else:
        laplace0 = sum(mass for _, mass in m.atoms)
        for (a, b_), val in zip(zip(m.density_edges, m.density_edges[1:]),
                                m.density_values):
            seg, _ = quad(lambda th: val, a, b_)
            laplace0 += seg
    a = c.absorption
    if a.kind == "constant":
        q_int = a.value * c.length
    else:
        q_int, _ = quad(lambda x: a.q(x, v_in), 0.0, c.length,
                        points=list(a.x_edges), limit=200)
    survival = math.exp(-q_int / v_in)
    return (spec.routing[i, j] * laplace0 * c.scattering.beta(v_out, v_in)
            * v_in * grid.widths[kp] / v_out * survival)


def _oracle_specs():
    tab_q = AbsorptionProfile(kind="tabulated", x_edges=(0.0, 0.4, 1.0),
                              v_edges=(1.0, 1.5, 2.0),
                              values=((0.2, 0.5), (0.7, 0.1)))
    mk = lambda measure, absorption: NetworkSpec(
        circles=(CircleSpec(length=1.0, absorption=absorption,
                            scattering=constant_kernel(1.0, 2.0),
                            delay_measure=measure),),
        routing=np.array([[0.6]]), v_min=1.0, v_max=2.0)
    const_q = AbsorptionProfile(kind="constant", value=0.4)
    dirac = DelayMeasure(kind="dirac", r=0.5)
    expm = DelayMeasure(kind="exponential", r=0.5, theta_rate=2.0)
    pw = DelayMeasure(kind="piecewise", r=0.5, atoms=((-0.25, 0.3),),
                      density_edges=(-0.5, 0.0), density_values=(0.9,))
    two = NetworkSpec(
        circles=(
            CircleSpec(length=0.8, absorption=tab_q,
                       scattering=ScatteringKernel(
                           kind="separable", v_edges=(1.0, 1.5, 2.0),
                           out_values=(0.8, 1.2), in_values=(0.9, 1.1)),
                       delay_measure=dirac),
            CircleSpec(length=1.2, absorption=const_q,
                       scattering=constant_kernel(1.0, 2.0, 0.7),
                       delay_measure=expm),
        ),
        routing=np.array([[0.2, 0.5], [0.7, 0.1]]), v_min=1.0, v_max=2.0)
    return [
        (mk(dirac, const_q), 1e-8),
        (mk(expm, const_q), 1e-8),
        (mk(pw, tab_q), 1e-6),
        (mk(dirac, tab_q), 1e-6),
        (two, 1e-6),
    ]


def test_criterion_8_quadrature_oracle():
    worst = 0.0
    ok = True
    for spec, tol in _oracle_specs():
        g = VelocityGrid.for_spec(spec, 4)
        mat = assemble_gain(spec, g, 0.0).operator.matrix
        J, K = spec.n_circles, g.k
        for i in range(J):
            for j in range(J):
                for k in range(K):
                    for kp in range(K):
                        ref = _oracle_gain_entry(spec, g, i, k, j, kp)
                        err = abs(mat[i * K + k, j * K + kp] - ref)
                        worst = max(worst, err)
                        ok &= err <= tol
    ok = _report(8, "quadrature oracle", ok)
    assert ok, worst


# ---------------------------------------------------------------------------
# 9. admissibility constant formula and its limits

def test_criterion_9_constants_plumbing():
    cases_ok = True
    for n, a, c in ((1.0, 1.0, 1.0), (2.5, 0.3, 0.8), (7.0, 4.0, 0.05)):
        cases_ok &= c_check(n, a, c, 1.0) == pytest.approx(n / c, abs=1e-12)
        cases_ok &= c_check(n, a, c, math.inf) == pytest.approx(
            n / (a * c), abs=1e-12)
        p = 2.0
        mid = (n / c) * ((p - 1.0) / (p * a)) ** ((p - 1.0) / p)
        cases_ok &= c_check(n, a, c, p) == pytest.approx(mid, abs=1e-12)
        # middle case converges to both endpoint cases (rate eps*log(eps))
        cases_ok &= abs(c_check(n, a, c, 1.0 + 1e-13) - n / c) < 1e-9
        cases_ok &= abs(c_check(n, a, c, 1e11) - n / (a * c)) < 1e-9 * n / (a * c)
    ok = _report(9, "constants plumbing", cases_ok)
    assert ok

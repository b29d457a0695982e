import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kinnet.operators
import kinnet.spectral
from kinnet import (AbsorptionProfile, BlockOperator, BracketError, CircleSpec,
                    DelayMeasure, DomainError, NetworkSpec, ScatteringKernel,
                    SmallGainViolation, VelocityGrid, assemble_gain, assemble_pd, c_check,
                    iss_constants,
                    resolvent_constant_c, small_gain_certificate,
                    spectral_abscissa, spectral_radius)
from kinnet.presets import (heterogeneous_five, regression_suite,
                            single_circle, single_circle_lambda_star,
                            single_circle_threshold_w)

DENSE_EIGVALS = np.linalg.eigvals


def _dense_radius(a):
    return float(np.max(np.abs(DENSE_EIGVALS(a))))


@pytest.fixture
def fallbacks(monkeypatch):
    """Shapes of the matrices that spectral_radius hands to the dense
    eigenvalue fallback."""
    calls = []

    def counted(a):
        calls.append(np.shape(a))
        return DENSE_EIGVALS(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


# ---------------------------------------------------------------------------
# spectral radius

def test_radius_diagonal():
    assert spectral_radius(np.diag([0.2, 3.0, 1.0])) == pytest.approx(3.0, abs=1e-9)


def test_radius_reducible_takes_dense_fallback(fallbacks):
    # the bracket stays at [0.2, 3] on a diagonal matrix: only eigvals decide
    assert spectral_radius(np.diag([0.2, 3.0, 1.0])) == 3.0
    assert fallbacks == [(3, 3)]


def test_radius_antidiagonal_cycling(fallbacks):
    # plain power iteration alternates on this one; the shifted bracket closes
    a = np.array([[0.0, 2.0], [0.5, 0.0]])
    assert spectral_radius(a) == pytest.approx(1.0, abs=1e-8)
    assert fallbacks == []


def test_radius_nilpotent_is_zero():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert spectral_radius(a) == 0.0


def test_radius_input_checks():
    with pytest.raises(DomainError):
        spectral_radius(np.array([[-1.0]]))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_radius_and_abscissa_reject_a_bad_tol(tol, sc_spec, grid8):
    # at the abscissa's stop rule, tol <= 0 never ends the loop and nan or
    # inf end it at once
    with pytest.raises(DomainError, match="tol"):
        spectral_radius(assemble_gain(sc_spec, grid8, 0.0).operator, tol=tol)
    with pytest.raises(DomainError, match="tol"):
        spectral_abscissa(sc_spec, grid8, tol=tol)


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


@pytest.mark.parametrize("k", [8, 32])
def test_radius_matches_dense_on_regression_operators(k, fallbacks):
    for name, spec, _ in regression_suite():
        grid = VelocityGrid.for_spec(spec, k)
        ops = [assemble_pd(spec, grid, 0.0).matrix]
        ops += [assemble_gain(spec, grid, lam).operator.matrix
                for lam in (-5.0, 0.0, 10.0)]
        for a in ops:
            ref = _dense_radius(a)
            assert abs(spectral_radius(a) - ref) <= 1e-9 * ref, name
    assert fallbacks == []


def _periodic_matrices():
    rng = np.random.default_rng(11)
    cycle = np.roll(np.eye(5), 1, axis=1)
    weighted = cycle * rng.uniform(0.5, 2.0, 5)[:, None]
    b, c = rng.random((4, 6)), rng.random((6, 4))
    antidiagonal = np.block([[np.zeros((4, 4)), b], [c, np.zeros((6, 6))]])
    three_cycle = np.roll(np.eye(3), 1, axis=1) * rng.uniform(0.5, 2.0, 3)[:, None]
    return {"cycle": cycle, "weighted": weighted, "antidiagonal": antidiagonal,
            "three_cycle": three_cycle}


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_radius_periodic_converges_at_every_scale(scale, fallbacks):
    for a in _periodic_matrices().values():
        ref = _dense_radius(scale * a)
        assert abs(spectral_radius(scale * a) - ref) <= 1e-9 * ref
    assert fallbacks == []


class _CountedMatrix(np.ndarray):
    """A matrix that counts its products a @ x, one per Collatz-Wielandt step."""

    def __matmul__(self, other):
        self.products += 1
        return np.asarray(self) @ other


def _radius_steps(a):
    """Collatz-Wielandt steps that spectral_radius takes on the matrix a."""
    counted = np.asarray(a).view(_CountedMatrix)
    counted.products = 0
    spectral_radius(BlockOperator(matrix=counted, weights=np.ones(len(a))))
    return counted.products


@pytest.mark.parametrize("k", [8, 32])
def test_radius_steps_on_gains_at_zero_shift(k):
    # constant and separable kernels make each circle's gain block rank one,
    # so the unshifted steps close the bracket fast: at once on one circle
    most = {1: 2, 2: 5, 5: 12}
    for name, spec, _ in regression_suite():
        gain = assemble_gain(spec, VelocityGrid.for_spec(spec, k), 0.0).operator
        assert _radius_steps(gain.matrix) <= most[spec.n_circles], name


# steps when every step is shifted, x <- (A + hi I) x from x = 1; the same at
# every scale
_SHIFTED_ONLY_STEPS = {"cycle": 1, "weighted": 110, "antidiagonal": 39,
                       "three_cycle": 35}


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_radius_steps_on_periodic_matrices(scale):
    # the unshifted steps stall at once on periodic input; the shift then
    # takes over and costs at most two steps more
    for name, a in _periodic_matrices().items():
        assert _radius_steps(scale * a) <= _SHIFTED_ONLY_STEPS[name] + 2, name


def _irreducible(rng, n, period):
    """A random irreducible nonnegative n x n matrix, its rows and columns
    permuted: for period p > 1 a block-cyclic matrix of period p with p
    dense positive blocks, for period 1 a random sparse pattern closed by a
    cycle through every index."""
    if period == 1:
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        a[np.arange(n), np.roll(np.arange(n), 1)] += rng.uniform(0.1, 1.0, n)
    else:
        cuts = np.sort(rng.choice(np.arange(1, n), period - 1, replace=False))
        blocks = np.split(np.arange(n), cuts)
        a = np.zeros((n, n))
        for rows, cols in zip(blocks, blocks[1:] + blocks[:1]):
            a[np.ix_(rows, cols)] = rng.uniform(0.1, 1.0, (len(rows), len(cols)))
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12),
       period=st.integers(1, 4), log_scale=st.floats(-8.0, 8.0))
def test_radius_matches_dense_on_random_irreducible(seed, n, period, log_scale):
    a = 10.0 ** log_scale * _irreducible(np.random.default_rng(seed), n, period)
    ref = _dense_radius(a)
    assert abs(spectral_radius(a) - ref) <= 1e-9 * ref


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


def _overflowing_circle(w=0.01):
    # l_bar gamma_bar / v_min = 1000: e^1000 passes float range
    return single_circle(w, v_min=1e-3, v_max=2.0, gamma=1.0)


def test_certificate_overflowing_bounds_are_inf():
    spec = _overflowing_circle()
    cert = small_gain_certificate(spec, VelocityGrid.for_spec(spec, 2))
    assert cert.decision == "ISS"
    for name in ("example1_bound", "C1_condition"):
        assert cert.sufficient_checks[name].value == math.inf
        assert cert.sufficient_checks[name].status == "fail"
        assert cert.to_dict()["sufficient_checks"][name] == {"value": "inf",
                                                             "status": "fail"}


def test_certificate_overflowing_exponential_times_zero_routing():
    spec = _overflowing_circle(w=0.0)
    cert = small_gain_certificate(spec, VelocityGrid.for_spec(spec, 2))
    assert cert.sufficient_checks["example1_bound"].value == 0.0
    assert cert.sufficient_checks["example1_bound"].status == "pass"


def test_iss_constants_reject_an_infinite_dirichlet_lift_bound():
    spec = _overflowing_circle()
    with pytest.raises(DomainError, match="Dirichlet"):
        iss_constants(spec, VelocityGrid.for_spec(spec, 2), math.inf, (1.0, 0.5))


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


def _dirac_circle(gamma, delay, mass=1.0):
    measure = (DelayMeasure(kind="dirac", r=delay) if mass == 1.0 else
               DelayMeasure(kind="piecewise", r=delay, atoms=((-delay, mass),)))
    return CircleSpec(length=1.0, delay=delay,
                      absorption=AbsorptionProfile(kind="constant", value=gamma),
                      scattering=ScatteringKernel(kind="constant", value=1.0),
                      delay_measure=measure)


def _cycle_beside_a_loop():
    """Circles 1 and 2 form a cycle with root near -9.8 whose circle-2 factor
    e^{100.7 |lam|} passes float range for lam < -7.05; circle 3 feeds itself
    with the root -8.51 of the whole gain, so that overflow lies right of it."""
    spec = NetworkSpec(circles=(_dirac_circle(1500.0, 0.5), _dirac_circle(0.5, 100.0),
                                _dirac_circle(14.9, 0.5)),
                       routing=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                         [0.0, 0.0, 1.0]]),
                       v_min=1.0, v_max=2.0, mass_preserving=True)
    return spec, single_circle_lambda_star(single_circle(1.0, gamma=14.9))


@pytest.mark.parametrize("spec, lambda_star", [
    *[(s, single_circle_lambda_star(s)) for s in (
        single_circle(0.5, delay=100.0), single_circle(1e300), single_circle(1e-300))],
    _cycle_beside_a_loop()],
    ids=["delay_100", "routing_1e300", "routing_1e-300", "cycle_beside_a_loop"])
def test_abscissa_where_the_gain_passes_float_range(spec, lambda_star):
    # left of the root e^{-lam r}, or G(lam) itself, leaves float range; an
    # overflow read as "left of the root" put the cycle case at -7.05
    res = spectral_abscissa(spec, VelocityGrid.for_spec(spec, 1))
    assert res.lambda_star == pytest.approx(lambda_star, abs=1e-6)


def test_abscissa_refuses_a_tol_below_the_float_spacing():
    # lambda* = log 2 / (l / v1 + r) is about 4e12, where adjacent floats lie
    # 1e-3 apart: the bracket stops narrowing above tol
    spec = single_circle(2.0, gamma=0.0, length=1e-13, delay=1e-13)
    with pytest.raises(BracketError, match="float spacing"):
        spectral_abscissa(spec, VelocityGrid.for_spec(spec, 1))


def test_balanced_gain_keeps_the_radius():
    # past float range balanced_gain returns diag(c)^(1/2) G diag(c)^(-1/2) / e^s;
    # a log bound of 700 sends every shift there
    for name, spec, _ in regression_suite():
        grid = VelocityGrid.for_spec(spec, 4)
        for lam in (-0.7, 0.0, 0.6):
            ref = _dense_radius(assemble_gain(spec, grid, lam).operator.matrix)
            factors = kinnet.operators._gain_factors(spec, grid)
            s, a, lost = factors.balanced_gain(lam)
            assert s == 0.0 and not lost
            assert _dense_radius(a.matrix) == pytest.approx(ref, rel=1e-12), name
            factors.__dict__["log_bound"] = (0.0, 700.0)
            s, a, lost = factors.balanced_gain(lam)
            assert a.matrix.max() == 1.0 and not lost
            assert math.exp(s) * _dense_radius(a.matrix) == pytest.approx(ref, rel=1e-12), name


def test_abscissa_refuses_a_reading_that_lost_an_entry():
    # the cycle 1 -> 2 -> 3 -> 1 has log gain (690.8 + 690.8 - 1300) / 3 > 0
    # at lam = 0, but its entries (1, 3) and (3, 2) lie e^{-995} below (2, 1)
    # and underflow: r = 0 there would place 0 right of the root
    spec = NetworkSpec(circles=(_dirac_circle(0.0, 0.5, mass=1e300),
                                _dirac_circle(0.0, 0.5, mass=1e300),
                                _dirac_circle(1950.0, 0.5)),
                       routing=np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                                         [0.0, 1.0, 0.0]]),
                       v_min=1.0, v_max=2.0, mass_preserving=True)
    with pytest.raises(DomainError, match="float range"):
        spectral_abscissa(spec, VelocityGrid.for_spec(spec, 1))


@pytest.fixture(scope="module")
def suite_abscissae():
    """(name, spec, grid, result, radius evaluations) for every regression
    spec at k = 8 and 32, the evaluations counted on spectral.spectral_radius."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return spectral_radius(*args, **kwargs)

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kinnet.spectral, "spectral_radius", counted)
        for k in (8, 32):
            for name, spec, _ in regression_suite():
                grid = VelocityGrid.for_spec(spec, k)
                calls[0] = 0
                res = spectral_abscissa(spec, grid)
                out.append((f"{name}@k{k}", spec, grid, res, calls[0]))
    return out


def test_abscissa_needs_few_radius_evaluations(suite_abscissae):
    evals = [n for *_, n in suite_abscissae]
    assert np.mean(evals) <= 9 and max(evals) <= 12, evals


def test_abscissa_bracket_is_certified(suite_abscissae):
    for name, spec, grid, res, _ in suite_abscissae:
        assert 0.0 < res.bracket_width <= 1e-6, name
        half = 0.5 * res.bracket_width
        left = assemble_gain(spec, grid, res.lambda_star - half).operator.matrix
        right = assemble_gain(spec, grid, res.lambda_star + half).operator.matrix
        assert _dense_radius(left) > 1.0 > _dense_radius(right), name


def test_abscissa_bisects_where_the_survival_clamp_bends_phi(monkeypatch):
    # at v = 0.01 the survival exponent -lam*l/v passes the clamp at 700 for
    # lam < -7, so both start points (-10 and -11) see phi with slope -r only
    # and the secant lands far right of hi = 0; the midpoint -5 is taken
    spec = single_circle(0.5, gamma=0.0, v_min=0.005, v_max=0.015)
    grid = VelocityGrid.for_spec(spec, 1)
    shifts = []
    gain = kinnet.operators._GainFactors.balanced_gain

    def recorded(self, lam):
        shifts.append(lam)
        return gain(self, lam)

    monkeypatch.setattr(kinnet.operators._GainFactors, "balanced_gain", recorded)
    res = spectral_abscissa(spec, grid)
    assert shifts[1:3] == [-10.0, -11.0] and -5.0 in shifts
    assert res.lambda_star == pytest.approx(single_circle_lambda_star(spec), abs=1e-6)
    half = 0.5 * res.bracket_width
    assert 0.0 < res.bracket_width <= 1e-6
    assert _dense_radius(assemble_gain(spec, grid, res.lambda_star - half)
                         .operator.matrix) > 1.0
    assert _dense_radius(assemble_gain(spec, grid, res.lambda_star + half)
                         .operator.matrix) < 1.0


def test_abscissa_unbounded_below_without_scattering():
    # free transport has empty junction feedback: r stays 0 for every shift
    spec = single_circle(0.5, kernel_scale=0.0)
    with pytest.raises(BracketError):
        spectral_abscissa(spec, VelocityGrid.for_spec(spec, 2))


# ---------------------------------------------------------------------------
# resolvents

def _transport_resolvent(spec, grid, lam, f, n_x):
    """Resolvent of the absorbing free transport with zero junction inflow,
    applied on spatial nodes: (1/v) int_0^x exp(-int_y^x (lam+q)/v) f(y) dy.

    f[j] has shape (K, n_x+1); trapezoid in y.
    """
    v = grid.centers[:, None]
    out = []
    for j, c in enumerate(spec.circles):
        xs = np.linspace(0.0, c.length, n_x + 1)
        # exponent numerator lam x + int_0^x q(., v) at each (velocity, node)
        phi = lam * xs + c.absorption.integral_x(xs, v)
        # kernel(m, y) = exp(-(phi[m] - phi[y-node])/v) for y <= x_m
        g = f[j] * np.exp(phi / v)
        integ = np.zeros_like(g)
        integ[:, 1:] = np.cumsum(0.5 * (g[:, 1:] + g[:, :-1]) * np.diff(xs), axis=1)
        out.append(np.exp(-phi / v) * integ / v)
    return out


def _history_resolvent(spec, grid, lam, phi, n_theta):
    """Resolvent of the history shift with zero boundary value at theta = 0:
    int_theta^0 e^{(theta - sigma) lam} phi(sigma) d sigma.

    phi[j] has shape (n_theta+1, K) over increasing theta in [-r_j, 0].
    """
    out = []
    for j, c in enumerate(spec.circles):
        th = np.linspace(-c.delay, 0.0, n_theta + 1)
        g = phi[j] * np.exp(-lam * th)[:, None]
        # reverse cumulative trapezoid: integral from theta to 0
        seg = 0.5 * (g[1:] + g[:-1]) * np.diff(th)[:, None]
        tail = np.vstack([np.cumsum(seg[::-1], axis=0)[::-1], np.zeros((1, grid.k))])
        out.append(np.exp(lam * th)[:, None] * tail)
    return out


def test_transport_resolvent_constant_data():
    spec = single_circle(0.5, gamma=0.4, length=1.0)
    g = VelocityGrid.for_spec(spec, 4)
    n_x = 400
    f = [np.ones((g.k, n_x + 1))]
    lam = 0.9
    out = _transport_resolvent(spec, g, lam, f, n_x)[0]
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
    out = _history_resolvent(spec, g, lam, phi, n_t)[0]
    th = np.linspace(-0.8, 0.0, n_t + 1)
    ref = (1.0 - np.exp(lam * th)) / lam
    assert np.allclose(out[:, 0], ref, atol=1e-5)


def test_resolvent_constant_validations():
    spec = single_circle(0.5)
    g = VelocityGrid.for_spec(spec, 2)
    with pytest.raises(DomainError):
        resolvent_constant_c(spec, g, lam=-0.5)
    with pytest.raises(DomainError):
        resolvent_constant_c(spec, g, lam=1.0, n_x=0)
    with pytest.raises(DomainError):
        resolvent_constant_c(spec, g, lam=1.0, n_theta=0)
    c1 = resolvent_constant_c(spec, g, lam=1.0)
    c2 = resolvent_constant_c(spec, g, lam=1.0)
    assert c1 == c2 and c1 > 0.0


def _trapezoid_weights(nodes):
    w = np.zeros_like(nodes)
    w[:-1] += 0.5 * np.diff(nodes)
    w[1:] += 0.5 * np.diff(nodes)
    return w


def _basis_minimum(spec, g, lam, n):
    """min ||R e|| / ||e|| over the basis vectors e of both blocks, through
    the brute-force resolvents and the weighted l1 norm."""
    wx = [_trapezoid_weights(np.linspace(0.0, c.length, n + 1)) for c in spec.circles]
    wt = [_trapezoid_weights(np.linspace(-c.delay, 0.0, n + 1)) for c in spec.circles]
    dv = g.widths
    best = math.inf
    for j in range(spec.n_circles):
        for k in range(g.k):
            for i in range(n + 1):
                f = [np.zeros((g.k, n + 1)) for _ in spec.circles]
                f[j][k, i] = 1.0
                rf = _transport_resolvent(spec, g, lam, f, n)
                norm = sum(float(dv @ np.abs(r) @ w) for r, w in zip(rf, wx))
                best = min(best, norm / (dv[k] * wx[j][i]))
                phi = [np.zeros((n + 1, g.k)) for _ in spec.circles]
                phi[j][i, k] = 1.0
                rphi = _history_resolvent(spec, g, lam, phi, n)
                norm = sum(float(w @ np.abs(r) @ dv) for r, w in zip(rphi, wt))
                best = min(best, norm / (dv[k] * wt[j][i]))
    return best


def _resolvent_specs():
    # a delay longer than the transit time l/v, so that at the large shift
    # the history block holds the minimum
    tabulated = CircleSpec(
        length=0.8, delay=2.0,
        absorption=AbsorptionProfile(kind="tabulated", x_edges=(0.0, 0.3, 0.8),
                                     v_edges=(1.0, 1.4, 2.0),
                                     values=((0.2, 1.5), (0.9, 0.05))),
        scattering=ScatteringKernel(kind="constant", value=1.0),
        delay_measure=DelayMeasure(kind="dirac", r=2.0))
    specs = [(name, spec) for name, spec, label in regression_suite() if label == "ISS"]
    return specs + [("tabulated", NetworkSpec(circles=(tabulated,),
                                              routing=np.array([[0.5]]),
                                              v_min=1.0, v_max=2.0))]


@pytest.mark.parametrize("name, spec", _resolvent_specs())
def test_resolvent_constant_is_the_basis_vector_minimum(name, spec):
    # the shift of iss_constants, and a large one that moves the minima to
    # the first node of a circle and to theta = 0
    for lam in (max(0.0, -spec.absorption_range()[1]) + 1.0, 40.0):
        for k in (2, 8):
            g = VelocityGrid.for_spec(spec, k)
            for n in (8, 16):
                c = resolvent_constant_c(spec, g, lam, n_x=n, n_theta=n)
                assert c == pytest.approx(_basis_minimum(spec, g, lam, n), rel=1e-12)


def test_resolvent_constant_on_a_slow_circle():
    # lam l / v = 952 at lam = 1: e^{lam x / v} overflows along the circle,
    # and the minimum is the first node's column sum, in closed form
    spec = single_circle(0.2, v_min=0.001, v_max=0.0011, gamma=0.0)
    g = VelocityGrid.for_spec(spec, 1)
    n = 64
    a = spec.circles[0].length / n / g.centers[0]
    m = np.arange(1, n + 1)
    first_node = a * float(np.sum(np.where(m < n, 1.0, 0.5) * np.exp(-a * m)))
    assert resolvent_constant_c(spec, g, 1.0) == pytest.approx(first_node, rel=1e-12)


def test_resolvent_constant_shrinks_with_the_mesh():
    for name, spec in _resolvent_specs():
        g = VelocityGrid.for_spec(spec, 8)
        lam = max(0.0, -spec.absorption_range()[1]) + 1.0
        c16 = resolvent_constant_c(spec, g, lam, n_x=16, n_theta=16)
        c32 = resolvent_constant_c(spec, g, lam, n_x=32, n_theta=32)
        assert c32 <= c16, name


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
        iss_constants(spec, g, math.inf, (1.0, 0.5))


def test_iss_constants_values():
    spec = single_circle(0.3)
    g = VelocityGrid.for_spec(spec, 4)
    consts = iss_constants(spec, g, math.inf, (1.5, 0.4))
    assert consts.pd_norm < 1.0
    assert consts.c_resolvent == resolvent_constant_c(spec, g, 1.0)
    assert consts.c_check_p == pytest.approx(1.5 / (0.4 * consts.c_resolvent))
    assert consts.gain > 0.0
    assert consts.to_dict()["schema_version"] == 1
    assert consts.to_dict()["c_grid"] == [64, 64]

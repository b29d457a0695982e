import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kinnet.operators
import kinnet.spectral
from kinnet import (AbsorptionProfile, BlockOperator, BracketError, CircleSpec,
                    DelayMeasure, DomainError, NetworkSpec, ScatteringKernel,
                    SmallGainViolation, VelocityGrid, assemble_gain, c_check,
                    fit_decay, iss_constants, load_network, network_bounds, run,
                    resolvent_constant_c, small_gain_certificate,
                    spectral_abscissa, spectral_radius)
from kinnet.errors import _ieee_policy
from kinnet.presets import (heterogeneous_five, random_spec, regression_suite,
                            single_circle, single_circle_gain,
                            single_circle_lambda_star, single_circle_threshold_w)

from conftest import constant_scenario, float_range_cycle, moment_specs
from pd_oracle import assemble_pd

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


def _bracket(a, *args, **kwargs):
    """The private Perron bracket that the abscissa calls, under the policy
    that its callers enter."""
    with _ieee_policy():
        return kinnet.spectral._perron_bracket(a, *args, **kwargs)


def _bracket_radius(a):
    return _bracket(np.asarray(a, dtype=float), 1e-10).radius


def test_radius_input_checks():
    for radius in (spectral_radius, _bracket_radius):
        with pytest.raises(DomainError, match="nonnegative"):
            radius(np.array([[-1.0]]))
        # the finite check comes first
        with pytest.raises(DomainError, match="finite"):
            radius(np.array([[-1.0, math.nan], [1.0, 1.0]]))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_radius_and_abscissa_reject_a_bad_tol(tol, sc_spec, grid8):
    # at the abscissa's stop rule, tol <= 0 never ends the loop and nan or
    # inf end it at once
    with pytest.raises(DomainError, match="tol"):
        spectral_radius(assemble_gain(sc_spec, grid8, 0.0).operator, tol=tol)
    with pytest.raises(DomainError, match="tol"):
        spectral_abscissa(sc_spec, grid8, tol=tol)


def test_radius_rejects_non_finite_entries():
    for radius in (spectral_radius, _bracket_radius):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                radius(np.full((4, 4), bad))
            a = np.eye(3)
            a[0, 2] = bad
            with pytest.raises(DomainError, match="finite"):
                radius(a)


def test_radius_takes_the_middle_of_a_bracket_near_the_float_maximum():
    # lo + hi = 2e308 overflows, the halves do not
    assert spectral_radius(np.array([[0.0, 1e308], [1e308, 0.0]])) == 1e308


@pytest.mark.parametrize("value", [5e-324, 3e-308])
def test_radius_keeps_a_subnormal_root(value):
    # the halves of a subnormal bracket round: 0.5 * 5e-324 + 0.5 * 5e-324
    # reads 0, so the middle is lo + (hi - lo) / 2, exact where lo = hi
    for a in (np.array([[value]]), np.diag([value, value])):
        assert spectral_radius(a) == value
        assert _bracket(a, 1e-10).radius == value


@pytest.mark.parametrize("value", [0.3, 1e300, 5e-324])
def test_a_1x1_matrix_is_its_own_root(value):
    counted = np.array([[value]]).view(_CountedMatrix)
    counted.products = 0
    got = _bracket(counted, 1e-10)
    assert got.radius == value and np.array_equal(got.vector, [1.0])
    assert counted.products == 0
    assert spectral_radius(np.array([[value]])) == value


def test_a_1x1_zero_has_radius_zero_and_no_vector():
    assert _bracket(np.array([[0.0]]), 1e-10) == (0.0, None)
    assert spectral_radius(np.array([[0.0]])) == 0.0


def test_a_radius_past_the_float_range_reads_inf_without_a_warning():
    # A x overflows: the dense fallback decides, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral_radius(np.full((2, 2), 1e308)) == math.inf


def test_certificate_of_a_routing_row_of_1e308_reads_not_iss_without_a_warning():
    spec = heterogeneous_five(0.4)
    routing = spec.routing.copy()
    routing[0] = 1e308
    spec = replace(spec, routing=routing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = small_gain_certificate(spec, VelocityGrid.for_spec(spec, 4))
    assert cert.decision == "NOT_ISS" and math.isfinite(cert.r_gain)


def test_radius_refuses_entries_beyond_the_float_range():
    # radius 1, but A x / hi sends one iterate entry below the smallest float
    with pytest.raises(DomainError, match="float range"):
        spectral_radius(np.array([[0.0, 1e300], [1e-300, 0.0]]))


def test_certificate_refuses_a_cycle_beyond_the_float_range():
    spec = float_range_cycle()
    grid = VelocityGrid.for_spec(spec, 1)
    g = assemble_gain(spec, grid, 0.0).operator.matrix
    # the radius of a 2-cycle, taken in two square roots to stay in range
    assert math.sqrt(g[0, 1]) * math.sqrt(g[1, 0]) == pytest.approx(1.43, abs=0.01)
    with pytest.raises(DomainError, match="float range"):
        small_gain_certificate(spec, grid)
    with pytest.raises(DomainError, match="float range"):
        spectral_abscissa(spec, grid)


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


def _counted_radius(a):
    """(radius, Collatz-Wielandt steps) that spectral_radius gives on the matrix a."""
    counted = np.asarray(a).view(_CountedMatrix)
    counted.products = 0
    r = spectral_radius(BlockOperator(matrix=counted, weights=np.ones(len(a))))
    return r, counted.products


def _radius_steps(a):
    """Collatz-Wielandt steps that spectral_radius takes on the matrix a."""
    return _counted_radius(a)[1]


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


def _cold_radius(a, tol=1e-10):
    """Oracle: the Collatz-Wielandt loop of spectral_radius as it ran before
    it was shared with the abscissa, always from x = 1 and stopped by tol only."""
    x = np.ones(len(a))
    width, shifted = math.inf, False
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(500):
            y = a @ x
            ratio = y / x
            lo, hi = float(ratio.min()), float(ratio.max())
            if hi == 0.0:
                return 0.0
            if lo == 0.0 or not math.isfinite(hi):
                break
            if hi - lo <= tol * hi:
                return 0.5 * (lo + hi)
            shifted = shifted or hi - lo > 0.9 * width
            width = hi - lo
            x = x + y / hi if shifted else y / hi
    return min(max(_dense_radius(a), lo), hi)


@pytest.mark.parametrize("k", [8, 32])
def test_radius_is_the_cold_bracket_on_regression_operators(k):
    # bit for bit, on the gains and the cores at shift 0 (the PD radius's
    # matrix)
    for name, spec, _ in regression_suite():
        grid = VelocityGrid.for_spec(spec, k)
        ops = [kinnet.operators._gain_factors(spec, grid).core(0.0)]
        ops += [assemble_gain(spec, grid, lam).operator.matrix
                for lam in (-5.0, 0.0, 10.0)]
        for a in ops:
            assert spectral_radius(a) == _cold_radius(a), name


def test_bracket_starts_cold_from_a_warm_vector_with_a_zero_entry():
    # from x = (1, 0) the first ratio is inf and the iterate keeps its zero,
    # which would read as an underflow; from x = 1 the bracket closes at once
    a = np.ones((2, 2))
    got = _bracket(a, 1e-10, x0=np.array([1.0, 0.0]))
    assert got.radius == spectral_radius(a) == 2.0


def test_bracket_from_the_perron_vector_of_a_nearby_matrix():
    rng = np.random.default_rng(5)
    a = _irreducible(rng, 12, 1)
    b = a * rng.uniform(1.0, 1.01, a.shape)
    warm = _bracket(a, 1e-10).vector
    assert warm.max() == 1.0 and warm.min() > 0.0
    counted = b.view(_CountedMatrix)
    counted.products = 0
    got = _bracket(counted, 1e-10, x0=warm)
    assert got.radius == pytest.approx(_dense_radius(b), rel=1e-10)
    assert counted.products < _radius_steps(b)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12),
       period=st.integers(1, 4),
       offset=st.sampled_from([-0.1, -1e-3, -1e-6, 1e-6, 1e-3, 0.1]))
def test_bracket_decides_the_side_of_a_level(seed, n, period, offset):
    # stopped once it decides the side, the returned radius lies on the side
    # of the level that the dense radius does
    a = _irreducible(np.random.default_rng(seed), n, period)
    level = math.log(_dense_radius(a)) + offset
    got = _bracket(a, 1e-10, level=level)
    assert (math.log(got.radius) < level) == (offset > 0)


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


@pytest.mark.parametrize("w", [0.75, 0.9])
def test_certificate_on_an_absorption_table_short_of_its_circle(w):
    # q = -0.6 (generation) on [0, 0.5] reaches on to x = 1: the certificate
    # and the abscissa see the growth that a unit-data run shows
    spec = single_circle(w)
    table = AbsorptionProfile(kind="tabulated", x_edges=(0.0, 0.5),
                              v_edges=(1.0, 2.0), values=((-0.6,),))
    spec = replace(spec, circles=(replace(spec.circles[0], absorption=table),))
    grid = VelocityGrid.for_spec(spec, 8)
    assert small_gain_certificate(spec, grid).decision == "NOT_ISS"
    lam = spectral_abscissa(spec, grid).lambda_star
    fit = fit_decay(run(constant_scenario(spec, grid, t_end=40.0, stride=8, m_base=32)))
    assert fit.a_hat == pytest.approx(-lam, rel=0.02)


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


_FAMILIES = ("estimate", "example1", "example2", "c1")


@pytest.fixture(scope="module")
def certificates():
    """(name, certificate, gain steps, PD steps) for the regression suite and
    random_spec(s, family) for s < 25 in every family, at k = 8 and 32; the
    Collatz-Wielandt steps counted on spectral.spectral_radius, whose first
    call in a certificate is the gain and whose second is the PD radius."""
    steps = []

    def counted(op, *args, **kwargs):
        r, n = _counted_radius(getattr(op, "matrix", op))
        steps.append(n)
        return r

    specs = [(name, spec) for name, spec, _ in regression_suite()]
    specs += [(f"random_{family}_{s}", random_spec(s, family))
              for family in _FAMILIES for s in range(25)]
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kinnet.spectral, "spectral_radius", counted)
        for k in (8, 32):
            for name, spec in specs:
                steps.clear()
                cert = small_gain_certificate(spec, VelocityGrid.for_spec(spec, k))
                out.append((f"{name}@k{k}", cert, *steps))
    return out


def test_certificate_pd_radius_squares_to_the_gain_radius(certificates):
    for name, cert, *_ in certificates:
        assert cert.pd_radius ** 2 == pytest.approx(cert.r_gain, rel=1e-9), name


@pytest.mark.parametrize("gamma, k", [(800.0, 8), (2000.0, 8), (2000.0, 32)])
def test_certificate_where_the_survival_underflows(gamma, k):
    # gamma = 800 underflows the survival of one cell at k = 8 to 0, which
    # zeroes a row of the PD block product; gamma = 2000 underflows every cell
    spec = single_circle(0.5, gamma=gamma)
    grid = VelocityGrid.for_spec(spec, k)
    gain = assemble_gain(spec, grid, 0.0).operator.matrix
    assert np.count_nonzero(gain.sum(axis=0) == 0.0) == (1 if gamma == 800.0 else k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = small_gain_certificate(spec, grid)
    assert cert.decision == "ISS"
    assert cert.pd_radius ** 2 == pytest.approx(cert.r_gain, rel=1e-9)
    assert (cert.r_gain == 0.0) == (gamma == 2000.0)


def _seeded_specs():
    """The regression suite, and random_spec(s, family) for s < 10 in every
    family."""
    return ([(name, spec) for name, spec, _ in regression_suite()]
            + [(f"random_{family}_{s}", random_spec(s, family))
               for family in _FAMILIES for s in range(10)])


def _unfactored_exponent(factors, spec, grid):
    """factors with the log survival -(lam l + Q) / v computed whole at each
    shift, as before it was kept as a slope and an offset in lam."""
    v = np.tile(grid.centers, spec.n_circles)
    length = np.repeat([c.length for c in spec.circles], grid.k)
    absorbed = np.concatenate([c.absorption.integral_x(c.length, grid.centers)
                               for c in spec.circles])
    object.__setattr__(factors, "log_survival",
                       lambda lam: np.minimum(-(lam * length + absorbed) / v, 700.0))
    return factors


def _two_build_radii(spec, grid):
    """(r_gain, pd_radius) as the certificate took them from two builds of
    the factors, one for the gain and one for the core C, with the unfactored
    survival exponent: pd_radius is r(C^4)^(1/8), bracketed at 4e-10 on
    (C C)(C C), where the second build takes C's fourth power, else sqrt(r(C))."""
    def factors():
        return _unfactored_exponent(kinnet.operators._gain_factors(spec, grid), spec, grid)

    r_gain = spectral_radius(factors().gain(0.0))
    second = factors()
    a, p = second.perron_power(0.0, second.core(0.0))
    r_a = spectral_radius(a, p * 1e-10)
    return r_gain, math.sqrt(r_a) if p == 1 else r_a ** 0.125


@pytest.mark.parametrize("k", [8, 32])
def test_certificate_equals_the_two_build_certificate(k, b_builds):
    for name, spec in _seeded_specs():
        grid = VelocityGrid.for_spec(spec, k)
        b_builds.clear()
        cert = small_gain_certificate(spec, grid)
        assert len(b_builds) == 1, name
        assert (cert.r_gain, cert.pd_radius) == _two_build_radii(spec, grid), name


@pytest.mark.parametrize("k", [8, 32])
def test_abscissa_of_the_factored_exponent(k, b_builds, monkeypatch):
    # lam * slope + offset rounds apart from -(lam l + Q) / v away from lam = 0
    found = {}
    for name, spec in _seeded_specs():
        grid = VelocityGrid.for_spec(spec, k)
        b_builds.clear()
        found[name] = spectral_abscissa(spec, grid)
        assert len(b_builds) == 1, name
        if name.startswith("random_"):
            half = 0.5 * found[name].bracket_width
            for lam, side in ((found[name].lambda_star - half, 1.0),
                              (found[name].lambda_star + half, -1.0)):
                gain = assemble_gain(spec, grid, lam).operator.matrix
                assert side * (_dense_radius(gain) - 1.0) > 0.0, name
    build = kinnet.operators._gain_factors
    monkeypatch.setattr(kinnet.spectral, "_gain_factors",
                        lambda spec, grid: _unfactored_exponent(build(spec, grid), spec, grid))
    for name, spec in _seeded_specs():
        ref = spectral_abscissa(spec, VelocityGrid.for_spec(spec, k))
        assert abs(found[name].lambda_star - ref.lambda_star) <= 1e-12, name


@pytest.mark.parametrize("k", [8, 32])
def test_abscissa_builds_each_measure_s_parts_once(k, parts_builds, monkeypatch):
    # the parts are read at every shift but built with the measures, so
    # their builds do not grow with the number of phi evaluations: the spec
    # is loaded anew from its config inside the count
    shifts, balanced = [], kinnet.operators._GainFactors.balanced_core
    monkeypatch.setattr(kinnet.operators._GainFactors, "balanced_core",
                        lambda self, lam: shifts.append(lam) or balanced(self, lam))
    for name, spec in _seeded_specs():
        parts_builds.clear()
        shifts.clear()
        spec = load_network(spec.to_config())
        spectral_abscissa(spec, VelocityGrid.for_spec(spec, k))
        assert len(shifts) > 3, name
        assert parts_builds == [c.delay_measure for c in spec.circles], name


def test_a_built_spec_s_certificate_abscissa_and_bounds_build_no_parts(parts_builds):
    # each measure built its parts when it was constructed, and every later
    # reader reads them
    specs = _seeded_specs()
    parts_builds.clear()
    for name, spec in specs:
        grid = VelocityGrid.for_spec(spec, 8)
        small_gain_certificate(spec, grid)
        spectral_abscissa(spec, grid)
        network_bounds(spec)
        assert parts_builds == [], name


@pytest.mark.parametrize("k", [8, 32])
def test_pd_quantities_equal_the_block_operator(k):
    """pd_norm and the certificate's pd_radius, taken from the two blocks,
    against the dense 2n x 2n operator PD of the oracle."""
    specs = [(name, spec) for name, spec, _ in regression_suite()]
    specs += [(f"random_{family}_{s}", random_spec(s, family))
              for family in _FAMILIES for s in range(8)]
    for name, spec in specs:
        grid = VelocityGrid.for_spec(spec, k)
        pd = assemble_pd(spec, grid, 0.0)
        n = pd.matrix.shape[0] // 2
        qp = np.diag(pd.matrix[n:, :n])[:, None] * pd.matrix[:n, n:]
        cert = small_gain_certificate(spec, grid)
        factors = kinnet.operators._gain_factors(spec, grid)
        assert factors.pd_norm(0.0) == pytest.approx(pd.norm(), rel=1e-15, abs=0.0), name
        # S P = Q P has the core's nonzero spectrum, a J m x J m matrix C; the
        # certificate brackets r(C)^4 on C^4 = (C C)(C C) where C is not 1 x 1,
        # and every core here is small and keeps C^4 in float range
        core = factors.core(0.0)
        assert core.shape == (spec.n_circles * len(factors.omega[1]),) * 2, name
        a, p = factors.perron_power(0.0, core)
        assert p == (4 if len(core) > 1 else 1), name
        r_core = spectral_radius(a, p * 1e-10) ** (1 / p)
        assert cert.pd_radius ** 2 == pytest.approx(r_core, rel=1e-15, abs=0.0), name
        assert cert.pd_radius ** 2 == pytest.approx(_dense_radius(qp), rel=1e-9), name
    # P = 0 (a zero kernel) and S = 0 (every survival underflows): one block
    # norm is 0 and the other one is the norm, exactly
    for spec in (single_circle(0.5, kernel_scale=0.0), single_circle(0.5, gamma=3000.0)):
        grid = VelocityGrid.for_spec(spec, k)
        factors = kinnet.operators._gain_factors(spec, grid)
        p, survival = factors.dense(factors.laplace(0.0)), factors.survival(0.0)
        assert not p.any() or not survival.any()
        assert not factors.core(0.0).any()
        assert factors.pd_norm(0.0) == assemble_pd(spec, grid, 0.0).norm() > 0.0
        assert small_gain_certificate(spec, grid).pd_radius == 0.0


def test_certificate_pd_radius_steps_track_the_gain(certificates):
    # the PD radius is taken on the block product, similar to the gain; on
    # the full 2n x 2n PD operator it took 35-62 steps on the suite
    for name, _, gain_steps, pd_steps in certificates:
        if not name.startswith("random_"):
            assert pd_steps <= gain_steps + 2, name


def test_radius_steps_on_random_gains_at_zero_shift(certificates):
    # 2327 steps over the four families at k = 8 and 32 when the shifted
    # steps took over from the first step that did not halve the bracket;
    # 2368 since they wait for a step that shrinks it by less than a tenth
    total = sum(gain_steps for name, _, gain_steps, _ in certificates
                if name.startswith("random_"))
    assert total <= 2450, total


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


def _tabulated_absorption(spec, q):
    """spec with its one circle's absorption a 1 x 1 table of q."""
    c = spec.circles[0]
    table = AbsorptionProfile(kind="tabulated", x_edges=(0.0, c.length),
                              v_edges=(spec.v_min, spec.v_max), values=((q,),))
    return replace(spec, circles=(replace(c, absorption=table),))


@pytest.mark.parametrize("spec", [
    single_circle(0.8, kernel_scale=0.5),
    _tabulated_absorption(single_circle(0.8), 0.5),
], ids=["kernel_scale", "tabulated_absorption"])
def test_closed_forms_read_the_kernel_and_the_absorption(spec):
    g = VelocityGrid.for_spec(spec, 1)
    assert single_circle_gain(spec) == pytest.approx(
        small_gain_certificate(spec, g).r_gain, rel=0, abs=1e-12)
    assert single_circle_lambda_star(spec) == pytest.approx(
        spectral_abscissa(spec, g, tol=1e-10).lambda_star, rel=0, abs=1e-8)


def test_abscissa_positive_for_supercritical():
    spec = single_circle(2.0 * single_circle_threshold_w())
    g = VelocityGrid.for_spec(spec, 1)
    assert spectral_abscissa(spec, g).lambda_star > 0.0


def _dirac_circle(gamma, delay, mass=1.0):
    measure = (DelayMeasure(kind="dirac", r=delay) if mass == 1.0 else
               DelayMeasure(kind="piecewise", r=delay, atoms=((-delay, mass),)))
    return CircleSpec(length=1.0,
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
    # past float range balanced_core returns the core under the similarity
    # diag(e^{-t/2}), t the largest log c of each (circle, group), over e^s;
    # a log bound of 700 sends every shift there. The moment specs have
    # m > 1 groups at k = 8, where the log form sums in logs over a group
    specs = [(name, spec) for name, spec, _ in regression_suite()] + moment_specs()
    for (name, spec), k in itertools.product(specs, (4, 8)):
        grid = VelocityGrid.for_spec(spec, k)
        for lam in (-0.7, 0.0, 0.6):
            ref = _dense_radius(assemble_gain(spec, grid, lam).operator.matrix)
            factors = kinnet.operators._gain_factors(spec, grid)
            s, a, lost = factors.balanced_core(lam)
            assert s == 0.0 and not lost
            assert _dense_radius(a) == pytest.approx(ref, rel=1e-12), name
            factors.__dict__["log_bound"] = (0.0, 700.0)
            s, a, lost = factors.balanced_core(lam)
            assert a.max() == 1.0 and not lost
            assert a.shape == (spec.n_circles * len(factors.omega[1]),) * 2
            assert math.exp(s) * _dense_radius(a) == pytest.approx(ref, rel=1e-12), name


@pytest.mark.parametrize("k", [4, 8, 32])
def test_the_core_has_the_gain_s_radius(k):
    # XY and YX share their nonzero eigenvalues: the J m x J m core and the
    # J K x J K gain have one Perron root, through the bracket and through
    # the dense eigenvalues
    for name, spec in _seeded_specs() + moment_specs():
        grid = VelocityGrid.for_spec(spec, k)
        factors = kinnet.operators._gain_factors(spec, grid)
        for lam in (-0.5, 0.0, 0.4):
            gain, core = factors.gain(lam).matrix, factors.core(lam)
            assert core.shape == (spec.n_circles * len(factors.omega[1]),) * 2, name
            assert spectral_radius(core) == pytest.approx(spectral_radius(gain),
                                                          rel=1e-10, abs=0.0), (name, lam)
            assert _dense_radius(core) == pytest.approx(_dense_radius(gain),
                                                        rel=1e-12, abs=0.0), (name, lam)


@pytest.mark.parametrize("k", [4, 8, 32])
def test_the_fourth_power_keeps_the_core_radius(k):
    # r(C)^4 is bracketed on C^4 = (C C)(C C) at 4 tol, a relative 1e-10 on
    # r(C) as the C bracket's own: each lies within 5e-11 of the root (the C
    # bracket itself reads up to 4.1e-11 from eigvals here). Every core
    # larger than 1 x 1 is small and keeps C^4 in float range at these shifts
    for name, spec in _seeded_specs() + moment_specs():
        factors = kinnet.operators._gain_factors(spec, VelocityGrid.for_spec(spec, k))
        for lam in (-0.5, 0.0, 0.4):
            core = factors.core(lam)
            a, p = factors.perron_power(lam, core)
            assert p == (4 if len(core) > 1 else 1), (name, lam)
            if p == 4:
                square = core @ core
                assert np.array_equal(a, square @ square), (name, lam)
            got = _bracket(a, p * 1e-10)
            r = got.radius ** (1 / p)
            assert r == pytest.approx(_bracket(core, 1e-10).radius, rel=1e-10,
                                      abs=0.0), (name, lam)
            assert r == pytest.approx(_dense_radius(core), rel=1e-10, abs=0.0), (name, lam)
            assert got.vector.min() > 0.0, (name, lam)


def test_a_bound_past_the_fourth_power_s_range_brackets_the_core(monkeypatch):
    # a log bound of 200 keeps the core in range but not its fourth power
    # (4 * 200 > 700): the certificate and the abscissa then bracket C itself
    build, cores, taken = kinnet.operators._gain_factors, [], []
    balanced, bracket = kinnet.operators._GainFactors.balanced_core, kinnet.spectral._perron_bracket

    def forced(spec, grid):
        factors = build(spec, grid)
        factors.__dict__["log_bound"] = (0.0, 200.0)
        return factors

    def kept_core(self, lam):
        out = balanced(self, lam)
        cores.append(out[1])
        return out

    def kept(a, *args, **kwargs):
        taken.append((a, args, kwargs))
        return bracket(a, *args, **kwargs)

    for module in (kinnet.operators, kinnet.spectral):
        monkeypatch.setattr(module, "_gain_factors", forced)
    monkeypatch.setattr(kinnet.operators._GainFactors, "balanced_core", kept_core)
    monkeypatch.setattr(kinnet.spectral, "_perron_bracket", kept)
    for name, spec in _seeded_specs() + moment_specs():
        grid = VelocityGrid.for_spec(spec, 8)
        factors = forced(spec, grid)
        assert factors.perron_power(0.0, factors.core(0.0))[1] == 1, name
        cert = small_gain_certificate(spec, grid)
        assert cert.pd_radius == math.sqrt(_bracket(factors.core(0.0), 1e-10).radius), name
        cores.clear()
        taken.clear()
        spectral_abscissa(spec, grid)
        assert len(taken) == len(cores) > 3, name
        for core, (a, (tol, _), kwargs) in zip(cores, taken):
            assert a is core and tol == 1e-10 and kwargs == {"level": 0.0}, name


def test_a_core_past_the_power_size_is_bracketed_as_it_is(monkeypatch):
    # forming C^4 costs 2 (J m)^3 multiply-adds against (J m)^2 per power
    # step, so a core above 32 x 32 is bracketed as C although its power
    # would keep float range
    spec = _many_cell_five(8)
    grid = VelocityGrid.for_spec(spec, 8)
    factors = kinnet.operators._gain_factors(spec, grid)
    core = factors.core(0.0)
    assert len(core) == 40
    assert factors.perron_power(0.0, core)[0] is core
    for n, p in ((2, 4), (32, 4), (33, 1)):
        assert factors.perron_power(0.0, np.ones((n, n)))[1] == p, n
    cert = small_gain_certificate(spec, grid)
    assert cert.pd_radius == math.sqrt(_bracket(core, 1e-10).radius)
    taken, bracket = [], kinnet.spectral._perron_bracket

    def kept(a, *args, **kwargs):
        taken.append((len(a), args[0]))
        return bracket(a, *args, **kwargs)

    monkeypatch.setattr(kinnet.spectral, "_perron_bracket", kept)
    spectral_abscissa(spec, grid)
    assert len(taken) > 3 and set(taken) == {(40, 1e-10)}


def _many_cell_five(cells):
    """heterogeneous_five(0.4) with a positive tabulated kernel of cells x
    cells equal cells on [1, 2] on every circle: m = cells velocity groups
    on a grid whose edges hold the kernel's."""
    five = heterogeneous_five(0.4)
    edges = tuple(np.linspace(1.0, 2.0, cells + 1))
    rng = np.random.default_rng(0)
    return replace(five, mass_preserving=False, circles=tuple(
        replace(c, scattering=ScatteringKernel(
            kind="tabulated", v_edges=edges,
            values=tuple(map(tuple, rng.uniform(0.2, 1.0, (cells, cells))))))
        for c in five.circles))


@pytest.mark.parametrize("k", [4, 8, 32])
def test_the_abscissa_s_matrices_are_finite_and_nonnegative(k, monkeypatch):
    # the abscissa's brackets skip the entry scan, so every matrix that
    # balanced_core gives at its shifts must be finite and nonnegative, in
    # range and in logs; a log bound of 700 sends every shift to the logs.
    # Each is the J m x J m core, never a J K x J K matrix
    shifts, balanced = [], kinnet.operators._GainFactors.balanced_core
    monkeypatch.setattr(kinnet.operators._GainFactors, "balanced_core",
                        lambda self, lam: shifts.append(lam) or balanced(self, lam))
    for name, spec in _seeded_specs():
        grid = VelocityGrid.for_spec(spec, k)
        shifts.clear()
        spectral_abscissa(spec, grid)
        in_range = kinnet.operators._gain_factors(spec, grid)
        in_logs = kinnet.operators._gain_factors(spec, grid)
        in_logs.__dict__["log_bound"] = (0.0, 700.0)
        assert len(shifts) > 3, name
        for lam in shifts:
            for factors in (in_range, in_logs):
                s, a, _ = balanced(factors, lam)
                assert math.isfinite(s) and np.isfinite(a).all(), (name, lam)
                assert np.minimum.reduce(a, None) >= 0.0, (name, lam)
                assert a.shape == (spec.n_circles * len(factors.omega[1]),) * 2
            assert a.max() == 1.0, (name, lam)  # the log form's scale


def test_a_factorization_beyond_the_float_range_is_refused_when_built():
    # a kernel of 1e10 routed with weight 1e300 makes B's route U inf: the factorization
    # refuses it when it is built, before any bracket
    spec = single_circle(1e300, kernel_scale=1e10)
    grid = VelocityGrid.for_spec(spec, 2)
    with pytest.raises(DomainError, match="B expects finite"):
        kinnet.operators._gain_factors(spec, grid)
    for call in (small_gain_certificate, spectral_abscissa):
        with pytest.raises(DomainError, match="finite"):
            call(spec, grid)
    factors = kinnet.operators._gain_factors(single_circle(0.5), grid)
    with pytest.raises(DomainError, match="nonnegative"):
        replace(factors, route=-factors.route)
    # a circle of length 1e300 at v ~ 1e-9: l / v passes float range, and at
    # lam = 0 the survival exponent would read 0 * inf (at length 1 that takes
    # v ~ 1e-310, whose v dv underflows, and the grid refuses it first)
    with pytest.raises(DomainError, match="zero width or v dv"):
        VelocityGrid.uniform(1e-310, 2e-310, 2)
    c = replace(spec.circles[0], length=1e300,
                scattering=ScatteringKernel(kind="constant", value=1.0))
    slow = NetworkSpec(circles=(c,), routing=np.array([[0.5]]), v_min=1e-9,
                       v_max=2e-9, mass_preserving=False)
    grid = VelocityGrid.for_spec(slow, 2)
    for call in (kinnet.operators._gain_factors, small_gain_certificate, spectral_abscissa):
        with pytest.raises(DomainError, match="finite l / v"):
            call(slow, grid)


@pytest.mark.parametrize("k", [8, 32])
def test_spectral_radius_is_the_bracket_under_the_policy(k, monkeypatch):
    # the scan and the policy only check: spectral_radius takes the bracket
    # that the loop under the policy gives, radius and vector
    bracket, taken = kinnet.spectral._perron_bracket, []

    def kept(*args):
        taken.append(bracket(*args))
        return taken[-1]

    monkeypatch.setattr(kinnet.spectral, "_perron_bracket", kept)
    for name, spec, _ in regression_suite():
        factors = kinnet.operators._gain_factors(spec, VelocityGrid.for_spec(spec, k))
        for lam in (-0.5, 0.0, 0.3):
            a = factors.balanced_core(lam)[1]
            radius = spectral_radius(a)
            with _ieee_policy():
                loop = bracket(a, 1e-10)
            assert radius == taken[-1].radius == loop.radius, name
            assert np.array_equal(taken[-1].vector, loop.vector), name


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_an_unguarded_bracket_still_refuses_a_non_finite_entry(bad):
    # a non-finite entry ends the loop, and the scan runs before the dense
    # fallback
    a = np.ones((3, 3))
    a[1, 2] = bad
    with pytest.raises(DomainError, match="finite"):
        _bracket(a, 1e-10)


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
    """(name, spec, grid, result, radius evaluations, Collatz-Wielandt steps)
    for every regression spec at k = 8 and 32, both counted on
    spectral._perron_bracket, which takes every radius of the abscissa."""
    counts = [0, 0]
    bracket = kinnet.spectral._perron_bracket

    def counted(a, *args, **kwargs):
        a = a.view(_CountedMatrix)
        a.products = 0
        out = bracket(a, *args, **kwargs)
        counts[0] += 1
        counts[1] += a.products
        return out

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kinnet.spectral, "_perron_bracket", counted)
        for k in (8, 32):
            for name, spec, _ in regression_suite():
                grid = VelocityGrid.for_spec(spec, k)
                counts[:] = [0, 0]
                res = spectral_abscissa(spec, grid)
                out.append((f"{name}@k{k}", spec, grid, res, *counts))
    return out


def test_abscissa_needs_few_radius_evaluations(suite_abscissae):
    # false position takes a mean of 7.25 and at most 8, where the left
    # secant with its second start point took 7.75 and 9
    evals = [n for *_, n, _ in suite_abscissae]
    assert np.mean(evals) <= 7.5 and max(evals) <= 9, evals


def test_abscissa_needs_few_bracket_steps(suite_abscissae):
    # each radius starts from the last one's Perron vector and stops once it
    # decides the sign of log r: 292 steps on the cores C, against 578 from
    # x = 1 to 1e-10, and 100 on C^4 where it keeps float range (306, 630
    # and 108 under the left secant)
    steps = [n for *_, n in suite_abscissae]
    assert sum(steps) <= 450, steps


def test_the_fourth_power_halves_the_perron_steps(monkeypatch):
    # certificate plus abscissa over the suite at k = 8, counted as products
    # a @ x in every Perron bracket: 309 steps when each core was bracketed
    # as C. On C^4 one step is four power steps of C, and a 1 x 1 core takes
    # none; squaring C is not a bracket step
    counted, bracket = [], kinnet.spectral._perron_bracket

    def kept(a, *args, **kwargs):
        a = a.view(_CountedMatrix)
        a.products = 0
        out = bracket(a, *args, **kwargs)
        counted.append(a.products)
        return out

    monkeypatch.setattr(kinnet.spectral, "_perron_bracket", kept)
    for name, spec, _ in regression_suite():
        grid = VelocityGrid.for_spec(spec, 8)
        small_gain_certificate(spec, grid)
        spectral_abscissa(spec, grid)
    assert sum(counted) <= 309 // 2, sum(counted)


def test_abscissa_bracket_is_certified(suite_abscissae):
    for name, spec, grid, res, *_ in suite_abscissae:
        assert 0.0 < res.bracket_width <= 1e-6, name
        half = 0.5 * res.bracket_width
        left = assemble_gain(spec, grid, res.lambda_star - half).operator.matrix
        right = assemble_gain(spec, grid, res.lambda_star + half).operator.matrix
        assert _dense_radius(left) > 1.0 > _dense_radius(right), name


def test_abscissa_evaluates_inside_its_bracket(monkeypatch):
    # once the sign bracket is found, every shift the abscissa evaluates lies
    # strictly inside the bracket held at that moment, and every phi it reads
    # is finite. phi > 0 where the bracketed matrix has log r above its level
    shifts, readings = [], []
    gain, bracket = kinnet.operators._GainFactors.balanced_core, kinnet.spectral._perron_bracket

    def recorded_shift(self, lam):
        shifts.append(lam)
        return gain(self, lam)

    def recorded_reading(a, tol, x0=None, level=None):
        out = bracket(a, tol, x0, level)
        readings.append((out[0], level))
        return out

    monkeypatch.setattr(kinnet.operators._GainFactors, "balanced_core", recorded_shift)
    monkeypatch.setattr(kinnet.spectral, "_perron_bracket", recorded_reading)
    specs = [(name, spec) for name, spec, _ in regression_suite()]
    specs.append(("survival_clamp", single_circle(0.5, gamma=0.0, v_min=0.005, v_max=0.015)))
    for name, spec in specs:
        shifts.clear()
        readings.clear()
        spectral_abscissa(spec, VelocityGrid.for_spec(spec, 8))
        assert len(shifts) == len(readings), name
        above, below = [], []  # shifts with phi > 0 and with phi < 0
        for lam, (r, level) in zip(shifts, readings):
            assert 0.0 < r < math.inf, name
            if above and below:
                assert max(above) < lam < min(below), (name, lam)
            (above if math.log(r) > level else below).append(lam)


def test_abscissa_brackets_where_the_survival_clamp_bends_phi(monkeypatch):
    # at v = 0.01 the survival exponent -lam*l/v passes the clamp at 700 for
    # lam < -7, so phi has slope -r only left of there and is locally
    # concave where it bends; the bracket starts at -10
    spec = single_circle(0.5, gamma=0.0, v_min=0.005, v_max=0.015)
    grid = VelocityGrid.for_spec(spec, 1)
    shifts = []
    gain = kinnet.operators._GainFactors.balanced_core

    def recorded(self, lam):
        shifts.append(lam)
        return gain(self, lam)

    monkeypatch.setattr(kinnet.operators._GainFactors, "balanced_core", recorded)
    res = spectral_abscissa(spec, grid)
    assert shifts[1] == -10.0
    assert res.lambda_star == pytest.approx(single_circle_lambda_star(spec), abs=1e-6)
    half = 0.5 * res.bracket_width
    assert 0.0 < res.bracket_width <= 1e-6
    assert _dense_radius(assemble_gain(spec, grid, res.lambda_star - half)
                         .operator.matrix) > 1.0
    assert _dense_radius(assemble_gain(spec, grid, res.lambda_star + half)
                         .operator.matrix) < 1.0


def test_abscissa_on_the_seeded_specs(monkeypatch):
    # radius evaluations over the suite, random_spec(s, family) for s < 10,
    # heterogeneous_five(0.9) and the moment specs at k = 4, 8 and 32: 1297
    # under false position, 1440 under the left secant. Dense eigenvalues
    # certify each bracket at k = 4 and 8
    evals = [0]
    bracket = kinnet.spectral._perron_bracket

    def counted(*args, **kwargs):
        evals[0] += 1
        return bracket(*args, **kwargs)

    monkeypatch.setattr(kinnet.spectral, "_perron_bracket", counted)
    specs = _seeded_specs() + [("heterogeneous_five", heterogeneous_five(0.9))] + moment_specs()
    for k in (4, 8, 32):
        for name, spec in specs:
            grid = VelocityGrid.for_spec(spec, k)
            res = spectral_abscissa(spec, grid)
            assert 0.0 < res.bracket_width <= 1e-6, (name, k)
            if k < 32:
                half = 0.5 * res.bracket_width
                left = assemble_gain(spec, grid, res.lambda_star - half).operator.matrix
                right = assemble_gain(spec, grid, res.lambda_star + half).operator.matrix
                assert _dense_radius(left) > 1.0 > _dense_radius(right), (name, k)
    assert evals[0] <= 1350, evals[0]


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


@pytest.mark.parametrize("field", ["length", "delay"])
def test_resolvent_refuses_a_mesh_cell_of_zero_width(field):
    # 5e-324 / 64 rounds to 0: a trapezoid weight of 0 reads log 0 and 0 / 0
    circles = heterogeneous_five(0.4).circles
    tiny = single_circle(0.5, **{field: 5e-324}).circles[0]
    spec = NetworkSpec(circles=(circles[0], tiny), routing=np.full((2, 2), 0.1),
                       v_min=1.0, v_max=2.0)
    with pytest.raises(DomainError, match=r"circles\[1\]: a resolvent mesh cell"):
        resolvent_constant_c(spec, VelocityGrid.for_spec(spec, 2), 1.0)


def test_resolvent_keeps_a_nan_block(sc_spec, monkeypatch):
    # min(x_block, nan) would drop the nan history block
    sums = kinnet.spectral._column_sums

    def nan_history(nodes, phi):  # the history mesh is (J, n + 1), the x mesh (J, 1, n + 1)
        return sums(nodes, phi) * (math.nan if np.ndim(nodes) == 2 else 1.0)

    monkeypatch.setattr(kinnet.spectral, "_column_sums", nan_history)
    assert math.isnan(resolvent_constant_c(sc_spec, VelocityGrid.for_spec(sc_spec, 2), 1.0))


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
        length=0.8,
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


def _long_double_column_sums(nodes, phi):
    """The column sums of _column_sums' trapezoid resolvent, summed directly
    in np.longdouble, whose exponent range holds every product here."""
    x, f = np.asarray(nodes, np.longdouble), np.asarray(phi, np.longdouble)
    half = 0.5 * np.diff(x)
    w = np.r_[half, 0.0] + np.r_[0.0, half]
    tail = np.r_[np.cumsum((w * np.exp(-f))[::-1])[::-1], 0.0]  # sum_{m >= i} w_m e^{-phi_m}
    return (np.r_[0.0, half] * tail[:-1] + np.r_[half, 0.0] * tail[1:]) * np.exp(f) / w


@pytest.mark.parametrize("span", [1.0, 1e-100, 1e-158, 1e-200])
def test_column_sums_keep_a_short_mesh(span):
    # each half-width meets e^{phi + log tail}, about the span, after it is
    # divided by w: multiplied first, the product lost digits near a span of
    # 1e-155 and read 0 from 1e-160 down
    nodes = np.linspace(0.0, span, 65)
    for phi in (nodes, 3.0 * (nodes / span) ** 2):
        got = kinnet.spectral._column_sums(nodes, phi)
        assert got.min() > 0.0
        np.testing.assert_allclose(got, _long_double_column_sums(nodes, phi).astype(float),
                                   rtol=1e-12, atol=0)


def _per_circle_resolvent_constant(spec, grid, lam, n_x, n_theta):
    """resolvent_constant_c as a loop over circles, one mesh at a time."""
    def column_sums(nodes, phi):
        half = 0.5 * np.diff(nodes)
        w = np.r_[half, 0.0] + np.r_[0.0, half]
        log_tail = np.logaddexp.accumulate((np.log(w) - phi)[..., ::-1], axis=-1)[..., ::-1]
        out = np.zeros(np.shape(phi))
        out[..., 1:] += half / w[1:] * np.exp(phi[..., 1:] + log_tail[..., 1:])
        out[..., :-1] += half / w[:-1] * np.exp(phi[..., :-1] + log_tail[..., 1:])
        return out

    v = grid.centers[:, None]
    best = math.inf
    for c in spec.circles:
        xs = np.linspace(0.0, c.length, n_x + 1)
        phi = (lam * xs + c.absorption.integral_x(xs, v)) / v
        sigma = np.linspace(0.0, c.delay, n_theta + 1)
        best = min(best, float(np.min(column_sums(xs, phi) / v)),
                   float(np.min(column_sums(sigma, lam * sigma))))
    return best


@pytest.mark.parametrize("k", [8, 16])
def test_resolvent_constant_equals_the_per_circle_loop(k):
    for name, spec, _ in regression_suite():
        g = VelocityGrid.for_spec(spec, k)
        lam = max(0.0, -spec.absorption_range()[1]) + 1.0
        for n_x, n_theta in ((64, 64), (16, 40)):
            assert resolvent_constant_c(spec, g, lam, n_x=n_x, n_theta=n_theta) == \
                _per_circle_resolvent_constant(spec, g, lam, n_x, n_theta), name


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

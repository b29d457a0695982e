import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kinnet import DelayMeasure, HistoryGapError, measure_laplace, \
    measure_total_variation
from kinnet.delayquad import _shifted_moments, delay_quadrature


def _apply(measure, dt, n, g):
    offsets, weights = delay_quadrature(measure, dt, n)
    return float(sum(w * g(-s * dt) for s, w in zip(offsets, weights)))


def test_history_gap_error():
    m = DelayMeasure(kind="dirac", r=1.0)
    with pytest.raises(HistoryGapError):
        delay_quadrature(m, 0.1, 5)
    with pytest.raises(HistoryGapError):
        delay_quadrature(m, 0.1, 1)


@given(st.sampled_from(["dirac", "exponential", "exponential_negative", "piecewise",
                        "piecewise_cells"]),
       st.floats(0.2, 2.0), st.integers(3, 200))
def test_weights_sum_to_total_variation(kind, r, extra):
    if kind == "dirac":
        m = DelayMeasure(kind="dirac", r=r)
    elif kind == "exponential":
        m = DelayMeasure(kind="exponential", r=r, theta_rate=1.3)
    elif kind == "exponential_negative":
        m = DelayMeasure(kind="exponential", r=r, theta_rate=-0.9)
    elif kind == "piecewise":
        m = DelayMeasure(kind="piecewise", r=r, atoms=((-0.5 * r, 0.7),),
                         density_edges=(-r, -0.25 * r), density_values=(0.8,))
    else:
        m = DelayMeasure(kind="piecewise", r=r, atoms=((-0.9 * r, 0.3), (-0.2 * r, 1.1)),
                         density_edges=(-r, -0.6 * r, -0.3 * r, -0.05 * r),
                         density_values=(0.5, 0.0, 1.7))
    dt = r / extra * 1.01
    n = int(math.ceil(r / dt)) + 2
    _, weights = delay_quadrature(m, dt, n)
    assert np.sum(weights) == pytest.approx(measure_total_variation(m), abs=1e-12)
    assert np.all(weights >= -1e-15)


def test_a_sliver_of_a_cell_gives_no_negative_weight():
    # the density reaches 1.2e-14 dt past the sample at -100 dt; on that
    # sliver the share (th_hi i0 - i1) / dt of sample 101 cancels to
    # -1.69e-15, so sample 100 takes the sliver's whole mass instead
    m = DelayMeasure(kind="exponential", r=1.8376536704670194, theta_rate=1.3)
    dt = m.r / 101 * 1.01
    _, weights = delay_quadrature(m, dt, int(math.ceil(m.r / dt)) + 2)
    assert np.all(weights >= 0.0)
    assert np.sum(weights) == pytest.approx(measure_total_variation(m), abs=1e-12)


def test_dirac_atom_linear_split():
    # atom at -r lands between samples; reading e^{lam*theta} converges to the
    # Laplace transform at first order in dt
    m = DelayMeasure(kind="dirac", r=0.37)
    for lam, tol in ((1.0, 2e-3), (-0.5, 1e-3)):
        got = _apply(m, 0.01, 40, lambda th: math.exp(lam * th))
        assert got == pytest.approx(measure_laplace(m, lam), abs=tol)


def test_exponential_density_read():
    m = DelayMeasure(kind="exponential", r=1.0, theta_rate=2.0)
    got = _apply(m, 0.005, 203, lambda th: math.exp(0.8 * th))
    assert got == pytest.approx(measure_laplace(m, 0.8), abs=1e-5)


def test_constant_read_is_exact():
    # piecewise-linear reconstruction of a constant is the constant
    m = DelayMeasure(kind="piecewise", r=1.0, atoms=((-0.4, 0.25),),
                     density_edges=(-1.0, 0.0), density_values=(0.5,))
    got = _apply(m, 0.03, 36, lambda th: 1.0)
    assert got == pytest.approx(measure_total_variation(m), abs=1e-12)


def test_density_reaching_past_the_support_is_clipped():
    # edges may pass [-r, 0] by 1e-12; the mass past it counts nowhere
    m = DelayMeasure(kind="piecewise", r=1.0, density_edges=(-1.0 - 1e-12, 0.0),
                     density_values=(1e6,))
    assert measure_total_variation(m) == 1e6
    _, weights = delay_quadrature(m, 0.1, 12)
    assert np.sum(weights) == pytest.approx(measure_total_variation(m), rel=1e-14)
    # a cell wholly past the support carries no mass
    m = DelayMeasure(kind="piecewise", r=1.0,
                     density_edges=(-1.0 - 1e-12, -1.0 - 5e-13, 0.0),
                     density_values=(1e6, 2.0))
    assert measure_total_variation(m) == 2.0
    assert measure_laplace(m, 0.5) == pytest.approx(2.0 * (1.0 - math.exp(-0.5)) / 0.5)


def _quad_weights(m, dt, n):
    """The weight of sample s as the integral of its hat function times the
    density e^{rate theta} over [-r, 0], by adaptive quadrature."""
    from scipy.integrate import quad

    def share(hat, lo, hi):
        lo, hi = max(lo, -m.r), min(hi, 0.0)
        if lo >= hi:
            return 0.0
        return quad(lambda th: hat(th) * math.exp(m.theta_rate * th), lo, hi,
                    epsabs=0.0, epsrel=1e-13)[0]

    w = np.zeros(n)
    for s in range(n):
        lo, mid, hi = -(s + 1) * dt, -s * dt, -(s - 1) * dt
        w[s] = (share(lambda th: (th - lo) / dt, lo, mid)
                + share(lambda th: (hi - th) / dt, mid, hi))
    return w


@pytest.mark.parametrize("rate", [1e-9, -1e-9, 1e-7, -1e-7, 1.3e-6, -1.3e-6, 1e-5,
                                  -1e-5, 1e-3, -1e-3, 1.3, -0.9])
def test_exponential_weights_match_quadrature_for_every_rate(rate):
    # a rate near 0 cancelled in the closed-form moments: at 1e-7 the weight
    # of sample 24 read 2.0e-2 where 1.0e-2 belongs
    m = DelayMeasure(kind="exponential", r=1.0, theta_rate=rate)
    dt, n = 0.01, 102
    offsets, weights = delay_quadrature(m, dt, n)
    got = np.zeros(n)
    got[offsets] = weights
    np.testing.assert_allclose(got, _quad_weights(m, dt, n), rtol=1e-12, atol=1e-16)
    assert np.sum(weights) == pytest.approx(measure_total_variation(m), rel=1e-13)


def test_a_sliver_of_a_cell_matches_quadrature():
    # the support ends 1.2e-14 dt past the sample at -100 dt
    m = DelayMeasure(kind="exponential", r=1.8376536704670194, theta_rate=1.3)
    dt = m.r / 101 * 1.01
    n = int(math.ceil(m.r / dt)) + 2
    offsets, weights = delay_quadrature(m, dt, n)
    got = np.zeros(n)
    got[offsets] = weights
    np.testing.assert_allclose(got, _quad_weights(m, dt, n), rtol=1e-12, atol=1e-16)
    assert np.sum(weights) == pytest.approx(measure_total_variation(m), rel=1e-13)


@pytest.mark.parametrize("rate", [1e3, 1e6, 1e12])
def test_a_steep_density_keeps_its_mass(rate):
    # at rate dt = 1e4 the moments of a cell taken from its lower end
    # overflow unless e^{rate theta} is carried from its upper end
    m = DelayMeasure(kind="exponential", r=1.0, theta_rate=rate)
    _, weights = delay_quadrature(m, 0.01, 102)
    assert np.all(np.isfinite(weights))
    assert np.sum(weights) == pytest.approx(measure_total_variation(m), rel=1e-13)


def test_shifted_moments_at_rate_zero_are_the_series_term():
    # rate 0 returns d and d d / 2 at once; a rate of 1e-300 takes the
    # series, whose one term gives the same values
    lo = np.array([-3.0, -0.25, 0.0, 1e-3, -1e-200])
    d = np.array([0.1, 1e-12, 0.0, 0.7, 2.5])
    for got, want in zip(_shifted_moments(0.0, lo, d), _shifted_moments(1e-300, lo, d)):
        assert np.array_equal(got, want)

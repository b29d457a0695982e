import math

import numpy as np
import pytest

from kinnet import (BlockOperator, DomainError, PreconditionError,
                    VelocityGrid, assemble_gain, assemble_pd,
                    dirichlet_norm_closed_form, measure_laplace,
                    pd_norm_closed_form)
from kinnet.presets import heterogeneous_five, regression_suite, \
    single_circle, single_circle_gain

from conftest import survival_factor


def test_velocity_grid_uniform():
    g = VelocityGrid.uniform(1.0, 2.0, 4)
    assert g.k == 4
    assert np.allclose(g.centers, [1.125, 1.375, 1.625, 1.875])
    assert np.allclose(g.widths, 0.25)
    with pytest.raises(DomainError):
        VelocityGrid.uniform(1.0, 2.0, 0)


def test_block_operator_norm_is_weighted_column_sum():
    mat = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = np.array([0.5, 2.0])
    op = BlockOperator(matrix=mat, weights=w)
    # column c: sum_r |A[r,c]| w_r / w_c
    expected = max((1.0 * 0.5 + 3.0 * 2.0) / 0.5, (2.0 * 0.5 + 4.0 * 2.0) / 2.0)
    assert op.norm() == pytest.approx(expected)
    with pytest.raises(DomainError):
        BlockOperator(matrix=np.ones((2, 3)), weights=w)


def test_survival_factor_constant_q():
    # self-check of the scalar oracle behind the dense reference below
    spec = single_circle(0.5, gamma=0.4, length=1.2)
    c = spec.circles[0]
    v = 1.5
    assert survival_factor(c, 0.7, v, 1.2) == pytest.approx(
        math.exp(-(0.7 * 1.2 + 0.4 * 1.2) / v))
    with pytest.raises(DomainError):
        survival_factor(c, 0.0, v, 2.0)


def test_gain_matches_closed_form_at_k1():
    spec = single_circle(0.8, gamma=0.3, delay=0.6)
    g = VelocityGrid.for_spec(spec, 1)
    rep = assemble_gain(spec, g, 0.0)
    assert rep.operator.matrix[0, 0] == pytest.approx(
        single_circle_gain(spec), rel=1e-12)


def test_gain_entries_nonnegative_and_report_fields():
    spec = heterogeneous_five(0.4)
    g = VelocityGrid.for_spec(spec, 8)
    rep = assemble_gain(spec, g, 0.0)
    assert np.all(rep.operator.matrix >= 0.0)
    assert rep.lam == 0.0


def _dense_reference(spec, grid, lam):
    """Delay block and survival vector entry by entry from scalar beta,
    measure_laplace and survival_factor calls."""
    J, K = spec.n_circles, grid.k
    v, dv = grid.centers, grid.widths
    delay = np.zeros((J * K, J * K))
    survival = np.zeros(J * K)
    for j, c in enumerate(spec.circles):
        lap = measure_laplace(c.delay_measure, lam)
        for kp in range(K):
            survival[j * K + kp] = survival_factor(c, lam, v[kp], c.length)
            for k in range(K):
                beta = c.scattering.beta(v[k], v[kp])
                for i in range(J):
                    delay[i * K + k, j * K + kp] = (
                        spec.routing[i, j] * lap * beta * v[kp] * dv[kp] / v[k])
    return delay, survival


@pytest.mark.parametrize("k", [1, 8, 32])
@pytest.mark.parametrize("lam", [0.0, -0.3])
def test_gain_and_pd_match_dense_reference(k, lam):
    for name, spec, _ in regression_suite():
        g = VelocityGrid.for_spec(spec, k)
        delay, survival = _dense_reference(spec, g, lam)
        gain = assemble_gain(spec, g, lam).operator.matrix
        np.testing.assert_allclose(gain, delay * survival[None, :],
                                   rtol=1e-14, atol=0.0, err_msg=name)
        w = np.tile(g.widths, spec.n_circles)
        n_delay = BlockOperator(delay, w).norm()
        n_trace = BlockOperator(np.diag(survival), w).norm()
        s = math.sqrt(n_trace / n_delay) if n_delay > 0.0 else 1.0
        n = len(survival)
        pd = assemble_pd(spec, g, lam).matrix
        np.testing.assert_allclose(pd[:n, n:], s * delay,
                                   rtol=1e-14, atol=0.0, err_msg=name)
        np.testing.assert_allclose(pd[n:, :n], np.diag(survival) / s,
                                   rtol=1e-14, atol=0.0, err_msg=name)
        assert not np.any(pd[:n, :n]) and not np.any(pd[n:, n:])


def test_pd_block_product_equals_gain():
    spec = heterogeneous_five(0.4)
    g = VelocityGrid.for_spec(spec, 4)
    pd = assemble_pd(spec, g, 0.0)
    gain = assemble_gain(spec, g, 0.0).operator.matrix
    n = gain.shape[0]
    sq = pd.matrix @ pd.matrix
    assert np.allclose(sq[:n, :n], gain, atol=1e-13)
    assert np.allclose(pd.matrix[:n, :n], 0.0)
    assert np.allclose(pd.matrix[n:, n:], 0.0)


def test_pd_norm_bound_requires_mass_preserving():
    spec = single_circle(0.5, kernel_scale=0.7)
    with pytest.raises(PreconditionError):
        pd_norm_closed_form(spec)


def test_dirichlet_bounds_closed_form():
    spec = single_circle(0.5, gamma=0.4, length=1.5)
    d0, k = dirichlet_norm_closed_form(spec)
    assert d0 == pytest.approx(math.exp(0.4 * 1.5 / spec.v_min))
    assert k == pytest.approx(0.5)


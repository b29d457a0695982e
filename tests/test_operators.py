import math
from dataclasses import replace

import numpy as np
import pytest

from kinnet import (BlockOperator, DelayMeasure, DomainError, PreconditionError,
                    ScatteringKernel, VelocityGrid, assemble_gain,
                    dirichlet_norm_closed_form, load_network, measure_laplace,
                    pd_norm_closed_form)
from kinnet.model import _log_laplace
from kinnet.operators import _gain_factors, _junction_moments
from kinnet.presets import heterogeneous_five, random_spec, regression_suite, \
    single_circle, single_circle_gain

from conftest import (moment_specs, negative_rate_spec, shape_doc, short_absorption_spec,
                      survival_factor)
from pd_oracle import assemble_pd


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
    # the suite, and a network with every coefficient and measure kind
    for name, spec, _ in [*regression_suite(), ("shape_doc", load_network(shape_doc()), None)]:
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


# kernels whose edges miss the grid centers, tables that stop short of
# [v_min, v_max] = [1, 2] or start below it
_KERNELS = {
    "constant": ScatteringKernel(kind="constant", value=0.7),
    "separable": ScatteringKernel(kind="separable", v_edges=(1.0, 1.37, 1.61, 2.0),
                                  out_values=(0.5, 1.5, 0.8), in_values=(2.0, 0.25, 1.1)),
    "separable_starts_above": ScatteringKernel(kind="separable", v_edges=(1.3, 1.6, 1.9),
                                               out_values=(0.5, 1.5), in_values=(2.0, 0.25)),
    "tabulated": ScatteringKernel(kind="tabulated", v_edges=(1.0, 1.23, 2.0),
                                  values=((0.1, 0.6), (0.9, 0.3))),
    "tabulated_starts_below": ScatteringKernel(kind="tabulated", v_edges=(0.5, 1.2, 1.7),
                                               values=((0.1, 0.6), (0.9, 0.3))),
}


@pytest.mark.parametrize("kernel", _KERNELS.values(), ids=_KERNELS)
@pytest.mark.parametrize("k", [1, 7, 32])
def test_scattering_table_is_the_broadcast_kernel(kernel, k):
    # a circle's kernel on the grid, beta(v_k, v_k') v_k' dv_k', is its block
    # of B diag(v) at routing weight 1, as the factorization builds it dense
    spec = single_circle(0.5)
    spec = replace(spec, circles=(replace(spec.circles[0], scattering=kernel),),
                   routing=np.array([[1.0]]), mass_preserving=False)
    grid = VelocityGrid.uniform(1.0, 2.0, k)
    v = grid.centers
    want = kernel.beta(v[:, None], v[None, :]) * (v * grid.widths)[None, :]
    got = _gain_factors(spec, grid).dense(np.ones(k)) * v[:, None]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


# every measure kind, with the |lam + rate| < 1e-14 branch at lam = -2,
# atoms of no mass (one where e^{lam theta} passes float range) and an atom at 0
_MEASURES = (DelayMeasure(kind="dirac", r=0.7),
             DelayMeasure(kind="exponential", r=0.6, theta_rate=2.0),
             DelayMeasure(kind="exponential", r=0.9, theta_rate=-1.7),
             DelayMeasure(kind="piecewise", r=1.0, atoms=((-1.0, 0.0), (-0.25, 0.3)),
                          density_edges=(-0.8, -0.2, 0.0), density_values=(1.5, 0.0)))


def test_factor_laplace_reads_the_measure_laplace():
    with pytest.warns(UserWarning, match="atom at theta=0"):
        at_zero = DelayMeasure(kind="piecewise", r=0.5, atoms=((0.0, 0.4), (-0.5, 0.0)),
                               density_edges=(-0.5, -0.1), density_values=(0.7,))
    measures = (*_MEASURES, at_zero)
    spec = single_circle(0.5)
    spec = replace(spec, circles=tuple(replace(spec.circles[0], delay_measure=m)
                                       for m in measures),
                   routing=np.full((len(measures),) * 2, 0.2))
    grid = VelocityGrid.for_spec(spec, 3)
    factors = _gain_factors(spec, grid)
    slope, offset = factors.log_bound
    switch = (700.0 - offset) / slope  # |lam| where balanced_core takes its log form
    for lam in (0.0, -2.0, 1e-15, 0.9 * switch, -0.9 * switch, 1.1 * switch,
                -1.1 * switch, -1000.0):
        want = np.repeat([measure_laplace(m, lam) for m in measures], grid.k)
        assert np.array_equal(factors.laplace(lam), want), lam
        assert ([_log_laplace(m, lam) for m in factors.measures]
                == [_log_laplace(m, lam) for m in measures]), lam
        s, a, _ = factors.balanced_core(lam)
        if abs(lam) < switch:
            assert s == 0.0 and np.array_equal(a, factors.core(lam)), lam
        else:  # the log form: every k-cell kernel is constant, so m = 1 and
            # A_ij = (sum_k' c_ik' omega_k' U_j,(i,k')) e^{(t_j - t_i) / 2} / e^s
            assert len(factors.omega[1]) == 1
            log_c = np.repeat([_log_laplace(m, lam) for m in measures], grid.k)
            log_c = (log_c + factors.log_survival(lam)).reshape(len(measures), grid.k)
            t = log_c.max(axis=1)
            with np.errstate(divide="ignore"):
                log_terms = np.log(factors.route.T).reshape(len(measures), grid.k, -1)
            log_terms += (log_c - t[:, None] + np.log(factors.omega[2]))[:, :, None]
            half = 0.5 * t
            log_a = np.logaddexp.reduce(log_terms, axis=1) + half[:, None] + half
            assert s == log_a.max() and np.array_equal(a, np.exp(log_a - s)), lam
            # and, summed in exp space, the same core
            terms = (np.exp(log_c - t[:, None]) * factors.omega[2])[:, :, None] \
                * factors.route.T.reshape(len(measures), grid.k, -1)
            with np.errstate(divide="ignore"):
                log_a = (np.log(terms.sum(axis=1))
                         - 0.5 * t[:, None] + 0.5 * t[None, :] + t[:, None])
            assert s == pytest.approx(log_a.max(), rel=1e-14), lam
            np.testing.assert_allclose(a, np.exp(log_a - s), rtol=1e-12, atol=0)


def _per_build_log_bound(factors) -> tuple[float, float]:
    """log_bound as each build of the factorization once took it, with every
    measure's log total variation and largest density rate read anew."""
    u = factors.route
    u_min, u_max = float(u.min()), float(u.max())
    if u_min == 0.0:
        u_min = np.min(u, where=u > 0.0, initial=1.0)
    log_u = (max(-math.log(min(u_min, 1.0)), math.log(max(u_max, 1.0)))
             - math.log(np.minimum.reduce(factors.omega[2])) + math.log(factors.k))
    log_tv = [math.log(t) if (t := measure_laplace(m, 0.0)) > 0.0 else -math.inf
              for m in factors.measures]
    rates = [max((abs(rate) for *_, rate in m._parts[1]), default=0.0)
             for m in factors.measures]
    return (max(m.r for m in factors.measures) - float(factors.slope.min()),
            max(abs(x) + rate * m.r for x, rate, m in zip(log_tv, rates, factors.measures))
            + float(np.abs(factors.offset).max()) + log_u)


@pytest.mark.parametrize("k", [3, 8, 32])
def test_the_owned_measure_terms_give_the_per_build_log_bound(k):
    # each measure's |log TV| + max |rate| r is built once with the measure;
    # the factorization's log bound reads it and equals, bit for bit, the one
    # each build once derived, and its offset is -Q(v) / v at the grid
    # centers, on absorption tables whose edges lie off the grid or stop short
    specs = ([spec for _, spec, _ in regression_suite()]
             + [random_spec(s, family) for family in ("estimate", "example1", "example2", "c1")
                for s in range(10)]
             + [spec for _, spec in moment_specs()]
             + [short_absorption_spec(), negative_rate_spec()])
    for spec in specs:
        grid = VelocityGrid.for_spec(spec, k)
        v = grid.centers
        factors = _gain_factors(spec, grid)
        absorbed = np.array([c.absorption.integral_x(c.length, v) for c in spec.circles])
        assert np.array_equal(factors.offset, (-absorbed / v).ravel())
        assert factors.log_bound == _per_build_log_bound(factors)


@pytest.mark.parametrize("k", [1, 8, 32])
def test_log_bound_takes_b_s_extremes_from_the_check(k):
    # B is kept as its route U, and log_bound is built with the factorization
    # from U's extremes as the check found them: where U has no zero entry its
    # least positive entry is its minimum; the masked reduction over U gives
    # the same bound (the two-circle specs' U has zero blocks and takes it)
    for name, spec, _ in regression_suite():
        factors = _gain_factors(spec, VelocityGrid.for_spec(spec, k))
        u = factors.route
        assert factors.log_bound == factors._log_bound(u.min(), u.max()), name
        assert factors._log_bound(0.0, u.max()) == factors.log_bound, name


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


def _index_tuples(spec, grid):
    """The distinct tuples of each circle's kernel cell index over the grid
    centers: the number of interior kernel edges at or below a center."""
    edges = [c.scattering.v_edges[1:-1] for c in spec.circles]
    return {tuple(sum(e <= v for e in cuts) for cuts in edges) for v in grid.centers}


_MOMENT_SPECS = {**dict(moment_specs()),
                 **{name: spec for name, spec, _ in regression_suite()}}


@pytest.mark.parametrize("k", [1, 3, 8, 32])
@pytest.mark.parametrize("name", list(_MOMENT_SPECS))
def test_junction_moments_factor_b(name, k):
    # B = (I_J kron omega) U, transposed: each velocity group's cells, on
    # which every kernel is constant, scaled by the group's peak v dv, then
    # the route
    spec = _MOMENT_SPECS[name]
    grid = VelocityGrid.for_spec(spec, k)
    (group, first, share), route = _junction_moments(spec, grid)
    m = len(_index_tuples(spec, grid))
    assert group.shape == share.shape == (k,) and first.shape == (m,)
    assert route.shape == (spec.n_circles * m, spec.n_circles * k)
    if name in ("separable", "tabulated", "mixed") and k >= 8:
        assert m > 1
    if all(c.scattering.kind == "constant" for c in spec.circles):
        assert m == 1
    # each cell in one group, the groups runs of adjacent cells from their
    # first cells, and a cell's weight its v dv over the group's peak v dv
    assert (np.diff(group) >= 0).all() and np.array_equal(group[first], np.arange(m))
    assert np.array_equal(first, np.flatnonzero(np.diff(group, prepend=-1)))
    vdv = grid.centers * grid.widths
    np.testing.assert_allclose(share, vdv / np.maximum.reduceat(vdv, first)[group],
                               rtol=1e-15, atol=0)
    omega = (group[:, None] == np.arange(m)) * share[:, None]
    # B from the kernels themselves: w_ij beta_j(v_k, v_k') v_k' dv_k' / v_k
    v = grid.centers
    b = np.block([[w * c.scattering.beta(v[:, None], v[None, :]) * (vdv / v[:, None])
                   for w, c in zip(row, spec.circles)] for row in spec.routing])
    factored = (np.kron(np.eye(spec.n_circles), omega) @ route).T
    assert np.array_equal(factored > 0, b > 0)
    nonzero = b > 0
    np.testing.assert_allclose(factored[nonzero], b[nonzero], rtol=1e-15, atol=0)
    # and so is the dense build of the gain factorization, from the same moments
    dense = _gain_factors(spec, grid).dense(np.ones(len(b)))
    np.testing.assert_allclose(dense, b, rtol=1e-15, atol=0)

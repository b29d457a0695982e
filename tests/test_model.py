import copy
import dataclasses
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from kinnet import (AbsorptionProfile, DelayMeasure, KinnetError, NetworkSpec,
                    SchemaError,
                    ScatteringKernel, ValidationError, load_network,
                    measure_laplace, measure_total_variation, network_bounds,
                    routing_norm)
from kinnet.model import _exp_increment, _log_laplace
from kinnet.presets import (conservation_spec, constant_kernel, random_spec,
                            regression_suite, single_circle)

from conftest import json_paths, shape_doc


# ---------------------------------------------------------------------------
# delay measures

def test_measure_validation():
    with pytest.raises(ValidationError):
        DelayMeasure(kind="uniform", r=1.0)
    with pytest.raises(ValidationError):
        DelayMeasure(kind="dirac", r=0.0)
    with pytest.raises(ValidationError):
        DelayMeasure(kind="exponential", r=1.0, theta_rate=0.0)
    with pytest.raises(ValidationError):
        DelayMeasure(kind="piecewise", r=1.0, atoms=((-2.0, 1.0),))
    with pytest.raises(ValidationError):
        DelayMeasure(kind="piecewise", r=1.0, atoms=((-0.5, -1.0),))
    with pytest.raises(ValidationError):
        DelayMeasure(kind="piecewise", r=1.0, density_edges=(-1.0, -1.5, 0.0),
                     density_values=(1.0, 1.0))


def test_atom_at_zero_warns():
    with pytest.warns(UserWarning, match="atom at theta=0") as record:
        DelayMeasure(kind="piecewise", r=1.0, atoms=((0.0, 0.5),))
    # at the constructing line, not inside the dataclass's generated __init__
    assert record[0].filename == __file__


def test_total_variation_closed_forms():
    assert measure_total_variation(DelayMeasure(kind="dirac", r=0.7)) == 1.0
    m = DelayMeasure(kind="exponential", r=0.8, theta_rate=2.5)
    assert measure_total_variation(m) == pytest.approx(
        (1.0 - math.exp(-2.5 * 0.8)) / 2.5, abs=1e-14)
    m = DelayMeasure(kind="piecewise", r=1.0, atoms=((-0.3, 0.4),),
                     density_edges=(-1.0, -0.5, 0.0), density_values=(1.0, 2.0))
    assert measure_total_variation(m) == pytest.approx(0.4 + 0.5 + 1.0, abs=1e-14)


def test_laplace_against_quadrature():
    m = DelayMeasure(kind="exponential", r=0.9, theta_rate=1.7)
    for lam in (-1.0, 0.0, 0.5, 3.0):
        ref, _ = quad(lambda th: math.exp(lam * th) * math.exp(1.7 * th), -0.9, 0.0)
        assert measure_laplace(m, lam) == pytest.approx(ref, rel=1e-10)
    m = DelayMeasure(kind="piecewise", r=1.0, atoms=((-0.25, 0.3),),
                     density_edges=(-0.8, -0.2), density_values=(1.5,))
    for lam in (-0.5, 0.0, 2.0):
        ref, _ = quad(lambda th: 1.5 * math.exp(lam * th), -0.8, -0.2)
        ref += 0.3 * math.exp(-0.25 * lam)
        assert measure_laplace(m, lam) == pytest.approx(ref, rel=1e-10)
    # several density cells, one of them empty, each read as its own increment
    edges, values = (-1.0, -0.7, -0.45, -0.1, 0.0), (0.4, 2.5, 0.0, 1.2)
    m = DelayMeasure(kind="piecewise", r=1.0, density_edges=edges, density_values=values)
    for lam in (-3.0, -0.5, 0.0, 1e-15, 2.0, 7.0):
        ref = sum(v * quad(lambda th: math.exp(lam * th), a, b)[0]
                  for a, b, v in zip(edges, edges[1:], values))
        assert measure_laplace(m, lam) == pytest.approx(ref, rel=1e-10)


def test_log_laplace_is_finite_past_float_range():
    measures = (DelayMeasure(kind="dirac", r=0.7),
                DelayMeasure(kind="exponential", r=0.9, theta_rate=1.7),
                DelayMeasure(kind="exponential", r=0.6, theta_rate=2.0),
                DelayMeasure(kind="piecewise", r=1.0, atoms=((-0.25, 0.3), (0.0, 0.0)),
                             density_edges=(-0.8, -0.2, 0.0), density_values=(1.5, 0.0)))
    for m in measures:
        for lam in (-30.0, -2.0, 0.0, 1e-15, 0.5, 3.0):
            assert _log_laplace(m, lam) == pytest.approx(
                math.log(measure_laplace(m, lam)), rel=1e-12, abs=1e-12)
    # the transform itself passes float range below lam = -log(max float) / 100
    m = DelayMeasure(kind="piecewise", r=100.0, atoms=((-100.0, 0.5), (-99.0, 0.5)),
                     density_edges=(-100.0, 0.0), density_values=(0.01,))
    ref = 1e4 + math.log(0.5 + 0.5 * math.exp(-100.0) + 0.01 / 100.0)
    assert _log_laplace(m, -100.0) == pytest.approx(ref, rel=1e-14)
    assert _log_laplace(DelayMeasure(kind="exponential", r=2.0, theta_rate=-1.0),
                        -1e4) == pytest.approx(2.0 * (1e4 + 1.0) - math.log(1e4 + 1.0))
    assert _log_laplace(DelayMeasure(kind="piecewise", r=1.0), 0.0) == -math.inf


@pytest.mark.parametrize("kwargs, match", [
    ({"kind": "piecewise", "atoms": ((-1.0, 1e308), (-0.5, 1e308))}, "total mass"),
    ({"kind": "piecewise", "density_edges": (-1.0, 0.0), "density_values": (math.inf,)},
     "total mass"),
    ({"kind": "exponential", "theta_rate": -1000.0}, "total mass"),
    ({"kind": "piecewise", "atoms": ((-1.0, math.nan),)}, "has mass nan"),
    ({"kind": "piecewise", "density_edges": (-1.0, 0.0), "density_values": (math.nan,)},
     "values must be >= 0"),
    ({"kind": "exponential", "theta_rate": math.inf}, "theta_rate must be finite"),
    ({"kind": "exponential", "theta_rate": -math.inf}, "theta_rate must be finite"),
], ids=["atoms", "density", "exponential", "nan_atom", "nan_density", "inf_rate",
        "minus_inf_rate"])
def test_delay_measure_with_infinite_or_nan_mass_is_rejected(kwargs, match):
    with pytest.raises(ValidationError, match=match):
        DelayMeasure(r=1.0, **kwargs)


def test_laplace_degenerate_rate():
    m = DelayMeasure(kind="exponential", r=0.6, theta_rate=2.0)
    assert measure_laplace(m, -2.0) == pytest.approx(0.6, abs=1e-12)


def _summed_laplace(m, lam):
    """measure_laplace as a plain sum over the measure's parts: the atoms,
    then the density cells in order."""
    atoms, cells = m._parts
    out = sum(mass * math.exp(lam * pos) for pos, mass in atoms)
    for a, b, value, rate in cells:
        out += value * _exp_increment(lam + rate, a, b)
    return out


def test_laplace_past_float_range_is_inf():
    for m in (DelayMeasure(kind="dirac", r=1.0),
              DelayMeasure(kind="exponential", r=1.0, theta_rate=2.0),
              DelayMeasure(kind="exponential", r=1.0, theta_rate=-2.0),
              DelayMeasure(kind="piecewise", r=1.0, atoms=((-1.0, 0.5),)),
              DelayMeasure(kind="piecewise", r=1.0, density_edges=(-1.0, -0.5),
                           density_values=(0.3,))):
        assert measure_laplace(m, -1000.0) == math.inf
        assert _log_laplace(m, -1000.0) < math.inf
    with pytest.raises(OverflowError):  # where the plain sum stops
        _summed_laplace(DelayMeasure(kind="dirac", r=1.0), -1000.0)
    # in range, the value is the plain sum's, bit for bit; a term past float
    # range with no weight, or in a sum that stays in range, gives no inf
    m = DelayMeasure(kind="piecewise", r=1.0, atoms=((-1.0, 0.0), (-0.05, 0.5)),
                     density_edges=(-1.0, -0.6, -0.1, 0.0),
                     density_values=(0.0, 1.5, 0.25))
    for lam in (-30.0, -2.0, 0.0, 1e-15, 0.5, 3.0):
        assert measure_laplace(m, lam) == _summed_laplace(m, lam)
    assert measure_laplace(m, -1000.0) == pytest.approx(
        0.5 * math.exp(50.0) + 1.5 * (math.exp(600.0) - math.exp(100.0)) / 1000.0
        + 0.25 * math.expm1(100.0) / 1000.0, rel=1e-12)
    sliver = DelayMeasure(kind="piecewise", r=1.0, density_edges=(-1e-10, 0.0),
                          density_values=(1.0,))
    with pytest.raises(OverflowError):
        _summed_laplace(sliver, -7.1e12)
    assert measure_laplace(sliver, -7.1e12) == pytest.approx(
        math.exp(710.0 - math.log(7.1e12)), rel=1e-12)


def test_laplace_at_zero_is_total_variation():
    for m in (DelayMeasure(kind="dirac", r=0.4),
              DelayMeasure(kind="exponential", r=1.2, theta_rate=0.7),
              DelayMeasure(kind="piecewise", r=1.0, atoms=((-1.0, 2.0),),
                           density_edges=(-1.0, 0.0), density_values=(0.5,))):
        assert measure_laplace(m, 0.0) == pytest.approx(
            measure_total_variation(m), abs=1e-13)


@given(st.floats(0.1, 2.0), st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-3),
       st.floats(-2.0, 2.0), st.floats(0.0, 3.0))
def test_laplace_monotone_in_shift(r, rate, lam, dlam):
    # support in [-r, 0] makes e^{lam*theta} nonincreasing in lam
    m = DelayMeasure(kind="exponential", r=r, theta_rate=rate)
    assert measure_laplace(m, lam + dlam) <= measure_laplace(m, lam) + 1e-12


# ---------------------------------------------------------------------------
# coefficients

def test_tabulated_absorption():
    a = AbsorptionProfile(kind="tabulated", x_edges=(0.0, 0.5, 1.0),
                          v_edges=(1.0, 2.0), values=((0.2,), (0.8,)))
    assert a.q(0.25, 1.5) == 0.2
    assert a.q(0.75, 1.5) == 0.8
    assert a.integral_x(1.0, 1.5) == pytest.approx(0.5 * 0.2 + 0.5 * 0.8)
    assert a.integral_x(0.7, 1.5) == pytest.approx(0.5 * 0.2 + 0.2 * 0.8)
    assert a.min_value() == 0.2 and a.max_value() == 0.8


def _cellwise_integral(profile, x: float, v: float) -> float:
    """integral_x(x, v) in Python floats: the x cells from 0 one at a time,
    each clipped to [0, x] or [x, 0], the end cells reaching past the table."""
    if profile.kind == "constant":
        x_cuts, column = (), (profile.value,)
    else:
        iv = sum(c <= v for c in profile.v_edges[1:-1])
        x_cuts, column = profile.x_edges[1:-1], [row[iv] for row in profile.values]
    total = 0.0
    for value, a, b in zip(column, (-math.inf, *x_cuts), (*x_cuts, math.inf)):
        total = total + value * (min(max(x, a), b) - min(max(0.0, a), b))
    return total


@pytest.mark.parametrize("profile", [
    AbsorptionProfile(kind="constant", value=0.3),
    AbsorptionProfile(kind="tabulated", x_edges=(0.0, 0.3, 0.45, 1.0),
                      v_edges=(1.0, 1.25, 2.0),
                      values=((0.2, 0.7), (0.9, 0.1), (0.35, 0.55))),
    AbsorptionProfile(kind="tabulated", x_edges=(0.3, 0.6, 1.0),
                      v_edges=(1.0, 1.5, 2.0), values=((0.4, -0.2), (0.9, 0.1))),
    AbsorptionProfile(kind="tabulated", x_edges=(-0.5, 0.2, 0.8),
                      v_edges=(1.2, 1.7), values=((0.7,), (-0.25,))),
])
def test_absorption_elementwise_matches_scalar_loop(profile):
    # at 0, at every edge, between them and past the last one
    edges = profile.x_edges or (0.5,)
    xs = np.unique(np.r_[np.linspace(-0.1, 1.1, 25), 0.0, 1.0, edges, edges[-1] + 0.3])
    vs = np.linspace(0.9, 2.1, 7)
    q = profile.q(xs[:, None], vs[None, :])
    big_q = profile.integral_x(xs[:, None], vs[None, :])
    assert q.shape == big_q.shape == (len(xs), 7)
    # one position against a velocity array, as the gain factors ask for it
    assert np.array_equal(profile.integral_x(1.0, vs), big_q[xs == 1.0][0])
    for i, x in enumerate(xs):
        for k, v in enumerate(vs):
            assert q[i, k] == profile.q(float(x), float(v))
            assert big_q[i, k] == profile.integral_x(float(x), float(v))
            assert big_q[i, k] == _cellwise_integral(profile, float(x), float(v))
            assert np.ndim(profile.integral_x(float(x), float(v))) == 0
    # the per-circle loop the elementwise sum replaces, on a table from x = 0
    if profile.x_edges[:1] == (0.0,):
        for x, v in ((0.4, 1.1), (1.0, 1.9), (0.0, 1.5)):
            iv = int(np.searchsorted(profile.v_edges, v, side="right")) - 1
            total = 0.0
            for ix in range(len(profile.x_edges) - 1):
                a, b = profile.x_edges[ix], profile.x_edges[ix + 1]
                if a >= x:
                    break
                total += profile.values[ix][iv] * (min(b, x) - a)
            assert profile.integral_x(x, v) == total


# tables that start above x = 0 or v_min, stop before the circle's end or
# v_max, or start below them: the end cells reach past the edges, for the
# point values and the integrals alike
_SHORT_PROFILES = {
    "starts_above_0": AbsorptionProfile(kind="tabulated", x_edges=(0.3, 0.6, 1.0),
                                        v_edges=(1.0, 1.5, 2.0),
                                        values=((0.4, -0.2), (0.9, 0.1))),
    "stops_before_end": AbsorptionProfile(kind="tabulated", x_edges=(0.0, 0.5),
                                          v_edges=(1.0, 2.0), values=((-0.6,),)),
    "starts_below_0": AbsorptionProfile(kind="tabulated", x_edges=(-0.5, 0.2, 0.8),
                                        v_edges=(1.2, 1.7),
                                        values=((0.7,), (-0.25,))),
}


@pytest.mark.parametrize("profile", _SHORT_PROFILES.values(), ids=_SHORT_PROFILES)
def test_absorption_integral_matches_quadrature(profile):
    for v in (1.0, 1.3, 1.6, 2.0):
        for x in (-0.2, 0.25, 0.5, 1.0, 1.4):
            want, _ = quad(lambda y: profile.q(y, v), 0.0, x,
                           points=[e for e in profile.x_edges if min(0, x) < e < max(0, x)])
            assert profile.integral_x(x, v) == pytest.approx(want, rel=1e-12, abs=1e-14)


_SHORT_KERNELS = {
    "separable_starts_above": ScatteringKernel(kind="separable", v_edges=(1.3, 1.6, 2.0),
                                               out_values=(0.5, 1.5), in_values=(2.0, 0.25)),
    "separable_stops_before": ScatteringKernel(kind="separable", v_edges=(1.0, 1.5),
                                               out_values=(2.0,), in_values=(1.0,)),
    "tabulated_starts_below": ScatteringKernel(kind="tabulated", v_edges=(0.5, 1.2, 1.7),
                                               values=((0.1, 0.6), (0.9, 0.3))),
}


@pytest.mark.parametrize("kernel", _SHORT_KERNELS.values(), ids=_SHORT_KERNELS)
def test_kernel_out_integral_matches_quadrature(kernel):
    v_min, v_max = 1.0, 2.0
    for v_in in (1.0, 1.25, 1.55, 1.9, 2.0):
        want, _ = quad(lambda v: kernel.beta(v, v_in), v_min, v_max,
                       points=[e for e in kernel.v_edges if v_min < e < v_max])
        assert kernel.out_integral(v_in, v_min, v_max) == pytest.approx(want, rel=1e-12)


def test_constant_absorption_integral():
    a = AbsorptionProfile(kind="constant", value=0.3)
    assert a.integral_x(2.0, 1.0) == pytest.approx(0.6)


def test_scattering_kernels():
    c = ScatteringKernel(kind="constant", value=2.0)
    assert c.beta(1.1, 1.9) == 2.0
    assert c.out_integral(1.5, 1.0, 2.0) == pytest.approx(2.0)
    s = ScatteringKernel(kind="separable", v_edges=(1.0, 1.5, 2.0),
                         out_values=(1.0, 3.0), in_values=(0.5, 0.25))
    assert s.beta(1.2, 1.8) == pytest.approx(1.0 * 0.25)
    assert s.out_integral(1.2, 1.0, 2.0) == pytest.approx((1.0 + 3.0) * 0.5 * 0.5)
    assert not s.is_zero()
    t = ScatteringKernel(kind="tabulated", v_edges=(1.0, 2.0), values=((0.0,),))
    assert t.is_zero()
    # on broadcast arrays, points outside the edges fall in the end cells
    tab = ScatteringKernel(kind="tabulated", v_edges=(1.0, 1.4, 2.0),
                           values=((0.1, 0.2), (0.3, 0.4)))
    v = np.array([0.5, 1.0, 1.2, 1.4, 1.9, 2.0, 2.5])
    grid = (v[:, None], v[None, :])
    assert np.array_equal(c.beta(*grid), np.full((7, 7), 2.0))
    cells = [0, 0, 0, 0, 1, 1, 1]
    assert np.array_equal(s.beta(*grid), np.outer(np.array([1.0, 3.0])[cells],
                                                   np.array([0.5, 0.25])[cells]))
    cells = [0, 0, 0, 1, 1, 1, 1]
    assert np.array_equal(tab.beta(*grid),
                          np.array([[0.1, 0.2], [0.3, 0.4]])[np.ix_(cells, cells)])


# ---------------------------------------------------------------------------
# routing and bounds

def test_routing_norm_column_sums():
    assert routing_norm([[0.5, 2.0], [1.0, 0.5]]) == pytest.approx(2.5)
    with pytest.raises(ValidationError):
        routing_norm([[1.0, 2.0]])


@given(st.floats(-5.0, 5.0), st.integers(1, 4), st.integers(0, 10))
def test_routing_norm_homogeneous(c, n, seed):
    m = np.random.default_rng(seed).random((n, n))
    assert routing_norm(c * m) == pytest.approx(abs(c) * routing_norm(m), rel=1e-12)


def test_network_bounds_values():
    spec = conservation_spec()
    b = network_bounds(spec)
    assert b.l_bar == 1.5 and b.l_under == 1.0
    assert b.r_bar == 0.5
    assert b.var_bar == 1.0
    assert b.gamma_bar == 0.0
    assert b.routing_norm == pytest.approx(1.0)


def test_spec_routing_is_a_read_only_copy():
    with pytest.raises(ValueError, match="read-only"):
        single_circle(0.5).routing[0, 0] = 1.5
    routing = np.array([[0.5]])
    spec = NetworkSpec(circles=single_circle(0.5).circles, routing=routing,
                       v_min=1.0, v_max=2.0)
    routing[0, 0] = 1.5
    assert spec.routing[0, 0] == 0.5 and spec.routing.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        load_network(json.dumps(spec.to_config())).routing[0, 0] = 1.5


def _with_circle(spec, **changes):
    """spec with its one circle changed; a changed kernel drops the
    mass-preserving flag, so the kernel's own check is the one that fires."""
    return replace(spec, circles=(replace(spec.circles[0], **changes),),
                   mass_preserving=spec.mass_preserving and "scattering" not in changes)


@pytest.mark.parametrize("build, error, match", [
    (lambda s: replace(s, routing=np.eye(2)), SchemaError, r"routing must be 1x1"),
    (lambda s: replace(s, v_min=0.0), ValidationError, "v_min"),
    (lambda s: replace(s, v_max=math.inf), ValidationError, "v_max"),
    (lambda s: single_circle(0.5, v_min=0.0), ValidationError, "v_min"),
    (lambda s: replace(s, routing=[[math.nan]]), ValidationError, "routing"),
    (lambda s: replace(s, routing=[[-0.5]]), ValidationError, "routing"),
    (lambda s: NetworkSpec(circles=s.circles, routing=[[0.5, 0.5]], v_min=1.0,
                           v_max=2.0), SchemaError, "routing"),
    (lambda s: NetworkSpec(circles=(), routing=np.zeros((0, 0)), v_min=1.0,
                           v_max=2.0), ValidationError, "one circle"),
    (lambda s: _with_circle(s, scattering=constant_kernel(1.0, 2.0, -1.0)),
     ValidationError, "negative"),
    (lambda s: _with_circle(s, scattering=constant_kernel(1.0, 2.0, math.nan)),
     ValidationError, "non-finite"),
    (lambda s: _with_circle(s, absorption=AbsorptionProfile("constant", value=math.nan)),
     ValidationError, "absorption"),
    (lambda s: _with_circle(s, length=math.nan), ValidationError, "length"),
    (lambda s: _with_circle(s, delay_measure=replace(s.circles[0].delay_measure,
                                                     r=math.inf)),
     ValidationError, "delay"),
    (lambda s: replace(s, gamma2=math.nan), ValidationError, "gamma2"),
    # beta = 2 on all of [1, 2]: the table's one cell reaches past v = 1.5
    (lambda s: replace(s, circles=(replace(s.circles[0], scattering=ScatteringKernel(
        kind="separable", v_edges=(1.0, 1.5), out_values=(2.0,), in_values=(1.0,))),)),
     ValidationError, "not mass-preserving"),
    # no velocity cell is left to probe: the integral over [2, 2] is 0
    (lambda s: replace(s, v_min=2.0), ValidationError, "not mass-preserving"),
], ids=["routing_shape", "v_min_zero", "v_max_inf", "preset_v_min_zero",
        "routing_nan", "routing_negative", "direct_routing_shape", "no_circles",
        "kernel_negative", "kernel_nan", "absorption_nan", "length_nan", "delay_inf",
        "gamma2_nan", "short_kernel_not_mass_preserving",
        "empty_velocity_range_not_mass_preserving"])
def test_specs_built_without_load_network_are_validated(build, error, match):
    with pytest.raises(error, match=match):
        build(single_circle(0.5))


_EDGES = (1.0, 1.5, 2.0)


@pytest.mark.parametrize("build", [
    lambda: ScatteringKernel(kind="tabulated", v_edges=_EDGES, values=((1.0,),)),
    lambda: ScatteringKernel(kind="uniform", value=1.0),
    lambda: AbsorptionProfile(kind="gaussian", value=1.0),
    lambda: ScatteringKernel(kind="separable", v_edges=_EDGES, out_values=(1.0,),
                             in_values=(1.0, 1.0)),
    lambda: AbsorptionProfile(kind="tabulated", x_edges=(0.0, 1.0), v_edges=_EDGES,
                              values=((0.2,),)),
    lambda: ScatteringKernel(kind="tabulated", v_edges=_EDGES,
                             values=((0.2, 0.5), (0.7,))),
    lambda: ScatteringKernel(kind="tabulated", v_edges=(2.0, 1.5, 1.0),
                             values=((0.2, 0.5), (0.7, 0.1))),
    lambda: AbsorptionProfile(kind="tabulated", x_edges=(0.0, math.nan, 1.0),
                              v_edges=(1.0, 2.0), values=((0.2,), (0.5,))),
    lambda: DelayMeasure(kind="exponential", r=math.inf, theta_rate=2.0),
    lambda: DelayMeasure(kind="piecewise", r=1.0, atoms=((-0.5,),)),
    lambda: DelayMeasure(kind="piecewise", r=1.0, atoms=((-0.5, 0.3, 1.0),)),
    lambda: DelayMeasure(kind="piecewise", r=1.0, density_values=(1.0,)),
    # a field that only other kinds read
    lambda: DelayMeasure(kind="dirac", r=0.5, theta_rate=3.0),
    lambda: DelayMeasure(kind="exponential", r=0.5, theta_rate=2.0, atoms=((-0.1, 5.0),)),
    lambda: DelayMeasure(kind="dirac", r=0.5, density_edges=(-0.5, 0.0),
                         density_values=(math.inf,)),
    lambda: AbsorptionProfile(kind="constant", value=0.3, x_edges=(0.0, 1.0),
                              v_edges=(1.0, 2.0), values=((5.0,),)),
    lambda: ScatteringKernel(kind="constant", value=1.0, values=((math.nan,),)),
], ids=["kernel_shape", "kernel_kind", "absorption_kind", "separable_short",
        "absorption_shape", "ragged_table", "decreasing_edges", "nan_edge",
        "exponential_r_inf", "atom_single", "atom_triple", "density_without_edges",
        "dirac_rate", "exponential_atoms", "dirac_density", "constant_absorption_table",
        "constant_kernel_table"])
def test_coefficients_and_measures_check_themselves(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("cls", [AbsorptionProfile, ScatteringKernel, DelayMeasure])
def test_field_tables_name_every_field(cls):
    # so a field outside its kind's table is checked to keep its default;
    # every measure kind reads the support bound r
    named = {name for kind in cls.FIELDS.values() for name in kind}
    assert named == {f.name for f in dataclasses.fields(cls)} - {"kind", "r"}


def test_circle_delay_is_its_measure_support():
    spec = single_circle(0.5)
    for m in (replace(spec.circles[0].delay_measure, r=2.0),
              DelayMeasure(kind="exponential", r=0.1, theta_rate=2.0)):
        changed = _with_circle(spec, delay_measure=m)
        assert changed.circles[0].delay == m.r
        assert load_network(changed.to_config()).circles[0].delay_measure == m


# ---------------------------------------------------------------------------
# config loading

def test_config_round_trip():
    spec = conservation_spec()
    doc = spec.to_config()
    again = load_network(json.dumps(doc))
    assert again.to_config() == doc
    assert again.n_circles == 2
    assert np.allclose(again.routing, spec.routing)
    assert load_network(shape_doc()).to_config() == shape_doc()
    specs = [spec for _, spec, _ in regression_suite()]
    specs += [random_spec(seed, family) for seed in range(10)
              for family in ("estimate", "example1", "example2", "c1")]
    for spec in specs + [load_network(shape_doc())]:
        assert load_network(spec.to_config()).circles == spec.circles


def test_config_schema_errors():
    with pytest.raises(SchemaError):
        load_network({"circles": []})
    with pytest.raises(SchemaError):
        load_network({"velocity": {"v_min": 1.0, "v_max": 2.0}, "circles": []})
    doc = single_circle(0.5).to_config()
    del doc["circles"][0]["absorption"]["value"]
    with pytest.raises(SchemaError, match="value"):
        load_network(doc)
    doc = single_circle(0.5, measure="exponential").to_config()
    del doc["circles"][0]["delay_measure"]["theta"]
    with pytest.raises(SchemaError, match="missing key 'theta'"):
        load_network(doc)
    for routing in ([["a"]], [[0.5], [0.5, 0.5]]):
        doc = single_circle(0.5).to_config()
        doc["routing"] = routing
        with pytest.raises(SchemaError, match="routing"):
            load_network(doc)


def test_config_validation_errors():
    doc = single_circle(0.5).to_config()
    doc["velocity"]["v_min"] = -1.0
    with pytest.raises(ValidationError):
        load_network(doc)
    doc = single_circle(0.5).to_config()
    doc["routing"] = [[-0.2]]
    with pytest.raises(ValidationError, match="routing"):
        load_network(doc)
    doc = single_circle(0.5).to_config()
    doc["circles"][0]["scattering"]["value"] = 5.0  # breaks the unit integral
    with pytest.raises(ValidationError, match="mass-preserving"):
        load_network(doc)


def test_config_rejects_non_finite_numbers():
    doc = single_circle(0.5).to_config()
    doc["circles"][0]["length"] = float("nan")
    with pytest.raises(ValidationError, match=r"circles\[0\]\.length"):
        load_network(json.dumps(doc))
    doc = single_circle(0.5).to_config()
    doc["circles"][0]["absorption"]["value"] = float("inf")
    with pytest.raises(ValidationError, match="finite"):
        load_network(doc)
    doc = single_circle(0.5).to_config()
    doc["routing"] = [[float("nan")]]
    with pytest.raises(ValidationError, match="routing"):
        load_network(doc)


def test_config_declared_absorption_bounds():
    doc = single_circle(0.5, gamma=0.5).to_config()
    doc["absorption_bounds"] = {"gamma1": 0.0, "gamma2": 0.4}
    with pytest.raises(ValidationError, match="gamma2"):
        load_network(doc)
    doc["absorption_bounds"] = {"gamma1": 0.0, "gamma2": 1.0}
    spec = load_network(doc)
    assert spec.absorption_range() == (0.0, 1.0)


@pytest.mark.parametrize("path, value, error", [
    (("flags",), "x", SchemaError),
    (("flags", "mass_preserving"), "yes", SchemaError),
    (("absorption_bounds",), 5, SchemaError),
    (("circles", 0, "delay_measure", "atoms"), [[-0.1]], ValidationError),
    (("circles", 0, "delay_measure", "atoms"), 5, SchemaError),
    (("circles", 1, "absorption", "values"), 3, SchemaError),
    (("circles", 1, "absorption", "values"), [[0.2, 0.5]], ValidationError),
    (("circles", 1, "absorption", "x_edges"), [0.0], ValidationError),
    (("circles", 1, "absorption", "x_edges"), [0.0, 0.6, 0.4], ValidationError),
    (("circles", 1, "scattering", "out_values"), [0.8], ValidationError),
    (("circles", 0, "scattering", "values"), [[1.0], [1.0]], ValidationError),
    (("circles", 1, "absorption"), {"kind": "tabulated", "x_edges": [0],
                                    "v_edges": [0], "values": []}, ValidationError),
])
def test_config_shape_errors(path, value, error):
    doc = shape_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(error):
        load_network(doc)


_HUGE = 10**400  # a JSON integer beyond float range

_BAD_VALUES = st.one_of(
    st.sampled_from([None, True, "x", "nan", {}, [], [[]], [[-0.1]], [0.0],
                     [1.0, 0.5], 0, -1, 5, math.nan, math.inf, -math.inf,
                     _HUGE, -_HUGE, [math.nan], [_HUGE], [[_HUGE, 1.0]]]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-_HUGE, max_value=_HUGE),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3))


# the keys of the coefficient and measure nodes of any kind, and one that no
# kind reads
_NODES = ("absorption", "scattering", "delay_measure")
_NODE_KEYS = ["value", "x_edges", "v_edges", "values", "out_values", "in_values",
              "theta", "atoms", "density_edges", "density_values", "unknown"]


def _node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_configs_load_or_raise_kinnet_error(data):
    doc = data.draw(st.sampled_from([
        shape_doc(), conservation_spec().to_config(),
        single_circle(0.5, measure="piecewise").to_config()]).map(copy.deepcopy))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(json_paths(doc))[1:]
        nodes = [p for p in paths if p[-1] in _NODES and isinstance(_node_at(doc, p), dict)]
        action = data.draw(st.sampled_from(["delete", "replace", "insert"][:3 if nodes else 2]))
        if action == "insert":  # a key that the node's kind may not read
            path = data.draw(st.sampled_from(nodes)) + (data.draw(st.sampled_from(_NODE_KEYS)),)
        else:
            path = data.draw(st.sampled_from(paths))
        node = _node_at(doc, path[:-1])
        if action == "delete":
            del node[path[-1]]  # a missing key, or a list one entry short
        else:
            node[path[-1]] = copy.deepcopy(data.draw(_BAD_VALUES))
    _check_loads_or_raises_kinnet_error(doc)


def test_every_number_of_a_config_refuses_a_bool_or_a_decimal_string():
    doc = shape_doc()
    leaves = [p for p in json_paths(doc) if type(_node_at(doc, p)) in (int, float)]
    assert any(p[0] == "routing" for p in leaves)
    for path in leaves:
        for value in (True, str(_node_at(doc, path))):
            mutated = shape_doc()
            _node_at(mutated, path[:-1])[path[-1]] = value
            with pytest.raises(SchemaError, match="expected a number"):
                load_network(mutated)


def _check_loads_or_raises_kinnet_error(doc):
    try:
        spec = load_network(doc)
    except KinnetError:
        return
    assert isinstance(spec, NetworkSpec)
    b = network_bounds(spec)
    assert all(math.isfinite(getattr(b, name)) for name in b.__dataclass_fields__)
    again = spec.to_config()
    assert load_network(again).to_config() == again


def test_config_with_an_atom_at_theta_zero_loads_with_a_warning():
    # a valid config that the property test above once drew: its warning is
    # shown, not raised (pyproject.toml's filterwarnings)
    doc = single_circle(0.5, measure="piecewise").to_config()
    doc["circles"][0]["delay_measure"]["atoms"][0][0] = 0
    _check_loads_or_raises_kinnet_error(doc)
    with pytest.warns(UserWarning, match="atom at theta=0"):
        load_network(doc)

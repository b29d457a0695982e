import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from kinnet import (AbsorptionProfile, DelayMeasure, KinnetError, NetworkSpec,
                    SchemaError,
                    ScatteringKernel, ValidationError, load_network,
                    measure_laplace, measure_total_variation, network_bounds,
                    routing_norm)
from kinnet.model import _measure_log_laplace
from kinnet.presets import conservation_spec, single_circle

from conftest import json_paths


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
    with pytest.warns(UserWarning, match="atom at theta=0"):
        DelayMeasure(kind="piecewise", r=1.0, atoms=((0.0, 0.5),))


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


def test_log_laplace_is_finite_past_float_range():
    measures = (DelayMeasure(kind="dirac", r=0.7),
                DelayMeasure(kind="exponential", r=0.9, theta_rate=1.7),
                DelayMeasure(kind="exponential", r=0.6, theta_rate=2.0),
                DelayMeasure(kind="piecewise", r=1.0, atoms=((-0.25, 0.3), (0.0, 0.0)),
                             density_edges=(-0.8, -0.2, 0.0), density_values=(1.5, 0.0)))
    for m in measures:
        for lam in (-30.0, -2.0, 0.0, 1e-15, 0.5, 3.0):
            assert _measure_log_laplace(m, lam) == pytest.approx(
                math.log(measure_laplace(m, lam)), rel=1e-12, abs=1e-12)
    # the transform itself passes float range below lam = -log(max float) / 100
    m = DelayMeasure(kind="piecewise", r=100.0, atoms=((-100.0, 0.5), (-99.0, 0.5)),
                     density_edges=(-100.0, 0.0), density_values=(0.01,))
    ref = 1e4 + math.log(0.5 + 0.5 * math.exp(-100.0) + 0.01 / 100.0)
    assert _measure_log_laplace(m, -100.0) == pytest.approx(ref, rel=1e-14)
    assert _measure_log_laplace(DelayMeasure(kind="exponential", r=2.0, theta_rate=-1.0),
                                -1e4) == pytest.approx(2.0 * (1e4 + 1.0) - math.log(1e4 + 1.0))
    assert _measure_log_laplace(DelayMeasure(kind="piecewise", r=1.0), 0.0) == -math.inf


@pytest.mark.parametrize("kwargs, match", [
    ({"kind": "piecewise", "atoms": ((-1.0, 1e308), (-0.5, 1e308))}, "total mass"),
    ({"kind": "piecewise", "density_edges": (-1.0, 0.0), "density_values": (math.inf,)},
     "total mass"),
    ({"kind": "exponential", "theta_rate": -1000.0}, "total mass"),
    ({"kind": "piecewise", "atoms": ((-1.0, math.nan),)}, "has mass nan"),
    ({"kind": "piecewise", "density_edges": (-1.0, 0.0), "density_values": (math.nan,)},
     "values must be >= 0"),
], ids=["atoms", "density", "exponential", "nan_atom", "nan_density"])
def test_delay_measure_with_infinite_or_nan_mass_is_rejected(kwargs, match):
    with pytest.raises(ValidationError, match=match):
        DelayMeasure(r=1.0, **kwargs)


def test_laplace_degenerate_rate():
    m = DelayMeasure(kind="exponential", r=0.6, theta_rate=2.0)
    assert measure_laplace(m, -2.0) == pytest.approx(0.6, abs=1e-12)


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


@pytest.mark.parametrize("profile", [
    AbsorptionProfile(kind="constant", value=0.3),
    AbsorptionProfile(kind="tabulated", x_edges=(0.0, 0.3, 0.45, 1.0),
                      v_edges=(1.0, 1.25, 2.0),
                      values=((0.2, 0.7), (0.9, 0.1), (0.35, 0.55))),
])
def test_absorption_elementwise_matches_scalar_loop(profile):
    xs = np.linspace(-0.1, 1.1, 25)
    vs = np.linspace(0.9, 2.1, 7)
    q = profile.q(xs[:, None], vs[None, :])
    big_q = profile.integral_x(xs[:, None], vs[None, :])
    assert q.shape == big_q.shape == (25, 7)
    for i, x in enumerate(xs):
        for k, v in enumerate(vs):
            assert q[i, k] == profile.q(float(x), float(v))
            assert big_q[i, k] == profile.integral_x(float(x), float(v))
            assert np.ndim(profile.integral_x(float(x), float(v))) == 0
    # the per-circle loop the elementwise sum replaces
    if profile.kind == "tabulated":
        for x, v in ((0.4, 1.1), (1.0, 1.9), (0.0, 1.5)):
            iv = int(np.searchsorted(profile.v_edges, v, side="right")) - 1
            total = 0.0
            for ix in range(len(profile.x_edges) - 1):
                a, b = profile.x_edges[ix], profile.x_edges[ix + 1]
                if a >= x:
                    break
                total += profile.values[ix][iv] * (min(b, x) - a)
            assert profile.integral_x(x, v) == total


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


# ---------------------------------------------------------------------------
# config loading

def test_config_round_trip():
    spec = conservation_spec()
    doc = spec.to_config()
    again = load_network(json.dumps(doc))
    assert again.to_config() == doc
    assert again.n_circles == 2
    assert np.allclose(again.routing, spec.routing)


def test_config_schema_errors():
    with pytest.raises(SchemaError):
        load_network({"circles": []})
    with pytest.raises(SchemaError):
        load_network({"velocity": {"v_min": 1.0, "v_max": 2.0}, "circles": []})
    doc = single_circle(0.5).to_config()
    del doc["circles"][0]["absorption"]["value"]
    with pytest.raises(SchemaError, match="value"):
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
    doc = _shape_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(error):
        load_network(doc)


def _shape_doc() -> dict:
    """Two circles that between them use every absorption, scattering and
    delay measure kind."""
    return {
        "velocity": {"v_min": 1.0, "v_max": 2.0},
        "circles": [
            {"length": 1.0, "delay": 0.5,
             "absorption": {"kind": "constant", "value": 0.3},
             "scattering": {"kind": "tabulated", "v_edges": [1.0, 2.0],
                            "values": [[0.9]]},
             "delay_measure": {"kind": "piecewise", "atoms": [[-0.25, 0.3]],
                               "density_edges": [-0.5, 0.0],
                               "density_values": [0.9]}},
            {"length": 0.8, "delay": 0.3,
             "absorption": {"kind": "tabulated", "x_edges": [0.0, 0.4, 0.8],
                            "v_edges": [1.0, 1.5, 2.0],
                            "values": [[0.2, 0.5], [0.7, 0.1]]},
             "scattering": {"kind": "separable", "v_edges": [1.0, 1.5, 2.0],
                            "out_values": [0.8, 1.2], "in_values": [0.9, 1.1]},
             "delay_measure": {"kind": "exponential", "theta": 2.0}},
            {"length": 1.2, "delay": 0.6,
             "absorption": {"kind": "constant", "value": 0.1},
             "scattering": {"kind": "constant", "value": 0.7},
             "delay_measure": {"kind": "dirac"}},
        ],
        "routing": [[0.2, 0.5, 0.1], [0.3, 0.1, 0.2], [0.1, 0.2, 0.3]],
        "flags": {"mass_preserving": False},
        "absorption_bounds": {"gamma1": 0.0, "gamma2": 1.0},
    }


_HUGE = 10**400  # a JSON integer beyond float range

_BAD_VALUES = st.one_of(
    st.sampled_from([None, True, "x", "nan", {}, [], [[]], [[-0.1]], [0.0],
                     [1.0, 0.5], 0, -1, 5, math.nan, math.inf, -math.inf,
                     _HUGE, -_HUGE, [math.nan], [_HUGE], [[_HUGE, 1.0]]]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-_HUGE, max_value=_HUGE),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_configs_load_or_raise_kinnet_error(data):
    doc = data.draw(st.sampled_from([
        _shape_doc(), conservation_spec().to_config(),
        single_circle(0.5, measure="piecewise").to_config()]).map(copy.deepcopy))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(json_paths(doc))[1:]))
        node = doc
        for key in path[:-1]:
            node = node[key]
        if data.draw(st.booleans()):
            del node[path[-1]]  # a missing key, or a list one entry short
        else:
            node[path[-1]] = copy.deepcopy(data.draw(_BAD_VALUES))
    _check_loads_or_raises_kinnet_error(doc)


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

import math
from dataclasses import replace

import numpy as np
import pytest

import kinnet.model
import kinnet.operators
import kinnet.simulator
from kinnet import (AbsorptionProfile, DelayMeasure, DomainError, ScatteringKernel,
                    VelocityGrid, load_network, make_scenario)
from kinnet.presets import heterogeneous_five, single_circle


@pytest.fixture
def sc_spec():
    return single_circle(0.5)


@pytest.fixture
def grid8(sc_spec):
    return VelocityGrid.for_spec(sc_spec, 8)


@pytest.fixture
def grid1(sc_spec):
    return VelocityGrid.for_spec(sc_spec, 1)


@pytest.fixture
def b_builds(monkeypatch):
    """A list that gets one entry (module, args) per build of the routed
    scattering factor B in its rank J m form (_junction_moments), which the
    gain factors (module "operators") and the engine ("simulator") build;
    no other code reads a kernel's table."""
    calls, build = [], kinnet.operators._junction_moments

    def counted(module):
        def moments(*args, **kwargs):
            calls.append((module, args))
            return build(*args, **kwargs)
        return moments

    for module in (kinnet.operators, kinnet.simulator):
        name = module.__name__.rsplit(".", 1)[1]
        monkeypatch.setattr(module, "_junction_moments", counted(name))
    return calls


@pytest.fixture
def parts_builds(monkeypatch):
    """A list that gets one entry per build of a delay measure's parts
    (DelayMeasure._parts, a cached property), the measure built."""
    calls, parts = [], vars(kinnet.model.DelayMeasure)["_parts"]
    build = parts.func

    def counted(m):
        calls.append(m)
        return build(m)

    monkeypatch.setattr(parts, "func", counted)
    return calls


def json_paths(node, prefix=()):
    """Key paths to a JSON document and to every entry in it, nested ones
    included; the document itself is the empty path."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def shape_doc() -> dict:
    """Three circles that between them use every absorption, scattering and
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


def short_absorption_spec():
    """shape_doc()'s network with a tabulated absorption on its first circle
    whose x and v edges stop short of [0, l] and [v_min, v_max], so that its
    end cells reach past them. No interior v edge lies on a cell edge or a
    center of the grids the tests use, k = 1, 3, 8 and 32."""
    spec = load_network(shape_doc())
    table = AbsorptionProfile(kind="tabulated", x_edges=(0.1, 0.5, 0.9),
                              v_edges=(1.2, 1.45, 1.7, 1.9),
                              values=((0.2, 0.9, 0.4), (0.6, 0.1, 0.7)))
    first = replace(spec.circles[0], absorption=table)
    return replace(spec, circles=(first, *spec.circles[1:]))


def negative_rate_spec():
    """single_circle(0.5) with an exponential delay measure of negative rate,
    whose |rate| r enters the gain's log bound."""
    spec = single_circle(0.5)
    measure = DelayMeasure(kind="exponential", r=0.9, theta_rate=-1.7)
    return replace(spec, circles=(replace(spec.circles[0], delay_measure=measure),))


def constant_scenario(spec, grid, t_end, **kw):
    kw.setdefault("initial", {"kind": "constant", "value": 1.0})
    kw.setdefault("history", {"kind": "constant", "value": 1.0})
    return make_scenario(spec, grid, t_end=t_end, **kw)


def survival_factor(circle, lam, v, x):
    """Transport survival exp(-int_0^x (lam + q(y,v))/v dy) along a circle,
    one scalar at a time, with the gain's clamp of the exponent at 700."""
    if not (0.0 <= x <= circle.length + 1e-12):
        raise DomainError(f"position {x} outside [0, {circle.length}]")
    exponent = (lam * x + circle.absorption.integral_x(x, v)) / v
    return math.exp(min(-exponent, 700.0))


def float_range_cycle():
    """Two default circles routed into each other with weights 1e300 and
    4e-300. The gain radius at one velocity cell is about 1.43 (NOT_ISS),
    but the unshifted Perron iterate of that gain underflows."""
    spec = single_circle(1.0)
    return replace(spec, circles=spec.circles * 2,
                   routing=np.array([[0.0, 1e300], [4e-300, 0.0]]))


def moment_specs():
    """(name, spec) of networks whose kernels are not constant in the
    incoming velocity, so that the junction's velocity groups number m > 1
    on most grids: a separable kernel, two tables (one whose edges stop
    short of [v_min, v_max], so that its end cells reach past them) and
    the two mixed with constant kernels. No interior kernel edge lies on a
    cell edge of the grids the tests use, k = 1, 3, 8 and 32."""
    five = heterogeneous_five(0.4)
    separable = ScatteringKernel(kind="separable", v_edges=(1.0, 1.3, 1.71, 2.0),
                                 out_values=(0.5, 1.0, 0.7), in_values=(1.2, 0.4, 0.9))
    short = ScatteringKernel(kind="tabulated", v_edges=(1.15, 1.55, 1.8),
                             values=((0.6, 0.2), (0.3, 0.9)))
    full = ScatteringKernel(kind="tabulated", v_edges=(1.0, 1.45, 2.0),
                            values=((0.5, 0.8), (1.0, 0.3)))

    def with_kernels(spec, kernels):
        return replace(spec, mass_preserving=False, circles=tuple(
            replace(c, scattering=kernel or c.scattering)
            for c, kernel in zip(spec.circles, kernels)))

    two = replace(five, circles=five.circles[:2], routing=five.routing[:2, :2])
    return [("separable", with_kernels(single_circle(0.6), (separable,))),
            ("tabulated", with_kernels(two, (short, full))),
            ("mixed", with_kernels(five, (separable, short, None, full, None)))]

import numpy as np
import pytest

from kinnet import VelocityGrid, make_scenario
from kinnet.presets import single_circle


@pytest.fixture
def sc_spec():
    return single_circle(0.5)


@pytest.fixture
def grid8(sc_spec):
    return VelocityGrid.for_spec(sc_spec, 8)


@pytest.fixture
def grid1(sc_spec):
    return VelocityGrid.for_spec(sc_spec, 1)


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


def constant_scenario(spec, grid, t_end, **kw):
    kw.setdefault("initial", {"kind": "constant", "value": 1.0})
    kw.setdefault("history", {"kind": "constant", "value": 1.0})
    return make_scenario(spec, grid, t_end=t_end, **kw)

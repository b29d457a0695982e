"""Each oracle accepts a correct answer and rejects a perturbed one; the
tracer and the task lists behave as the benchmark relies on.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracles.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kinnet
from kinnet import operators, presets, simulator, spectral

import oracles
import workloads
from tracer import Tracer


@pytest.fixture(scope="module")
def circle_case():
    spec = presets.single_circle(0.5)
    grid = operators.VelocityGrid.for_spec(spec, 8)
    cert = spectral.small_gain_certificate(spec, grid)
    lam = spectral.spectral_abscissa(spec, grid).lambda_star
    dense = oracles.dense_radius(operators.assemble_gain(spec, grid, 0.0).operator.matrix)
    return spec, grid, cert, lam, dense


def _radius_at(spec, grid):
    return lambda lam: oracles.dense_radius(
        operators.assemble_gain(spec, grid, lam).operator.matrix)


def test_certificate_oracle(circle_case):
    _, _, cert, _, dense = circle_case
    ok = (cert.r_gain, cert.pd_radius, cert.decision, dense)
    assert oracles.check_certificate(*ok, "ISS") == []
    assert oracles.check_certificate(*ok, None) == []
    assert oracles.check_certificate(cert.r_gain * (1 + 1e-4), *ok[1:], "ISS")
    assert oracles.check_certificate(cert.r_gain, cert.pd_radius * (1 + 1e-4),
                                     *ok[2:], "ISS")
    assert oracles.check_certificate(cert.r_gain, cert.pd_radius, "NOT_ISS",
                                     dense, "ISS")
    assert oracles.check_certificate(cert.r_gain, cert.pd_radius, "ISS",
                                     dense, "NOT_ISS")


def test_band_decision():
    assert oracles.band_decision(0.5) == "ISS"
    assert oracles.band_decision(1.0005) == "INCONCLUSIVE"
    assert oracles.band_decision(1.5) == "NOT_ISS"


def test_abscissa_oracle(circle_case):
    spec, grid, _, lam, _ = circle_case
    radius_at = _radius_at(spec, grid)
    assert oracles.check_abscissa(lam, radius_at) == []
    assert oracles.check_abscissa(lam + 1e-3, radius_at)
    assert oracles.check_abscissa(lam - 1e-3, radius_at)
    assert oracles.check_abscissa(math.nan, radius_at)


def test_dense_abscissa_matches_closed_form():
    spec = presets.single_circle(0.5)
    grid = operators.VelocityGrid.for_spec(spec, 1)   # one cell: exact gain
    lam = oracles.dense_abscissa(_radius_at(spec, grid), tol=1e-9)
    assert abs(lam - presets.single_circle_lambda_star(spec)) < 1e-8


def test_norm_oracle():
    t = np.linspace(0.0, 1.0, 5)
    assert oracles.check_norms(t, np.ones(5)) == []
    assert oracles.check_norms(t, [1.0, 1.0, -1e-9, 1.0, 1.0])
    assert oracles.check_norms(t, [1.0, 1.0, math.nan, 1.0, 1.0])
    assert oracles.check_norms(t, np.ones(4))


def test_decay_oracle():
    t = np.linspace(0.0, 20.0, 201)
    norms = 3.0 * np.exp(-0.8 * t)
    assert oracles.check_decay(t, norms, -0.8) == []
    assert oracles.check_decay(t, norms, -0.8 * 1.1)
    assert oracles.check_decay(t, norms, -0.8 * 0.9)


def test_mass_oracle():
    assert oracles.check_mass(np.full(10, 2.0)) == []
    assert oracles.check_mass(np.array([2.0, 2.0, 2.02, 2.0]))


@pytest.fixture(scope="module")
def verify_case(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("verify")
    task = workloads._verify_task(workdir, "circle", presets.single_circle(0.5), 3)
    code, text = task.run()
    return task, code, json.loads(text)


def test_verify_oracle_accepts(verify_case):
    task, code, payload = verify_case
    assert task.check((code, json.dumps(payload))) == []


@pytest.mark.parametrize("perturb", [
    lambda p: dict(p, passed=False),
    lambda p: dict(p, worst_margin=-0.06),
    lambda p: dict(p, worst_margin=None),
    lambda p: dict(p, n_records=p["n_records"] + 1),
    lambda p: dict(p, n_records=p["n_records"] - 1),
    lambda p: dict(p, metadata=dict(p["metadata"], dt=2 * p["metadata"]["dt"])),
])
def test_verify_oracle_rejects(verify_case, perturb):
    task, code, payload = verify_case
    assert task.check((code, json.dumps(perturb(payload))))


def test_verify_oracle_rejects_exit_code_and_output(verify_case):
    task, code, payload = verify_case
    assert task.check((1, json.dumps(payload)))
    assert task.check((code, "not json"))


def test_expected_records():
    assert oracles.expected_records(1.0, 0.1, 1) == 11
    assert oracles.expected_records(1.0, 0.1, 4) == 1 + 2 + 1
    assert oracles.expected_records(0.8, 0.1, 4) == 1 + 2


def test_inputs_depend_only_on_seed(tmp_path):
    def shape(tasks):
        return [(t.name, t.cells) for t in tasks]
    a = shape(workloads.certify_tasks(5, tmp_path))
    assert a == shape(workloads.certify_tasks(5, tmp_path))
    assert a != shape(workloads.certify_tasks(6, tmp_path))
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    assert shape(workloads.verify_tasks(5, first)) == \
        shape(workloads.verify_tasks(5, second))
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    for name in files:
        assert (first / name).read_text() == (second / name).read_text()


def test_tracer_wraps_every_binding_and_restores():
    spec = presets.single_circle(0.5)
    grid = operators.VelocityGrid.for_spec(spec, 1)
    originals = (spectral.assemble_gain, operators.assemble_gain,
                 kinnet.run, simulator.Scenario.engine)
    tracer = Tracer()
    tracer.install()
    try:
        spectral.small_gain_certificate(spec, grid)
        operators.assemble_gain(spec, grid, 0.0)
        sc = simulator.make_scenario(spec, grid, t_end=0.1, m_base=8)
        kinnet.run(sc)
    finally:
        tracer.uninstall()
    assert (spectral.assemble_gain, operators.assemble_gain,
            kinnet.run, simulator.Scenario.engine) == originals
    totals = tracer.totals()
    assert totals["operators.assemble_gain"]["calls"] == 2
    assert totals["spectral.spectral_radius"]["calls"] == 2
    assert tracer.calls_under("spectral.spectral_radius",
                              "spectral.small_gain_certificate") == 2
    for t in totals.values():
        assert 0.0 <= t["self_s"] <= t["total_s"]
    assert tracer.us_per_step(8, 1) > 0.0
    assert math.isnan(tracer.us_per_step(32, 8))

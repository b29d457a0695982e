import argparse
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kinnet.analysis
import kinnet.cli
from kinnet import (DelayMeasure, KinnetError, Scenario, VelocityGrid, assemble_gain,
                    load_network)
from kinnet.cli import main
from kinnet.presets import conservation_spec, heterogeneous_five, single_circle, \
    single_circle_lambda_star, single_circle_threshold_w
from kinnet.simulator import _PRESETS as _PRESET_TABLE

from conftest import float_range_cycle, json_paths


@pytest.fixture
def config_iss(tmp_path):
    path = tmp_path / "iss.json"
    path.write_text(json.dumps(single_circle(0.5).to_config()))
    return str(path)


@pytest.fixture
def config_hot(tmp_path):
    spec = single_circle(2.0 * single_circle_threshold_w())
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(spec.to_config()))
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "t_end": 4.0, "stride": 4, "m_base": 32,
        "initial": {"kind": "constant", "value": 1.0},
        "history": {"kind": "constant", "value": 1.0},
        "disturbance": {"kind": "pulse", "value": 0.5, "t0": 0.5, "t1": 1.5},
    }))
    return str(path)


def _strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


def test_analyze(config_iss, capsys):
    assert main(["analyze", config_iss, "--k-velocity", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"]["decision"] == "ISS"
    assert 0.3 < doc["certificate"]["r_gain"] < 0.4
    assert "pd_norm_closed_form" in doc["norm_bounds"]


def test_analyze_zero_scattering(tmp_path, capsys):
    spec = single_circle(0.5, kernel_scale=0.0)
    path = tmp_path / "free.json"
    path.write_text(json.dumps(spec.to_config()))
    assert main(["analyze", str(path), "--k-velocity", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"]["r_gain"] == 0.0
    assert doc["certificate"]["decision"] == "ISS"


def test_analyze_writes_outputs(config_iss, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["analyze", config_iss, "--k-velocity", "4",
                 "--out", str(out), "--dump-gain"])
    assert code == 0
    assert (out / "analyze.json").exists()
    assert (out / "gain_matrix.csv").exists()


def test_analyze_dump_gain_without_out_exits_2(config_iss, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", config_iss, "--dump-gain"]) == 2
    assert "--out" in _one_line_error(capsys)
    assert list(tmp_path.iterdir()) == [tmp_path / "iss.json"]


def test_simulate(config_iss, scenario_file, tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", config_iss, scenario_file, "--k-velocity", "4",
                 "--out", str(out)])
    assert code == 0
    csv = (out / "trajectory.csv").read_text().splitlines()
    assert csv[0].startswith("t,norm_state,norm_history,total_mass")
    doc = json.loads(_strip_timestamp((out / "simulate.json").read_text()))
    assert doc["n_records"] == len(csv) - 1


def test_verify_pass(config_iss, scenario_file, capsys):
    code = main(["verify", config_iss, scenario_file, "--k-velocity", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["passed"] is True


def test_verify_passes_with_a_delay_of_1e_300(tmp_path, scenario_file, capsys):
    # the history mesh of circle 0 spans 1e-300: its resolvent column sums
    # reach about 8e-303 and must not underflow to a constant c of 0
    five = heterogeneous_five(0.4)
    short = dataclasses.replace(five.circles[0],
                                delay_measure=DelayMeasure(kind="dirac", r=1e-300))
    path = tmp_path / "short_delay.json"
    path.write_text(json.dumps(dataclasses.replace(
        five, circles=(short,) + five.circles[1:]).to_config()))
    assert main(["verify", str(path), scenario_file, "--k-velocity", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert 0.0 < doc["constants"]["c"] < 1e-300


def test_verify_not_iss_exits_2(config_hot, scenario_file, capsys):
    code = main(["verify", config_hot, scenario_file, "--k-velocity", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ISS" in err or "small" in err.lower()


def test_verify_inconclusive_exits_3(tmp_path, scenario_file, capsys):
    # place the gain within the inconclusive band at one velocity cell
    spec = single_circle(single_circle_threshold_w() * (1.0 + 1e-4))
    path = tmp_path / "near.json"
    path.write_text(json.dumps(spec.to_config()))
    code = main(["verify", str(path), scenario_file, "--k-velocity", "1"])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"certificate", "passed", "timestamp"}
    assert doc["passed"] is None
    assert doc["certificate"]["decision"] == "INCONCLUSIVE"
    assert abs(doc["certificate"]["r_gain"] - 1.0) < 1e-3


def test_verify_makes_one_certificate(config_iss, scenario_file, monkeypatch,
                                      capsys):
    certificate = kinnet.analysis.small_gain_certificate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return certificate(*args, **kwargs)

    for module in (kinnet.cli, kinnet.analysis):
        monkeypatch.setattr(module, "small_gain_certificate", counted)
    assert main(["verify", config_iss, scenario_file, "--k-velocity", "4"]) == 0
    assert len(calls) == 1


def test_verify_builds_b_twice(config_iss, scenario_file, b_builds, capsys):
    # B in its rank J m form, for the certificate and the ISS constants'
    # junction norm; the engine routes the same moments, a third build
    assert main(["verify", config_iss, scenario_file, "--k-velocity", "4"]) == 0
    assert sorted(module for module, _ in b_builds) == ["operators", "operators", "simulator"]


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_verify_and_analyze_build_each_measure_s_parts_once(command, tmp_path, scenario_file,
                                                            parts_builds, capsys):
    # when the config loads: the certificates, the abscissa, the bounds and
    # the engine's delay quadrature read the measures' parts
    config = tmp_path / "five.json"
    config.write_text(json.dumps(heterogeneous_five(0.4).to_config()))
    parts_builds.clear()
    scenario = [scenario_file] if command == "verify" else []
    assert main([command, str(config), *scenario, "--k-velocity", "8"]) == 0
    assert len({id(m) for m in parts_builds}) == len(parts_builds) == 5


@pytest.mark.parametrize("entry", ["0.5", True, None])
def test_a_routing_entry_that_is_not_a_number_exits_2(entry, tmp_path, capsys):
    # as every other number of a config: a decimal string or a bool once
    # loaded as a routing weight
    doc = single_circle(0.5).to_config()
    doc["routing"] = [[entry]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--k-velocity", "4"]) == 2
    assert "expected a number for routing" in _one_line_error(capsys)


def test_analyze_builds_b_twice(config_iss, tmp_path, b_builds, capsys):
    # the certificate, and the junction norm with the dumped gain, each from
    # B's rank J m form
    out = tmp_path / "reports"
    assert main(["analyze", config_iss, "--k-velocity", "4", "--out", str(out),
                 "--dump-gain"]) == 0
    assert [module for module, _ in b_builds] == ["operators", "operators"]
    spec = load_network(config_iss)
    gain = assemble_gain(spec, VelocityGrid.for_spec(spec, 4), 0.0).operator.matrix
    text = io.BytesIO()
    np.savetxt(text, gain, delimiter=",")
    assert (out / "gain_matrix.csv").read_bytes() == text.getvalue()


def test_non_finite_scenario_exits_2(config_iss, tmp_path, capsys):
    path = tmp_path / "endless.json"
    path.write_text(json.dumps({"t_end": float("inf"), "m_base": 8}))
    assert "Infinity" in path.read_text()
    assert main(["simulate", config_iss, str(path), "--k-velocity", "1",
                 "--out", str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t_end" in err
    assert len(err.strip().splitlines()) == 1


def test_input_outside_sum_of_a_string_exits_2(config_iss, tmp_path, capsys):
    path = tmp_path / "flag.json"
    path.write_text(json.dumps({"t_end": 1.0, "m_base": 8,
                                "input_outside_sum": "false"}))
    for argv in (["simulate", config_iss, str(path), "--out", str(tmp_path / "sim")],
                 ["verify", config_iss, str(path)]):
        assert main([*argv, "--k-velocity", "1"]) == 2
        assert "input_outside_sum" in _one_line_error(capsys)
    assert not (tmp_path / "sim").exists()


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    return err


@pytest.mark.parametrize("resolution, field", [
    ({"m_base": float("inf")}, "m_base"),
    ({"m_base": float("nan")}, "m_base"),
    ({"m_base": 0}, "m_base"),
    ({"m_base": -8}, "m_base"),
    ({"m_cells": [0]}, "m_cells"),
    ({"m_cells": [-4]}, "m_cells"),
    ({"m_cells": [8, 8]}, "m_cells"),
    ({"m_cells": [8.5]}, "m_cells"),
    ({"stride": 0}, "stride"),
])
def test_bad_resolution_exits_2(config_iss, tmp_path, capsys, resolution,
                                field):
    path = tmp_path / "bad_resolution.json"
    path.write_text(json.dumps({"t_end": 1.0, **resolution}))
    assert main(["simulate", config_iss, str(path), "--k-velocity", "1",
                 "--out", str(tmp_path / "sim")]) == 2
    assert field in _one_line_error(capsys)
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("argv, named", [
    (["sweep", "--param", "routing_scale", "--values", "0.5,abc"], "'abc'"),
    (["sweep", "--param", "routing_scale", "--values", "0.5,nan"], "nan"),
    (["sweep", "--param", "routing_scale", "--values", "inf"], "inf"),
    (["verify", "--p", "abc"], "'abc'"),
    (["verify", "--p", "nan"], "nan"),
    (["verify", "--p", "0.5"], "0.5"),
])
def test_bad_cli_numbers_exit_2(config_iss, scenario_file, capsys, argv, named):
    files = [config_iss] if argv[0] == "sweep" else [config_iss, scenario_file]
    assert main([argv[0], *files, *argv[1:], "--k-velocity", "1"]) == 2
    err = _one_line_error(capsys)
    assert named in err and "spectral_radius" not in err


@pytest.mark.parametrize("argv", [
    ["abscissa", "--dt", "-5"],
    ["analyze", "--dt", "0.1", "--seed", "3"],
    ["sweep", "--param", "routing_scale", "--values", "0.5", "--seed", "9"],
])
def test_scenario_flags_on_commands_without_a_scenario_exit_2(config_iss, capsys, argv):
    # --dt and --seed belong to simulate and verify, which run a scenario
    with pytest.raises(SystemExit) as e:
        main([argv[0], config_iss, *argv[1:]])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_HUGE = 10**400  # a JSON integer beyond float range

_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5,
                     _HUGE, -_HUGE, True, False]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-_HUGE, max_value=_HUGE))

_PRESET_NUMBERS = st.one_of(_NUMBERS, st.sampled_from(["abc", "nan", "1", None]))

# every kind and key of the simulator's preset table, and kinds it lacks
_TABLE_KINDS = dict.fromkeys(kind for kinds in _PRESET_TABLE.values()
                             for kind in kinds)
_TABLE_KEYS = dict.fromkeys(key for kinds in _PRESET_TABLE.values()
                            for keys in kinds.values() for key in keys)

_PRESETS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from([*_TABLE_KINDS, "unknown", [1]])},
        optional={key: _PRESET_NUMBERS for key in _TABLE_KEYS}),
    _PRESET_NUMBERS)

_PRESET_SLOTS = {"initial": _PRESETS, "history": _PRESETS, "disturbance": _PRESETS}

_SCENARIO_DOCS = st.one_of(
    st.fixed_dictionaries(
        {"t_end": _NUMBERS},
        optional={"dt": _NUMBERS, "stride": _NUMBERS, "m_base": _NUMBERS,
                  "m_cells": st.lists(_NUMBERS, max_size=3), **_PRESET_SLOTS}),
    # a valid resolution, so that most draws reach the preset checks
    st.fixed_dictionaries({"t_end": st.just(1.0)}, optional=_PRESET_SLOTS))


@pytest.fixture(scope="module")
def property_scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "scenario.json"


@settings(max_examples=300, deadline=None)
@given(doc=_SCENARIO_DOCS, seed=st.sampled_from([None, 3]))
def test_scenario_files_load_or_raise_kinnet_error(doc, seed,
                                                   property_scenario_path):
    # builds the scenario only; nothing is run
    property_scenario_path.write_text(json.dumps(doc))
    args = argparse.Namespace(dt=None, seed=seed, k_velocity=2)
    try:
        sc = kinnet.cli._load_scenario(single_circle(0.5),
                                       property_scenario_path, args)
    except KinnetError:
        return
    assert isinstance(sc, Scenario)
    assert math.isfinite(sc.t_end) and sc.t_end > 0
    assert math.isfinite(sc.dt) and sc.dt > 0
    assert all(isinstance(m, int) and m >= 1 for m in sc.m_cells)
    assert isinstance(sc.stride, int) and sc.stride >= 1
    for preset in (sc.initial, sc.history, sc.disturbance):
        numbers = [v for key, v in preset.items() if key != "kind"]
        assert all(math.isfinite(float(v)) for v in numbers)
    assert math.isfinite(kinnet.analysis.disturbance_lp_norm(sc, math.inf))


@pytest.mark.parametrize("doc, field", [
    ({"t_end": _HUGE}, "t_end"),
    ({"t_end": 1.0, "dt": _HUGE}, "dt"),
    ({"t_end": 1.0, "m_base": _HUGE}, "m_base"),
    ({"t_end": 1.0, "m_cells": [_HUGE]}, "m_cells"),
])
def test_huge_integer_in_scenario_exits_2(config_iss, tmp_path, capsys, doc,
                                          field):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", config_iss, str(path), "--k-velocity", "1",
                 "--out", str(tmp_path / "sim")]) == 2
    assert field in _one_line_error(capsys)


@pytest.mark.parametrize("preset, field", [
    ({"initial": {"kind": "constant", "value": "abc"}}, "initial.value"),
    ({"disturbance": {"kind": "pulse", "value": 1, "t0": "x"}}, "disturbance.t0"),
    ({"disturbance": {"kind": "bounded_random", "bound": "nan"}},
     "disturbance.bound"),
    ({"history": {"kind": "constant", "value": _HUGE}}, "history.value"),
    # drawn by the property test below: numpy raised ValueError, exit 1
    ({"disturbance": {"kind": "bounded_random", "bound": -1}}, "disturbance.bound"),
])
def test_bad_preset_value_exits_2(config_iss, tmp_path, capsys, preset, field):
    path = tmp_path / "bad_preset.json"
    path.write_text(json.dumps({"t_end": 1.0, **preset}))
    assert main(["simulate", config_iss, str(path), "--k-velocity", "1",
                 "--out", str(tmp_path / "sim")]) == 2
    assert field in _one_line_error(capsys)
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("key", ["length", "delay", "routing"])
def test_huge_integer_in_config_exits_2(tmp_path, capsys, key):
    doc = single_circle(0.5).to_config()
    if key == "routing":
        doc["routing"] = [[_HUGE]]
    else:
        doc["circles"][0][key] = _HUGE
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--k-velocity", "1"]) == 2
    assert key in _one_line_error(capsys)


@pytest.mark.parametrize("top, circle, field", [
    ({"flags": "x"}, {}, "flags"),
    ({"absorption_bounds": 5}, {}, "absorption_bounds"),
    ({}, {"absorption": {"kind": "tabulated", "x_edges": [0], "v_edges": [0],
                         "values": []}}, "x_edges"),
    ({}, {"delay_measure": {"kind": "piecewise", "atoms": [[-0.1]]}}, "atoms"),
    ({}, {"delay_measure": {"kind": "piecewise", "atoms": 5}}, "atoms"),
    # a key that the node's kind does not read
    ({}, {"delay_measure": {"kind": "piecewise", "atom": [[-0.25, 0.5]],
                            "density_edges": [-0.5, 0.0], "density_values": [1.0]}},
     "'atom'"),
    ({}, {"delay_measure": {"kind": "dirac", "theta": 3.0}}, "'theta'"),
    ({}, {"delay_measure": {"kind": "exponential", "theta": 2.0,
                            "atoms": [[-0.1, 5.0]]}}, "'atoms'"),
    ({}, {"delay_measure": {"kind": "dirac", "density_edges": [-0.5, 0.0],
                            "density_values": [1e308]}}, "'density_edges'"),
    ({}, {"absorption": {"kind": "constant", "value": 0.3, "x_edges": [0.0, 1.0],
                         "v_edges": [1.0, 2.0], "values": [[5.0]]}}, "'x_edges'"),
    ({}, {"scattering": {"kind": "constant", "value": 1.0, "values": [[1.0]]}},
     "'values'"),
])
def test_config_of_wrong_shape_exits_2(tmp_path, capsys, top, circle, field):
    doc = single_circle(0.5).to_config()
    doc.update(top)
    doc["circles"][0].update(circle)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--k-velocity", "1"]) == 2
    assert field in _one_line_error(capsys)


@pytest.mark.parametrize("doc, field", [
    ({"t_end": 1, "dt": 1e-10, "m_base": 8}, "dt"),
    ({"t_end": 1, "m_base": 10**13}, "m_base"),
])
def test_oversized_engine_exits_2(config_iss, tmp_path, capsys, doc, field):
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", config_iss, str(path), "--k-velocity", "1",
                 "--out", str(tmp_path / "sim")]) == 2
    assert field in _one_line_error(capsys)
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("doc, field", [
    ({"t_end": 1.7e308, "dt": 0.001, "m_base": 8}, "t_end / dt"),
    ({"t_end": 1e6, "dt": 0.001, "m_base": 8}, "record values"),
    ({"t_end": 1e12, "dt": 0.001, "m_base": 8, "stride": 10**9,
      "disturbance": {"kind": "bounded_random", "bound": 0.5, "seed": 1}},
     "input samples"),
], ids=["step_count_overflow", "record_arrays", "input_samples"])
def test_oversized_horizon_exits_2(config_iss, tmp_path, capsys, doc, field):
    path = tmp_path / "endless.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", config_iss, str(path), "--k-velocity", "1",
                 "--out", str(tmp_path / "sim")]) == 2
    assert field in _one_line_error(capsys)
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("spec, k", [(single_circle(0.5), 10**12),
                                     (conservation_spec(), 3000)])
def test_oversized_velocity_grid_exits_2(tmp_path, capsys, spec, k):
    # rejected before any (J K)^2 operator is allocated
    path = tmp_path / "config.json"
    path.write_text(json.dumps(spec.to_config()))
    assert main(["analyze", str(path), "--k-velocity", str(k)]) == 2
    assert "velocity cell" in _one_line_error(capsys)


@pytest.fixture
def config_overflowing(tmp_path):
    # l_bar gamma_bar / v_min = 1000: the closed-form exponentials overflow
    spec = single_circle(0.01, v_min=1e-3, v_max=2.0, gamma=1.0)
    path = tmp_path / "overflowing.json"
    path.write_text(json.dumps(spec.to_config()))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_analyze_reports_overflowing_bounds_as_inf(config_overflowing, capsys):
    assert main(["analyze", config_overflowing, "--k-velocity", "2"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["certificate"]["decision"] == "ISS"
    assert doc["certificate"]["sufficient_checks"]["example1_bound"] == {
        "value": "inf", "status": "fail"}
    assert doc["norm_bounds"]["dirichlet_lift_bound"] == "inf"
    assert doc["norm_bounds"]["pd_norm_closed_form"] == "inf"


def test_verify_at_the_default_p_prints_strict_json(config_iss, scenario_file,
                                                   capsys):
    assert main(["verify", config_iss, scenario_file, "--k-velocity", "2"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["p"] == doc["constants"]["p"] == "inf"


def test_verify_with_an_infinite_dirichlet_lift_bound_exits_2(
        config_overflowing, tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"t_end": 0.5, "m_base": 4}))
    assert main(["verify", config_overflowing, str(path), "--k-velocity", "2"]) == 2
    assert "Dirichlet" in _one_line_error(capsys)


def test_sweep(config_iss, tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(["sweep", config_iss, "--param", "routing_scale",
                 "--values", "0.5,1.5,2.5,3.5", "--k-velocity", "4",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(_strip_timestamp((out / "sweep.json").read_text()))
    assert doc["agreement"] is True
    assert doc["threshold"] is not None
    assert (out / "sweep.csv").exists()


def test_sweep_and_simulate_of_an_overflowing_network_exit_0(tmp_path, capsys):
    # a config that the property test below once drew: its runs pass the
    # float range, which their records show, with no warning raised
    doc = conservation_spec().to_config()
    doc["routing"][0][0] = 1e300
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(doc))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_CLI_SCENARIO))
    out = tmp_path / "out"
    common = ["--k-velocity", "1", "--out", str(out)]
    capsys.readouterr()
    assert main(["sweep", str(config), "--param", "routing_scale",
                 "--values", "0.5,1.5", *common]) == 0
    # every report is strict JSON: a non-finite number is a string
    printed = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    saved = json.loads((out / "sweep.json").read_text(), parse_constant=_reject_constant)
    assert printed == saved
    assert main(["simulate", str(config), str(scenario), *common]) == 0
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


def test_simulate_of_a_run_that_turns_nan_prints_strict_json(tmp_path, capsys):
    config = tmp_path / "circle.json"
    config.write_text(json.dumps(single_circle(1e300).to_config()))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"t_end": 3.0, "m_base": 8,
                                    "initial": {"kind": "constant", "value": 1.0},
                                    "history": {"kind": "constant", "value": 1.0}}))
    out = tmp_path / "out"
    assert main(["simulate", str(config), str(scenario), "--k-velocity", "2",
                 "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc == json.loads((out / "simulate.json").read_text(),
                             parse_constant=_reject_constant)
    assert doc["final_norm"] == doc["decay_fit"]["a_hat"] == "nan"
    assert doc["initial_data_norm"] == 1.5


def test_simulate_of_an_overflowing_run_writes_the_same_text_on_both_record_paths(
        tmp_path, capsys, monkeypatch):
    # the run alone is sign-free; in lockstep with a member whose history is
    # -0.0 it takes the general |z| path, whose nan may differ in sign only
    config = tmp_path / "circle.json"
    config.write_text(json.dumps(single_circle(1e300).to_config()))
    scenario = tmp_path / "scenario.json"
    unit = {"kind": "constant", "value": 1.0}
    scenario.write_text(json.dumps({"t_end": 3.0, "m_base": 8,
                                    "initial": unit, "history": unit}))
    solo = kinnet.cli.run

    def general(sc):
        return solo(sc, dataclasses.replace(sc, history={"kind": "constant",
                                                         "value": -0.0}))[0]

    texts, out = [], tmp_path / "out"
    for reader in (solo, general):
        monkeypatch.setattr(kinnet.cli, "run", reader)
        assert main(["simulate", str(config), str(scenario), "--k-velocity", "2",
                     "--out", str(out)]) == 0
        csv = (out / "trajectory.csv").read_text()
        assert "nan" in csv
        texts.append((csv, _strip_timestamp((out / "simulate.json").read_text()),
                      _strip_timestamp(capsys.readouterr().out)))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_disturbance_bound_of_minus_zero_runs_as_zero(config_iss, tmp_path, capsys,
                                                        command):
    # uniform(0, -0.0) refuses its range: the bound is stored as +0.0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"t_end": 1.0, "m_base": 8, "stride": 2,
                                "initial": {"kind": "constant", "value": 1.0},
                                "disturbance": {"kind": "bounded_random",
                                                "bound": -0.0}}))
    assert main([command, config_iss, str(path), "--k-velocity", "2",
                 "--out", str(tmp_path / "out")]) == 0
    doc = json.loads(capsys.readouterr().out)
    if command == "verify":
        bound = doc["metadata"]["disturbance"]["bound"]
        assert doc["u_norm"] == 0.0 and math.copysign(1.0, bound) == 1.0


@pytest.mark.parametrize("values", ["0,1", "1e-320,1"])
@pytest.mark.parametrize("measure", ["dirac", "exponential", "piecewise"])
def test_sweep_delay_scale_without_a_finite_reciprocal_exits_2(
        tmp_path, capsys, measure, values):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(single_circle(0.5, measure=measure).to_config()))
    assert main(["sweep", str(path), "--param", "delay_scale", "--values", values,
                 "--k-velocity", "2"]) == 2
    assert "delay_scale" in _one_line_error(capsys)


def test_abscissa(config_iss, capsys):
    code = main(["abscissa", config_iss, "--k-velocity", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    ref = single_circle_lambda_star(single_circle(0.5))
    assert abs(doc["lambda_star"] - ref) < 1e-4


@pytest.mark.parametrize("w, delay", [(0.5, 100.0), (1e300, 0.5), (1e-300, 0.5)],
                         ids=["delay_100", "routing_1e300", "routing_1e-300"])
def test_abscissa_where_the_gain_passes_float_range(tmp_path, capsys, w, delay):
    # routing 1e300 was once drawn by the property test below
    spec = single_circle(w, delay=delay)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(spec.to_config()))
    assert main(["abscissa", str(config), "--k-velocity", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda_star"] == pytest.approx(single_circle_lambda_star(spec), abs=1e-6)


@pytest.mark.parametrize("command", ["analyze", "abscissa"])
def test_cycle_beyond_the_float_range_exits_2(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(float_range_cycle().to_config()))
    assert main([command, str(config), "--k-velocity", "1"]) == 2
    assert "float range" in _one_line_error(capsys)


def test_too_few_records_to_fit(config_iss, tmp_path, capsys):
    # stride past n_steps: two records, only the last in the fit window
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"t_end": 1.0, "m_base": 8, "stride": 10**6,
                                "initial": {"kind": "constant", "value": 1.0}}))
    out = tmp_path / "sim"
    assert main(["simulate", config_iss, str(path), "--k-velocity", "2",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["n_records"] == 2 and doc["decay_fit"] is None
    assert len((out / "trajectory.csv").read_text().splitlines()) == 3
    capsys.readouterr()
    assert main(["verify", config_iss, str(path), "--k-velocity", "2"]) == 2
    assert "fewer than 2 records" in _one_line_error(capsys)


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"velocity": {"v_min": 1.0, "v_max": 2.0}}))
    assert main(["analyze", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_delay_measure_with_infinite_mass_exits_2(tmp_path, capsys):
    # each atom is finite, their total mass is not
    doc = single_circle(0.5, measure="piecewise").to_config()
    doc["circles"][0]["delay_measure"]["atoms"] = [[-0.5, 1e308], [-0.25, 1e308]]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    for command in ("analyze", "abscissa"):
        assert main([command, str(config)]) == 2
        assert "total mass is not finite" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["analyze", "/nonexistent/config.json"]) == 2


def test_deterministic_reports(config_iss, capsys):
    main(["analyze", config_iss, "--k-velocity", "4"])
    first = _strip_timestamp(capsys.readouterr().out)
    main(["analyze", config_iss, "--k-velocity", "4"])
    second = _strip_timestamp(capsys.readouterr().out)
    assert first == second


def test_main_answers_as_fresh_processes_on_one_parser(config_iss, scenario_file,
                                                      capsys):
    # the parser is built once per process; a call that parsed, one that
    # failed to parse and one after them answer as a fresh process does
    argvs = [["analyze", config_iss, "--k-velocity", "4"],
             ["analyze", config_iss, "--k-velocity", "four"],
             ["verify", config_iss, scenario_file, "--k-velocity", "4"]]
    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        in_process.append((code, _strip_timestamp(out), err))
    assert kinnet.cli._build_parser() is kinnet.cli._build_parser()
    src = str(Path(kinnet.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from kinnet.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env=env, timeout=120)
        fresh.append((proc.returncode, _strip_timestamp(proc.stdout), proc.stderr))
    assert [code for code, _, _ in fresh] == [0, 2, 0]
    assert in_process == fresh


def test_verify_constants_do_not_depend_on_seed(config_iss, scenario_file, capsys):
    reports = []
    for seed in ("1", "2"):
        assert main(["verify", config_iss, scenario_file, "--k-velocity", "2",
                     "--seed", seed]) == 0
        reports.append(json.loads(capsys.readouterr().out)["constants"])
    assert reports[0] == reports[1]
    assert reports[0]["c_grid"] == [64, 64]


# ---------------------------------------------------------------------------
# every subcommand exits in {0, 1, 2, 3} and prints no traceback

# bad values, and small valid ones that keep t_end and the resolution bounded
_MUTANTS = st.sampled_from([
    None, True, "x", "nan", {}, [], [[]], [0.0], [-1.0], -1, 0, 0.5, 2, 5,
    math.nan, math.inf, -math.inf, _HUGE, -_HUGE, 1e-300, 1e300, 1e308, 5e-324,
    {"kind": "unknown"}, {"kind": "constant", "value": 1e300},
    {"kind": "pulse", "value": -1.0, "t0": 0.5, "t1": 0.1},
    {"kind": "bounded_random", "bound": 1e306}])

_CLI_CONFIGS = [single_circle(0.5), conservation_spec(),
                single_circle(2.0 * single_circle_threshold_w())]

_CLI_SCENARIO = {"t_end": 1.0, "stride": 2, "m_base": 8,
                 "initial": {"kind": "random_nonneg"},
                 "history": {"kind": "constant", "value": 1.0},
                 "disturbance": {"kind": "bounded_random", "bound": 0.5}}

_FLAGS = {
    "--k-velocity": ["1", "2", "0", "-1", "abc", "1.5", "100000"],
    "--dt": ["0.01", "abc", "nan", "inf", "-1", "0", "1e-300", "1e300"],
    "--seed": ["3", "-1", "abc", str(_HUGE)],
    "--p": ["inf", "1", "2", "0.5", "nan", "-inf", "abc"],
    "--values": ["0.5,1.5", "1.5,0.5", "abc", "", "nan", "inf", "-1", "1,,2"],
    "--param": ["routing_scale", "beta_scale", "delay_scale", "bogus"],
}

_COMMANDS = {"analyze": ["--k-velocity", "--dump-gain"],
             "simulate": ["--k-velocity", "--dt", "--seed"],
             "verify": ["--k-velocity", "--dt", "--seed", "--p"],
             "sweep": ["--k-velocity", "--values", "--param"],
             "abscissa": ["--k-velocity"]}


def _mutated(data, doc):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(0, 2))):
        path = data.draw(st.sampled_from(list(json_paths(doc))[1:]))
        node = doc
        for key in path[:-1]:
            node = node[key]
        if data.draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(data.draw(_MUTANTS))
    return doc


@pytest.fixture(scope="module")
def cli_property_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_property")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_subcommand_exits_0_to_3_without_a_traceback(data, cli_property_dir):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    config = cli_property_dir / "config.json"
    config.write_text(json.dumps(_mutated(
        data, data.draw(st.sampled_from(_CLI_CONFIGS)).to_config())))
    argv = [command, str(config)]
    if command in ("simulate", "verify"):
        scenario = cli_property_dir / "scenario.json"
        scenario.write_text(json.dumps(_mutated(data, _CLI_SCENARIO)))
        argv.append(str(scenario))
    if command == "sweep":
        argv += ["--param", "routing_scale", "--values", "0.5,1.5"]
    argv += ["--k-velocity", "1", "--out", str(cli_property_dir / "out")]
    for flag in _COMMANDS[command]:
        if not data.draw(st.booleans()):
            continue
        if flag == "--dump-gain":
            argv.append(flag)
        else:
            argv += [flag, data.draw(st.sampled_from(_FLAGS[flag]))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:    # argparse rejects a flag value
            code = e.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _routing_1e308():
    doc = heterogeneous_five(0.4).to_config()
    doc["routing"][0] = [1e308] * 5
    return doc


def _absorption_1e308():
    # Q = int_0^l q = 1e309 passes the float range in the gain's offset
    doc = single_circle(0.5).to_config()
    doc["circles"][0]["length"] = 10.0
    doc["circles"][0]["absorption"] = {"kind": "constant", "value": 1e308}
    return doc


def _delay_5e_324():
    doc = single_circle(0.5).to_config()
    doc["circles"][0]["delay"] = 5e-324
    return doc


_DISTURBED = [
    {**_CLI_SCENARIO, "disturbance": {"kind": "constant", "value": 1e308}},
    {"t_end": 1.0, "stride": 2, "m_base": 8,
     "disturbance": {"kind": "bounded_random", "bound": 1e306}},
]


@pytest.mark.parametrize("config, command, scenario, code", [
    (_routing_1e308(), "analyze", None, 0),
    (_routing_1e308(), "abscissa", None, 2),
    (_routing_1e308(), "verify", _CLI_SCENARIO, 2),
    (_routing_1e308(), "sweep", None, 0),
    (conservation_spec().to_config(), "simulate", _DISTURBED[0], 0),
    (conservation_spec().to_config(), "verify", _DISTURBED[0], 3),
    (single_circle(0.5).to_config(), "verify", _DISTURBED[1], 2),
    (_delay_5e_324(), "verify", _CLI_SCENARIO, 2),
    (_absorption_1e308(), "analyze", None, 0),
    (_absorption_1e308(), "abscissa", None, 2),
    (_absorption_1e308(), "simulate", _CLI_SCENARIO, 0),
    (_absorption_1e308(), "verify", _CLI_SCENARIO, 2),
    (_absorption_1e308(), "sweep", None, 0),
], ids=["routing_1e308-analyze", "routing_1e308-abscissa", "routing_1e308-verify",
        "routing_1e308-sweep", "disturbance_1e308-simulate",
        "disturbance_1e308-verify", "bound_1e306-verify", "delay_5e-324-verify",
        "absorption_1e308-analyze", "absorption_1e308-abscissa",
        "absorption_1e308-simulate", "absorption_1e308-verify", "absorption_1e308-sweep"])
def test_inputs_past_the_float_range_exit_without_a_warning(tmp_path, capsys, config,
                                                            command, scenario, code):
    # each of these once raised a NumPy RuntimeWarning, or read a nan margin
    # or a dropped nan block as a result
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, str(path)]
    if scenario is not None:
        argv.append(str(tmp_path / "scenario.json"))
        Path(argv[-1]).write_text(json.dumps(scenario))
    if command == "sweep":
        argv += ["--param", "routing_scale", "--values", "0.5,1.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--k-velocity", "4", "--out", str(tmp_path / "out")]) == code
    if code == 2:
        _one_line_error(capsys)
    if command == "simulate" and scenario in _DISTURBED:
        # a fit past the float range keeps a nan N_hat
        fit = json.loads((tmp_path / "out" / "simulate.json").read_text())["decay_fit"]
        assert fit["a_hat"] == fit["N_hat"] == "nan"


@pytest.mark.parametrize("command", ["analyze", "simulate", "verify", "sweep", "abscissa"])
@pytest.mark.parametrize("v_min, v_max", [(1.0, 1.0), (1.0, math.nextafter(1.0, math.inf)),
                                          (1e-162, 2e-162)], ids=["equal", "next", "underflow"])
def test_a_velocity_grid_with_a_cell_of_zero_width_exits_2(tmp_path, capsys, command, v_min,
                                                            v_max):
    # v_max = v_min, or one float above it, gives cells of zero width at
    # k = 4 (widths [0, 0, 2.2e-16, 0] for the next float), and v ~ 1e-162
    # cells whose v dv underflows to 0; their norms and moments read 0 / 0,
    # and the commands once reported nan norms or an ISS certificate
    doc = single_circle(0.5).to_config()
    doc["velocity"] = {"v_min": v_min, "v_max": v_max}
    doc["flags"]["mass_preserving"] = False
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command in ("simulate", "verify"):
        argv.append(str(tmp_path / "scenario.json"))
        Path(argv[-1]).write_text(json.dumps(_CLI_SCENARIO))
    if command == "sweep":
        argv += ["--param", "routing_scale", "--values", "0.5,1.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--k-velocity", "4", "--out", str(tmp_path / "out")]) == 2
    assert "zero width" in _one_line_error(capsys)

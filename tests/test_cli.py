import argparse
import contextlib
import copy
import io
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

import kinnet.analysis
import kinnet.cli
from kinnet import KinnetError, Scenario
from kinnet.cli import main
from kinnet.presets import conservation_spec, single_circle, \
    single_circle_lambda_star, single_circle_threshold_w

from conftest import json_paths


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


def test_non_finite_scenario_exits_2(config_iss, tmp_path, capsys):
    path = tmp_path / "endless.json"
    path.write_text(json.dumps({"t_end": float("inf"), "m_base": 8}))
    assert "Infinity" in path.read_text()
    assert main(["simulate", config_iss, str(path), "--k-velocity", "1",
                 "--out", str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t_end" in err
    assert len(err.strip().splitlines()) == 1


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


_HUGE = 10**400  # a JSON integer beyond float range

_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5,
                     _HUGE, -_HUGE]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-_HUGE, max_value=_HUGE))

_PRESET_NUMBERS = st.one_of(_NUMBERS, st.sampled_from(["abc", "nan", "1", None]))

_PRESETS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["zero", "constant", "gaussian_bump",
                                  "random_nonneg", "pulse", "bounded_random",
                                  "unknown"])},
        optional={key: _PRESET_NUMBERS for key in
                  ("value", "center", "width", "amplitude", "seed", "t0",
                   "t1", "bound")}),
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
@given(doc=_SCENARIO_DOCS)
def test_scenario_files_load_or_raise_kinnet_error(doc, property_scenario_path):
    # builds the scenario only; nothing is run
    property_scenario_path.write_text(json.dumps(doc))
    args = argparse.Namespace(dt=None, seed=None, k_velocity=2)
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
    math.nan, math.inf, -math.inf, _HUGE, -_HUGE, 1e-300, 1e300,
    {"kind": "unknown"}, {"kind": "constant", "value": 1e300},
    {"kind": "pulse", "value": -1.0, "t0": 0.5, "t1": 0.1}])

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

import json
import re

import pytest

import kinnet.analysis
import kinnet.cli
from kinnet.cli import main
from kinnet.presets import single_circle, single_circle_lambda_star, \
    single_circle_threshold_w


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


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"velocity": {"v_min": 1.0, "v_max": 2.0}}))
    assert main(["analyze", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["analyze", "/nonexistent/config.json"]) == 2


def test_deterministic_reports(config_iss, capsys):
    main(["analyze", config_iss, "--k-velocity", "4"])
    first = _strip_timestamp(capsys.readouterr().out)
    main(["analyze", config_iss, "--k-velocity", "4"])
    second = _strip_timestamp(capsys.readouterr().out)
    assert first == second

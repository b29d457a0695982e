"""Command line driver: analyze, simulate, verify, sweep, abscissa."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analysis import fit_decay, sweep, verify_iss
from .errors import (DomainError, ExtinctionFlag, KinnetError, SchemaError,
                     SmallGainViolation)
from .model import load_network
from .operators import VelocityGrid, _gain_factors, dirichlet_norm_closed_form, \
    pd_norm_closed_form
from .simulator import _PRESETS, make_scenario, run
from .spectral import small_gain_certificate, spectral_abscissa

_SCENARIO_KEYS = {"t_end", "dt", "stride", "m_base", "m_cells", "initial",
                  "history", "disturbance", "input_outside_sum"}


def _load_scenario(spec, path, args):
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise SchemaError("a scenario file holds one JSON object")
    unknown = set(doc) - _SCENARIO_KEYS
    if unknown:
        raise SchemaError(f"unknown scenario keys: {sorted(unknown)}")
    if "t_end" not in doc:
        raise SchemaError("scenario needs t_end")
    kw = dict(doc)
    if args.dt is not None:
        kw["dt"] = args.dt
    if "m_cells" in kw:
        if not isinstance(kw["m_cells"], list):
            raise SchemaError("scenario m_cells must be a list")
        kw["m_cells"] = tuple(kw["m_cells"])
    if args.seed is not None:
        for slot, kinds in _PRESETS.items():
            preset = kw.get(slot)
            # a list, not a set: the kind read from JSON may be unhashable
            seeded = [kind for kind, keys in kinds.items() if "seed" in keys]
            if isinstance(preset, dict) and "seed" not in preset \
                    and preset.get("kind") in seeded:
                preset["seed"] = args.seed
    return make_scenario(spec, t_end=kw.pop("t_end"),
                         k_velocity=args.k_velocity, **kw)


def _float_arg(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"{flag} expects a number, got {text!r}") from None


def _strict(value):
    """The report value with each non-finite float written as the string
    "nan", "inf" or "-inf", so that the report is strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _emit(args, name: str, payload: dict) -> None:
    payload = _strict(payload)
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    # a non-finite number that _strict missed fails here, not in a reader
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text + "\n")


def _cmd_analyze(args) -> int:
    if args.dump_gain and not args.out:
        raise DomainError("--dump-gain needs --out, the directory for gain_matrix.csv")
    spec = load_network(args.config)
    grid = VelocityGrid.for_spec(spec, args.k_velocity)
    cert = small_gain_certificate(spec, grid)
    factors = _gain_factors(spec, grid)
    d0, routing = dirichlet_norm_closed_form(spec)
    bounds = {
        "pd_norm_discrete": factors.pd_norm(0.0),
        "dirichlet_lift_bound": d0,
        "routing_norm": routing,
    }
    if spec.mass_preserving:
        bounds["pd_norm_closed_form"] = pd_norm_closed_form(spec)
    payload = {"certificate": cert.to_dict(), "norm_bounds": bounds,
               "k_velocity": grid.k}
    if args.dump_gain:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        np.savetxt(out / "gain_matrix.csv", factors.gain(0.0).matrix, delimiter=",")
    _emit(args, "analyze.json", payload)
    return 0


def _cmd_simulate(args) -> int:
    spec = load_network(args.config)
    scenario = _load_scenario(spec, args.scenario, args)
    traj = run(scenario)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "trajectory.csv"
    traj.to_csv(csv_path)
    summary = {"csv": str(csv_path), "n_records": int(len(traj.times)),
               "final_norm": float(traj.norm_state[-1]),
               "initial_data_norm": traj.initial_data_norm}
    try:
        summary["decay_fit"] = fit_decay(traj).to_dict()
    except ExtinctionFlag:
        summary["decay_fit"] = "extinct"
    except DomainError:   # too few records in the fit window
        summary["decay_fit"] = None
    _emit(args, "simulate.json", summary)
    return 0


def _cmd_verify(args) -> int:
    spec = load_network(args.config)
    scenario = _load_scenario(spec, args.scenario, args)
    p = _float_arg("--p", args.p)
    try:
        report = verify_iss(scenario, p=p)
    except SmallGainViolation as e:
        if e.certificate is None or e.certificate.decision != "INCONCLUSIVE":
            raise
        _emit(args, "verify.json",
              {"certificate": e.certificate.to_dict(), "passed": None})
        return 3
    _emit(args, "verify.json", report.to_dict())
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    spec = load_network(args.config)
    values = [_float_arg("--values", v) for v in args.values.split(",")]
    result = sweep(spec, args.param, values, k_velocity=args.k_velocity)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        result.to_csv(out / "sweep.csv")
    _emit(args, "sweep.json", result.to_dict())
    return 0


def _cmd_abscissa(args) -> int:
    spec = load_network(args.config)
    grid = VelocityGrid.for_spec(spec, args.k_velocity)
    result = spectral_abscissa(spec, grid)
    _emit(args, "abscissa.json", result.to_dict())
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k-velocity", type=int, default=16,
                        help="velocity grid cells (default 16)")
    common.add_argument("--out", default=None, help="output directory")

    def scenario_file(p):
        """The arguments of the commands that run a scenario file."""
        p.add_argument("config")
        p.add_argument("scenario")
        p.add_argument("--dt", type=float, default=None, help="time step override")
        p.add_argument("--seed", type=int, default=None, help="seed for random presets")

    parser = argparse.ArgumentParser(
        prog="kinnet",
        description="Stability certificates and simulation for delayed "
                    "kinetic transport networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="small-gain certificate and norm bounds")
    p.add_argument("config")
    p.add_argument("--dump-gain", action="store_true",
                   help="also write the gain matrix as CSV (needs --out)")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("simulate", parents=[common],
                       help="run a scenario and write the trajectory CSV")
    scenario_file(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("verify", parents=[common],
                       help="check the ISS estimate on a disturbed run")
    scenario_file(p)
    p.add_argument("--p", default="inf", help="input norm exponent (default inf)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", parents=[common],
                       help="certificate/behavior sweep over a scaled parameter")
    p.add_argument("config")
    p.add_argument("--param", required=True,
                   choices=("routing_scale", "beta_scale", "delay_scale"))
    p.add_argument("--values", required=True, help="comma separated scales")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("abscissa", parents=[common],
                       help="dominant shift of the gain family, by a "
                            "safeguarded secant method")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_abscissa)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KinnetError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

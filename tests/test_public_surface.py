"""The public surface, pinned: a new export, a new option or a new dataclass
field is a test edit."""

import dataclasses
import importlib
import inspect

import kinnet

MODULES = ("analysis", "cli", "delayquad", "errors", "model", "operators",
           "presets", "simulator", "spectral")

EXPORTS = [
    "AbscissaResult", "AbsorptionProfile", "BlockOperator", "BoundCheck",
    "BracketError", "Certificate", "CflError", "CircleSpec", "DecayFit",
    "DelayMeasure", "DomainError", "ExtinctionFlag", "GainAssemblyReport",
    "HistoryGapError", "IssConstants", "IssReport", "KinnetError",
    "NetworkBounds", "NetworkSpec", "PreconditionError", "ScatteringKernel",
    "Scenario", "SchemaError", "SimState", "SmallGainViolation", "SweepResult",
    "Trajectory", "ValidationError", "VelocityGrid", "analysis",
    "assemble_gain", "c_check", "delayquad",
    "dirichlet_norm_closed_form", "disturbance_lp_norm", "errors", "fit_decay",
    "iss_constants", "load_network", "make_scenario", "measure_laplace",
    "measure_total_variation", "model", "network_bounds", "operators",
    "pd_norm_closed_form", "presets", "resolvent_constant_c", "routing_norm",
    "run", "scale_spec", "simulator", "small_gain_certificate", "spectral",
    "spectral_abscissa", "spectral_radius", "sweep", "verify_iss",
]

OPTIONS = {
    "analysis.sweep": ["k_velocity"],
    "analysis.verify_iss": ["p"],
    "cli.main": ["argv"],
    "operators.VelocityGrid.for_spec": ["k"],
    "presets.constant_kernel": ["scale"],
    "presets.heterogeneous_five": ["routing_scale"],
    "presets.random_spec": ["family"],
    "presets.single_circle": ["gamma", "length", "delay", "v_min", "v_max",
                              "measure", "theta_rate", "kernel_scale"],
    "presets.single_circle_threshold_w": ["gamma", "length", "delay", "v_min",
                                          "v_max", "measure", "theta_rate"],
    "simulator.default_m_cells": ["base"],
    "simulator.make_scenario": ["grid", "k_velocity", "dt", "stride", "m_base",
                                "m_cells", "initial", "history", "disturbance",
                                "input_outside_sum"],
    "spectral.resolvent_constant_c": ["n_x", "n_theta"],
    "spectral.spectral_abscissa": ["tol"],
    "spectral.spectral_radius": ["tol"],
}

# the settable (init) fields of each public dataclass: 105 in all
FIELDS = {
    "analysis.DecayFit": ["n_hat", "a_hat", "residual", "window"],
    "analysis.IssReport": ["certificate", "constants", "envelope", "times", "norms",
                           "bounds", "worst_margin", "passed", "u_norm", "p",
                           "metadata"],
    "analysis.SweepResult": ["parameter", "values", "r_gains", "a_hats",
                             "decisions", "threshold", "agreement"],
    "model.AbsorptionProfile": ["kind", "value", "x_edges", "v_edges", "values"],
    "model.CircleSpec": ["length", "absorption", "scattering", "delay_measure"],
    "model.DelayMeasure": ["kind", "r", "theta_rate", "atoms", "density_edges",
                           "density_values"],
    "model.NetworkBounds": ["l_bar", "l_under", "r_bar", "beta_bar", "var_bar",
                            "gamma1", "gamma2", "gamma_bar", "routing_norm"],
    "model.NetworkSpec": ["circles", "routing", "v_min", "v_max", "mass_preserving",
                          "gamma1", "gamma2"],
    "model.ScatteringKernel": ["kind", "value", "v_edges", "out_values", "in_values",
                               "values"],
    "operators.BlockOperator": ["matrix", "weights"],
    "operators.GainAssemblyReport": ["lam", "operator"],
    "operators.VelocityGrid": ["edges", "centers", "widths"],
    "simulator.Scenario": ["spec", "grid", "dt", "t_end", "stride", "m_cells",
                           "initial", "history", "disturbance", "input_outside_sum"],
    "simulator.SimState": ["t", "density", "sums", "inputs", "head", "step_count"],
    "simulator.Trajectory": ["times", "norm_state", "norm_history", "total_mass",
                             "outflux", "initial_data_norm"],
    "spectral.AbscissaResult": ["lambda_star", "bracket_width", "iterations"],
    "spectral.BoundCheck": ["value", "status"],
    "spectral.Certificate": ["r_gain", "pd_radius", "decision", "sufficient_checks"],
    "spectral.IssConstants": ["n_envelope", "a_rate", "c_resolvent", "p", "c_check_p",
                              "gain", "pd_norm", "c_grid"],
}


def _public_objects():
    """(module.name, object) for the public names each kinnet module defines."""
    for m in MODULES:
        mod = importlib.import_module(f"kinnet.{m}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__:
                yield f"{m}.{name}", obj


def _public_functions():
    """(module.name, function) for the public functions of every kinnet
    module and the public methods of its classes."""
    for name, obj in _public_objects():
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                fn = getattr(fn, "__func__", fn)    # class and static methods
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def test_exports():
    assert sorted(kinnet.__all__) == EXPORTS


def test_optional_parameters():
    options = {}
    for name, fn in _public_functions():
        optional = [p.name for p in inspect.signature(fn).parameters.values()
                    if p.default is not inspect.Parameter.empty]
        if optional:
            options[name] = optional
    assert options == OPTIONS


def test_dataclass_fields():
    fields = {name: [f.name for f in dataclasses.fields(obj) if f.init]
              for name, obj in _public_objects()
              if inspect.isclass(obj) and dataclasses.is_dataclass(obj)}
    assert fields == FIELDS

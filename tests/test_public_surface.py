"""The public surface, pinned: a new export or a new option is a test edit."""

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


def _public_functions():
    """(module.name, function) for the public functions of every kinnet
    module and the public methods of its classes."""
    for m in MODULES:
        mod = importlib.import_module(f"kinnet.{m}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{m}.{name}", obj
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)    # class and static methods
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{m}.{name}.{attr}", fn


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

"""The benchmark's fixed task lists.

A task is one timed call into kinnet plus the untimed check of its answer.
Every call goes through a module attribute (`spectral.small_gain_certificate`,
`simulator.run`, `cli.main`) looked up when the task runs, so the tracer's
wrappers see it. Inputs depend only on the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from kinnet import cli, operators, presets, simulator, spectral

import oracles

FAMILIES = ("estimate", "example1", "example2", "c1")
RANDOM_CIRCLES = 3
CERTIFY_K = (8, 32)
SIMULATE_RES = (128, 32)      # (m_base, k)
VERIFY_RES = (32, 8)
VERIFY_SEEDS_PER_SPEC = 2
STRIDE = 8
UNIT = {"kind": "constant", "value": 1.0}


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], object]             # the timed call into kinnet
    check: Callable[[object], list[str]]  # oracle on the answer, untimed
    cells: int                            # grid cells updated by the call


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, n)]


def _dense_gain_radius(spec, grid, lam: float) -> float:
    return oracles.dense_radius(operators.assemble_gain(spec, grid, lam).operator.matrix)


# ---------------------------------------------------------------------------
# certify: certificate and abscissa for one (spec, k)

def _certify(spec, grid):
    return (spectral.small_gain_certificate(spec, grid),
            spectral.spectral_abscissa(spec, grid))


def _check_certify(spec, grid, label, answer) -> list[str]:
    cert, abscissa = answer
    radius_at = partial(_dense_gain_radius, spec, grid)
    return (oracles.check_certificate(cert.r_gain, cert.pd_radius, cert.decision,
                                      radius_at(0.0), label)
            + oracles.check_abscissa(abscissa.lambda_star, radius_at))


def _certify_task(name: str, spec, k: int, label: str | None) -> Task:
    grid = operators.VelocityGrid.for_spec(spec, k)
    return Task(f"{name}@k{k}", partial(_certify, spec, grid),
                partial(_check_certify, spec, grid, label),
                cells=spec.n_circles * k)


def _random_specs(seed: int):
    """One seeded random spec per family, the first with RANDOM_CIRCLES
    circles, so the amount of work does not depend on the seed."""
    candidates = iter(_seeds(seed, 1000))
    for family in FAMILIES:
        for s in candidates:
            spec = presets.random_spec(s, family)
            if spec.n_circles == RANDOM_CIRCLES:
                yield f"random_{family}_{s}", spec, None
                break


def certify_tasks(seed: int, workdir: Path) -> list[Task]:
    """The twelve regression specs with their stated labels, plus one
    seeded random three-circle spec per family, each at k = 8 and k = 32."""
    specs = list(presets.regression_suite()) + list(_random_specs(seed))
    return [_certify_task(name, spec, k, label)
            for k in CERTIFY_K for name, spec, label in specs]


# ---------------------------------------------------------------------------
# simulate: one long run at (m_base, k) = (128, 32)

def _simulate(spec, grid, kwargs):
    scenario = simulator.make_scenario(spec, grid, **kwargs)
    scenario.engine()
    return simulator.run(scenario)


def _check_norms(trajectory) -> list[str]:
    return (oracles.check_norms(trajectory.times, trajectory.norm_state)
            + oracles.check_norms(trajectory.times, trajectory.norm_history))


def _check_decay(lambda_star, trajectory) -> list[str]:
    return _check_norms(trajectory) + oracles.check_decay(
        trajectory.times, trajectory.norm_state + trajectory.norm_history,
        lambda_star)


def _check_mass(trajectory) -> list[str]:
    return _check_norms(trajectory) + oracles.check_mass(trajectory.total_mass)


def _simulate_task(name: str, spec, check, m_base: int, k: int, **kwargs) -> Task:
    grid = operators.VelocityGrid.for_spec(spec, k)
    kwargs.update(m_base=m_base, stride=STRIDE)
    sc = simulator.make_scenario(spec, grid, **kwargs)
    cells = sc.n_steps * grid.k * sum(m + 1 for m in sc.m_cells)
    return Task(name, partial(_simulate, spec, grid, kwargs), check, cells)


def simulate_tasks(seed: int, workdir: Path) -> list[Task]:
    """heterogeneous_five(0.4) unforced and disturbed, conservation_spec()
    from seeded random data. The dominant shift that the unforced decay is
    checked against comes from a dense-eigenvalue bisection made here."""
    data_seed, disturbance_seed = _seeds(seed, 2)
    five, two = presets.heterogeneous_five(0.4), presets.conservation_spec()
    m_base, k = SIMULATE_RES
    grid = operators.VelocityGrid.for_spec(five, k)
    lambda_star = oracles.dense_abscissa(partial(_dense_gain_radius, five, grid))
    return [
        _simulate_task("heterogeneous_five/unforced", five,
                       partial(_check_decay, lambda_star), m_base, k,
                       t_end=20.0, initial=UNIT, history=UNIT),
        _simulate_task("conservation/random_data", two, _check_mass, m_base, k,
                       t_end=20.0,
                       initial={"kind": "random_nonneg", "seed": data_seed},
                       history={"kind": "constant", "value": 0.3}),
        _simulate_task("heterogeneous_five/bounded_random", five, _check_norms,
                       m_base, k, t_end=10.0,
                       disturbance={"kind": "bounded_random", "bound": 0.5,
                                    "seed": disturbance_seed}),
    ]


# ---------------------------------------------------------------------------
# verify: `kinnet verify` in process, stdout captured

def _verify(config: Path, scenario: Path, k: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(config), str(scenario),
                         "--k-velocity", str(k)])
    return code, out.getvalue()


def _check_verify(t_end: float, dt: float, answer) -> list[str]:
    code, text = answer
    try:
        payload = json.loads(text)
    except ValueError:
        return [f"exit code {code}, stdout is not one JSON report"]
    return oracles.check_verify(code, payload, t_end, dt, STRIDE)


def _verify_task(workdir: Path, name: str, spec, disturbance_seed: int) -> Task:
    """Config and scenario files as in acceptance criterion 5: horizon
    12 (l_bar/v_min + r_bar), unit data, bounded input of size 0.5."""
    m_base, k = VERIFY_RES
    config = workdir / f"{name}.json"
    if not config.exists():
        config.write_text(json.dumps(spec.to_config()))
    lengths = [c.length for c in spec.circles]
    t_end = 12.0 * (max(lengths) / spec.v_min + max(c.delay for c in spec.circles))
    dt = 0.9 * min(lengths) / (m_base * spec.v_max)
    doc = {"t_end": t_end, "dt": dt, "stride": STRIDE, "m_base": m_base,
           "initial": UNIT, "history": UNIT,
           "disturbance": {"kind": "bounded_random", "bound": 0.5,
                           "seed": disturbance_seed}}
    scenario = workdir / f"{name}_seed{disturbance_seed}.json"
    scenario.write_text(json.dumps(doc))
    sc = simulator.make_scenario(spec, t_end=t_end, dt=dt, k_velocity=k,
                                 m_base=m_base)
    cells = sc.n_steps * k * sum(m + 1 for m in sc.m_cells)
    return Task(f"{name}/seed{disturbance_seed}",
                partial(_verify, config, scenario, k),
                partial(_check_verify, t_end, dt), cells)


def verify_tasks(seed: int, workdir: Path) -> list[Task]:
    """The six ISS regression specs, two seeded disturbances each."""
    suite = [(name, spec) for name, spec, label in presets.regression_suite()
             if label == "ISS"]
    seeds = iter(_seeds(seed, len(suite) * VERIFY_SEEDS_PER_SPEC))
    return [_verify_task(workdir, name, spec, next(seeds))
            for name, spec in suite for _ in range(VERIFY_SEEDS_PER_SPEC)]


# ---------------------------------------------------------------------------

def probe_tasks(workdir: Path) -> list[Task]:
    """One small task per workload, the same for every seed. A traced run
    ends with these, so every per-layer metric is defined on every workload."""
    circle = presets.single_circle(0.5)
    return [
        _certify_task("probe/certify", circle, 8, "ISS"),
        _verify_task(workdir, "probe_verify", circle, 0),
        _simulate_task("probe/simulate", presets.heterogeneous_five(0.4),
                       _check_norms, *SIMULATE_RES, t_end=0.5,
                       initial=UNIT, history=UNIT),
    ]


WORKLOADS = {"certify": certify_tasks, "simulate": simulate_tasks,
             "verify": verify_tasks}

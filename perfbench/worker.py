"""One worker process of the benchmark: set-up, the timed phase over a fixed
task list, then the untimed checks. Prints one JSON object as its last line.

Run by run.py, which sets PYTHONPATH to the checkout's src and pins the BLAS
thread count; `--spawned-at` is the parent's time.monotonic() just before the
process was started, so set-up time counts interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
from tracer import Tracer
from workloads import WORKLOADS, probe_tasks

OUT = Path(__file__).resolve().parent / "out"

# Reference length of one round on the machine the benchmark was built on
# (README); a run does round(seconds / this) rounds, at least one, so the
# work in a run depends on --seconds only, never on the machine's speed.
ROUND_S = {"certify": 35.0, "simulate": 7.0, "verify": 9.0}
SETUP_KERNEL_RUNS = 5

# (metric, unit) reported by a traced run, as BENCHMARK.json lists them.
PER_LAYER = [(m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def run_tasks(tasks, gaps: list | None = None) -> tuple[list, list[float], list[str]]:
    """Answers (None where the call raised), per-task seconds, failures.
    With `gaps`, the reference kernel runs before the first task and after
    each task, and gaps[i], gaps[i + 1] hold the kernel times around task i."""
    answers, times, failures = [], [], []
    if gaps is not None:
        gaps.append(speed.kernel_gap(0.0))
    for task in tasks:
        t0 = time.perf_counter()
        try:
            answers.append(task.run())
        except Exception:  # a failed operation is counted, the run goes on
            answers.append(None)
            failures.append(f"{task.name}: {traceback.format_exc(limit=-1).strip()}")
        times.append(time.perf_counter() - t0)
        if gaps is not None:
            gaps.append(speed.kernel_gap(times[-1]))
    return answers, times, failures


def reference_times(times: list[float], gaps: list[list[float]]) -> list[float]:
    """Each task time scaled to reference machine speed by the kernel time
    around it: the mean of the gap before it and the gap after it."""
    return [t * speed.REF_KERNEL_S / (0.5 * (statistics.fmean(before)
                                            + statistics.fmean(after)))
            for t, before, after in zip(times, gaps, gaps[1:])]


def end_to_end(tasks, times: list[float], peak_rss_mb: float) -> dict:
    wall_s = sum(times)
    return {
        "tasks_per_s": {"value": len(tasks) / wall_s, "unit": "1/s"},
        "task_s.p50": {"value": statistics.median(times), "unit": "s"},
        "cell_updates_per_s": {"value": sum(t.cells for t in tasks) / wall_s,
                               "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def check_answers(tasks, answers) -> list[str]:
    errors = []
    for task, answer in zip(tasks, answers):
        if answer is not None:
            errors += [f"{task.name}: {e}" for e in task.check(answer)]
    return errors


def layer_metrics(tracer, timed_s: float, scale: float) -> dict:
    """Per-layer metrics; times are multiplied by `scale`, the run's ratio of
    reference-speed to raw task time."""
    totals = tracer.totals()

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    values = {
        "spectral.abscissa_evals":
            tracer.calls_under("spectral.spectral_radius", "spectral.spectral_abscissa")
            / calls("spectral.spectral_abscissa"),
        "cli.certificates_per_verify":
            tracer.calls_under("spectral.small_gain_certificate", "cli.main")
            / calls("cli.main"),
        "simulator.us_per_step.32x8": tracer.us_per_step(32, 8),
        "simulator.us_per_step.128x32": tracer.us_per_step(128, 32),
        "trace.timed_phase_s": timed_s,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            base, kind = name.rsplit(".", 1)
            values[name] = self_s(base) if kind == "s" else calls(base)
        value = values[name] * scale if unit in ("s", "us") else values[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        tasks = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            kernel_s = statistics.fmean(speed.run_kernel() for _ in range(SETUP_KERNEL_RUNS))
            print(json.dumps({"setup_s": setup_s,
                              "setup_ref_s": setup_s * speed.REF_KERNEL_S / kernel_s}))
            return 0

        tasks = tasks * rounds_for(args.workload, args.seconds)
        tracer = Tracer() if args.trace else None
        gaps = []
        if tracer:
            probe = probe_tasks(workdir)
            tracer.install()
        answers, times, failures = run_tasks(tasks, gaps)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            probe_answers, _, probe_failures = run_tasks(probe)
            tracer.uninstall()
        errors = check_answers(tasks, answers)
        if tracer:
            errors += probe_failures + check_answers(probe, probe_answers)

    result = {"attempted": len(tasks), "failed": len(failures),
              "errors": (failures + errors)[:20], "correct": not errors}
    ref_times = reference_times(times, gaps)
    kernel = [t for gap in gaps for t in gap]
    result["kernel_s"] = {"median": statistics.median(kernel), "n": len(kernel)}
    result["task_times_s"] = {"raw": times, "reference": ref_times}
    if tracer:
        result["metrics"] = layer_metrics(tracer, sum(times),
                                          sum(ref_times) / sum(times))
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        result["metrics"] = end_to_end(tasks, ref_times, peak_rss_mb)
        result["raw_metrics"] = end_to_end(tasks, times, peak_rss_mb)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

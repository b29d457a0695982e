"""Benchmark of kinnet: certificates, long simulations, in-process verify.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. kinnet is imported from the checkout's
`src`. Set-up runs SETUP_SAMPLES times in fresh worker processes that stop
after it; `setup_s` is the median. Then one more worker sets up and runs the
timed phase. Times are reported at reference machine speed (speed.py). The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and the end-to-end metrics, or with `--trace 1` the per-layer
metrics of a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
BLAS_THREADS = "1"


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(started)], env=env,
                              stdout=subprocess.PIPE, timeout=deadline - started,
                              text=True)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise WorkerError(f"worker exceeded {TIME_LIMIT_S:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("certify", "simulate", "verify"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kinnet" / "__init__.py").is_file():
        print(f"error: no kinnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [] if args.trace else [
            spawn(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES)]
        result = spawn(args, deadline, setup_only=False)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setup_s = statistics.median(s["setup_ref_s"] for s in setups)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    for line in result["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "metrics": metrics, "setup_samples": setups},
                   indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread (IQR / median), as the acceptance rule reads them.

    python3 perfbench/steadiness.py --workloads certify simulate verify \
        --seeds 1 2 3 4 5 6 7 8 9 10 --label first

Writes perfbench/out/steadiness-<label>.json with every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=["certify", "simulate", "verify"])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--label", default="run")
    args = ap.parse_args(argv)

    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            saved = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace0.json")
                               .read_text())
            result["raw_metrics"] = saved["raw_metrics"]
            runs[workload].append(result)
            print(workload, seed, json.dumps(result), flush=True)

    print(f"\n{'workload':10} {'metric':20} {'median':>14} {'IQR/median':>11} "
          f"{'raw IQR/med':>11}  failed/attempted")
    for workload, results in runs.items():
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        for name in results[0]["metrics"]:
            median, rel = spread([r["metrics"][name]["value"] for r in results])
            raw = (f"{spread([r['raw_metrics'][name]['value'] for r in results])[1]:11.4f}"
                   if name in results[0]["raw_metrics"] else f"{'':11}")
            print(f"{workload:10} {name:20} {median:14.6g} {rel:11.4f} {raw}  {shares}")
        if not all(r["correct"] for r in results):
            print(f"{workload}: a check failed")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.label}.json").write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

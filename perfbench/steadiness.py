"""Run the benchmark repeatedly and report the spread of every metric.

    python3 perfbench/steadiness.py --workloads kunserve-waves tier-sweep \
        --runs 10 --out perfbench/steadiness.json

Each run is ``run.py --workload W --seed S --seconds <run_seconds> --trace 0``
with a different seed (1, 2, ...).  For every end-to-end metric this prints
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
their distance as a share of the median, next to the metric's bound from
``BENCHMARK.json`` (a spread is steady below a third of the bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": values})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
        summary = {}
        for name in bounds:
            s = spread([run["metrics"][name] for run in runs])
            s["bound"] = bounds[name]
            summary[name] = s
            flag = "steady" if s["iqr_share"] < bounds[name] / 3 else "NOT steady"
            print(f"  {name:<18} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"iqr/median={s['iqr_share']:.4f} bound={bounds[name]} {flag}", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

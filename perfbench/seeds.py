"""Run the benchmark once per seed and summarise each metric across the runs.

Usage (from the repository root):

    python3 perfbench/seeds.py --workload bc --seeds 1-10 [--trace 0]
        [--out perfbench/baseline/bc.json]

Prints, per metric, the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread (quartile distance
over the median), which is how runs of two commits are compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], None, values[0]))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=os.path.dirname(HERE))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"],
                     "failed": result["failed"], "metrics": result["metrics"]})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        summary[name] = dict(summarise(values),
                             unit=runs[0]["metrics"][name]["unit"])
        s = summary[name]
        spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:<34} median {s['median']:>14.6g}  q1 {s['q1']:>12.6g}  "
              f"q3 {s['q3']:>12.6g}  spread {spread:>7} {s['unit']}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": seconds, "runs": runs, "summary": summary},
                      fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload several times, each with another seed, and print the
median, quartiles and spread of every metric.

    python3 perfbench/steady.py --workload sweep --runs 10

Each run lasts BENCHMARK.json's ``run_seconds`` and prints the end-to-end
metrics.  The spread is (q3 - q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``: the figure that BENCHMARK.json's
bounds are compared with.
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        shown = " ".join(f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {shown}", flush=True)

    print(f"\n{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  unit")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:<36} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%}  {units[name]}")
    print(f"\nattempted {attempted}, failed {failed}, over {args.runs} runs of {seconds:g} s")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Fold perfbench reports of alternating parent/change pairs into one
trajectory file, ``BENCH_<n>.json`` at the root of the repository.

    python tools/bench_fold.py --out BENCH_36.json SIDE:REPORT [SIDE:REPORT ...]

Each argument names a side, ``parent`` or ``change``, and one report
that ``perfbench/run.py --trace 0`` wrote (``perfbench/reports/``), in
the order the runs were made.  The runs of one workload and one seed,
one on each side, make a pair, and the side that ran first is the
pair's order.  For each workload the file records the pairs, and for
each side the seeds, ``git_revision``, ``source_sha256``, Python
version, CPU count, run length, queries attempted and failed, and for
each end-to-end metric its unit, the value of every run (in seed order),
the median and the quartiles (``statistics.quantiles(values, n=4)``,
as ``perfbench/steady.py`` reads them; one run is its own quartiles).

The tool refuses, with exit code 2, a traced report, a side whose
reports come from more than one revision or source, and a seed that
is not run exactly once on each side.  The output is JSON with sorted
keys, so the same reports fold to the same bytes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SCHEMA = "prioritaire-bench/1"
SIDES = ("parent", "change")
# What every report of one side must share.
_SHARED = ("git_revision", "source_sha256", "python", "nproc", "seconds")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _side(reports: list[dict], where: str) -> dict:
    """The summary of one side of one workload, its reports in seed order."""
    out = {}
    for key in _SHARED:
        values = {json.dumps(r[key]) for r in reports}
        if len(values) != 1:
            raise ValueError(f"{where}: reports differ in {key}: {sorted(values)}")
        out[key] = reports[0][key]
    out["seeds"] = [r["seed"] for r in reports]
    out["attempted"] = sum(r["attempted"] for r in reports)
    out["failed"] = sum(r["failed"] for r in reports)
    out["metrics"] = {}
    for name, unit in reports[0]["units"].items():
        runs = [r["metrics"][name] for r in reports]
        q1, median, q3 = _quartiles(runs)
        out["metrics"][name] = {"unit": unit, "runs": runs, "median": median, "q1": q1, "q3": q3}
    return out


def fold(runs: list[tuple[str, dict]]) -> dict:
    """The trajectory of (side, report) pairs given in the order run;
    ValueError for reports that do not fold."""
    by_workload: dict[str, dict] = {}
    for side, report in runs:
        if side not in SIDES:
            raise ValueError(f"side {side!r} is neither {' nor '.join(SIDES)}")
        if report["trace"]:
            raise ValueError(f"{report['workload']} seed {report['seed']}: a traced report")
        seeds = by_workload.setdefault(report["workload"], {})
        pair = seeds.setdefault(report["seed"], {})
        if side in pair:
            raise ValueError(f"{report['workload']} seed {report['seed']}: two {side} runs")
        pair[side] = report
        pair.setdefault("first", side)
    workloads = {}
    for workload, seeds in by_workload.items():
        for seed, pair in seeds.items():
            if set(pair) != {"first", *SIDES}:
                raise ValueError(f"{workload} seed {seed}: no {' and '.join(SIDES)} pair")
        order = sorted(seeds)
        workloads[workload] = {
            "pairs": [{"seed": seed, "first": seeds[seed]["first"]} for seed in order],
            **{side: _side([seeds[s][side] for s in order], f"{workload} {side}") for side in SIDES},
        }
    return {"schema": SCHEMA, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("runs", nargs="+", metavar="SIDE:REPORT", help="in the order the runs were made")
    args = parser.parse_args(argv)
    try:
        runs = []
        for arg in args.runs:
            side, sep, path = arg.partition(":")
            if not sep:
                raise ValueError(f"{arg!r} is not SIDE:REPORT")
            runs.append((side, json.loads(Path(path).read_text(encoding="utf-8"))))
        text = json.dumps(fold(runs), indent=2, sort_keys=True) + "\n"
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench_fold: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

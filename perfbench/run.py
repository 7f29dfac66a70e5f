"""Run one workload and print its metrics; the last line is one JSON object.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One client, one thread, closed loop: each query starts when the previous
one has returned.  The run sets the workload up ``setup_repeats`` times,
then repeats its seeded round, in a fixed order, until ``--seconds`` is
spent (at least ``MIN_ROUNDS`` rounds).  A query's latency is the median
of its own samples across rounds, normalised by the host reference loop
(``hostref.py``).  Answers are checked after each round, off the clock.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics instead.
Each run also writes a report to ``perfbench/reports/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import hostref
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 2

END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in tracing.LAYERS for kind, unit in (("self_ms", "ms"), ("calls", "count"))},
    **{key: "count" for key in tracing.COUNTED},
    "exceptional.cache_hit_ratio": "ratio",
    "exceptional.cache_lookups": "count",
    "exceptional.cache_entries": "count",
    "exceptional.max_rank_bits": "bits",
    "helix.children_per_locate": "ratio",
    "cli.import_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def latency_metrics(samples: list[list[list[tuple[float, int]]]], scales) -> dict:
    """Throughput, median and tail over the per-query median latencies;
    a sample is a list of slices (raw seconds, mark), each normalised by
    ``scales[mark]``."""
    medians = sorted(
        statistics.median(sum(dt * scales[m] for dt, m in sample) for sample in s) for s in samples
    )
    n = len(medians)
    for p in (99.9, 99, 90):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10 or p == 90:
            break
    tail = {"percentile": f"p{p:g}", "beyond": n - rank, "value": medians[rank - 1]}
    q1, q2, q3 = statistics.quantiles(medians, n=4)
    return {
        "throughput_qps": n / sum(medians),
        "latency_p50_ms": statistics.median(medians) * 1000,
        "latency_tail_ms": tail["value"] * 1000,
        "tail": tail,
        "quartiles_ms": [q1 * 1000, q2 * 1000, q3 * 1000],
        "queries": n,
    }


def layer_metrics(summary: dict, queries: int, scale: float, overhead: float) -> dict:
    """Per-query averages of the traced rounds' totals."""
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_ms"] = summary["self_s"][layer] * scale * 1000 / queries
        out[f"{layer}.calls"] = summary["calls"][layer] / queries
    for key, count in summary["counted"].items():
        out[key] = count / queries
    cache = summary["cache"]
    lookups = cache["hits"] + cache["misses"]
    out["exceptional.cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    out["exceptional.cache_lookups"] = lookups / queries
    out["exceptional.cache_entries"] = cache["entries"]
    out["exceptional.max_rank_bits"] = summary["max_rank_bits"]
    locates = summary["triangle_locates"]
    out["helix.children_per_locate"] = summary["counted"]["helix.children_calls"] / locates if locates else 0.0
    out["cli.import_ms"] = summary["import_s"] * scale * 1000 / queries
    out["trace.overhead_ratio"] = overhead
    return out


def run(workload, seconds: float, trace: bool) -> dict:
    clock = hostref.HostClock(workload.in_child)
    for _ in range(5):
        clock.probe()
    workload.prepare()
    setups = [clock.sliced(workload.setup, clock.setup_chunk)[1] for _ in range(workload.setup_repeats)]
    items = workload.items

    tracer = tracing.Tracer() if trace else None
    samples = {False: [[] for _ in items], True: [[] for _ in items]}
    duration = {False: 0.0, True: 0.0}
    attempted, failures, rounds, rss_mb, described = 0, [], 0, None, {}
    deadline = perf_counter() + seconds
    while True:
        traced = trace and rounds % 2 == 1
        started = perf_counter()
        workload.begin_round(tracer if traced else None)
        results, target = [], samples[traced]
        for qi, item in enumerate(items):
            if traced:
                tracer.query = qi
            result, slices = clock.sliced(partial(workload.run, item), clock.chunk_seconds, inside=not traced)
            target[qi].append(slices)
            results.append(result)
        workload.end_round(tracer if traced else None)
        if rss_mb is None:
            rss_mb = resource.getrusage(workload.rusage).ru_maxrss / 1024
            described = workload.describe(results)
        attempted += len(results)
        failures += [(rounds, qi, items[qi], results[qi]) for qi in workload.check(results)]
        del results
        duration[traced] = perf_counter() - started
        rounds += 1
        next_traced = trace and rounds % 2 == 1
        if rounds >= MIN_ROUNDS and perf_counter() + duration[next_traced] > deadline:
            break

    scales, ones = clock.scales(), [1.0] * (clock.mark() + 1)
    global_scale = clock.ref_seconds / clock.ref_median()
    out = {
        "attempted": attempted,
        "failed": len(failures),
        "rounds": rounds,
        "ref_seconds": clock.ref_seconds,
        "ref_median_s": clock.ref_median(),
        "ref_probes": len(clock.ref_times),
        "failures": [
            {"round": r, "query": qi, "item": repr(item)[:200], "result": repr(res)[:200]}
            for r, qi, item, res in failures[:10]
        ],
        "probes": workload.probes(),
        **described,
    }
    untraced = latency_metrics(samples[False], scales)
    if trace:
        traced_lat = latency_metrics(samples[True], scales)
        overhead = traced_lat["throughput_qps"] / untraced["throughput_qps"]
        summary = tracer.summary()
        queries = len(items) * len(samples[True][0])
        out["metrics"] = layer_metrics(summary, queries, global_scale, overhead)
        out["raw"] = layer_metrics(summary, queries, 1.0, overhead)
        out["trace_summary"] = summary
        out["traced_latency"] = traced_lat
    else:
        raw = latency_metrics(samples[False], ones)
        setup_raw = [sum(dt for dt, _ in slices) for slices in setups]
        out["metrics"] = {
            **{k: untraced[k] for k in ("throughput_qps", "latency_p50_ms", "latency_tail_ms")},
            "setup_s": statistics.median(sum(dt * scales[m] for dt, m in slices) for slices in setups),
            "peak_rss_mb": rss_mb,
        }
        out["raw"] = {
            **{k: raw[k] for k in ("throughput_qps", "latency_p50_ms", "latency_tail_ms")},
            "setup_s": statistics.median(setup_raw),
            "setup_samples_s": setup_raw,
        }
    out["latency"] = untraced
    out["cache_info"] = tracing.cache_stats(workload.lib)
    return out


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / workloads.PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {workloads.PACKAGE} source under {src}", file=sys.stderr)
        return 2
    # Byte-compile the package as an install would, whatever
    # PYTHONDONTWRITEBYTECODE says, so that no run pays for compiling it.
    if not compileall.compile_dir(src / workloads.PACKAGE, quiet=1):
        print(f"perfbench: {workloads.PACKAGE} does not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    (HERE / "reports").mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    result = run(workload, args.seconds, bool(args.trace))

    units = PER_LAYER if args.trace else END_TO_END
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_hash(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "units": units,
        **result,
    }
    report_path = HERE / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, default=str) + "\n")

    for name, unit in units.items():
        print(f"{name:<36} {result['metrics'][name]:.6g} {unit}")
    if not args.trace:
        tail = result["latency"]["tail"]
        print(f"{'latency_tail_ms is':<36} {tail['percentile']} of {result['latency']['queries']} queries, {tail['beyond']} beyond")
    print(f"{'attempted / failed':<36} {result['attempted']} / {result['failed']} in {result['rounds']} rounds")
    for probe in result["probes"]:
        print(f"known defect: prioritaire {' '.join(probe['argv'])} exits {probe['exit']} (want {probe['expected_exit']})")
    print(f"{'report':<36} {report_path.relative_to(ROOT)}")
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

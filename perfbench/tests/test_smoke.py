"""Smoke test of the benchmark harness at the shortest run length.

Not part of the tier-1 suite (pyproject.toml collects only ``tests/``):

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_every_end_to_end_metric(workload):
    result = _result(_run(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = _result(_run("tile", trace=1))
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["metrics"]["render.calls"]["value"] >= 1
    assert 0 < result["metrics"]["trace.overhead_ratio"]["value"] <= 2


def test_sweep_region_mix_does_not_depend_on_the_seed():
    mixes = []
    for seed in (3, 4):
        _result(_run("sweep", seed=seed))
        report = json.loads((ROOT / "perfbench" / "reports" / f"sweep-seed{seed}-trace0.json").read_text())
        mixes.append(report["region_mix"])
    assert mixes[0] == mixes[1]
    assert set(mixes[0]) == {
        "no_prioritary",
        "semistable_positive_dim",
        "semistable_exceptional",
        "special_c0_c21",
        "above_delta_prime",
        "below_delta_prime",
    }


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", "reports"))
    proc = _run("sweep", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

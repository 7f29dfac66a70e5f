"""The trajectory files BENCH_*.json and their folder, tools/bench_fold.py."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_fold", _ROOT / "tools" / "bench_fold.py")
bench_fold = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_fold)

_METRICS = ("throughput_qps", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb")


def _report(side: str, seed: int, scale: float, **changes) -> dict:
    """A report as ``perfbench/run.py --trace 0`` writes it, with the
    fields the folder reads and one it ignores."""
    report = {
        "workload": "deep",
        "seed": seed,
        "seconds": 25.0,
        "trace": 0,
        "git_revision": f"{side[0]}" * 40,
        "source_sha256": f"{side[-1]}" * 64,
        "python": "3.11.7",
        "nproc": 2,
        "units": {"throughput_qps": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                  "setup_s": "s", "peak_rss_mb": "MB"},
        "attempted": 1000 + seed,
        "failed": 0,
        "rounds": 80,
        "metrics": {name: scale * (i + 1) for i, name in enumerate(_METRICS)},
    }
    report.update(changes)
    return report


def _fold(tmp_path, runs, out="BENCH_0.json"):
    args = []
    for i, (side, report) in enumerate(runs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        args.append(f"{side}:{path}")
    code = bench_fold.main(["--out", str(tmp_path / out), *args])
    return code, (tmp_path / out).read_bytes() if code == 0 else None


def _check_schema(data: dict) -> None:
    assert data["schema"] == bench_fold.SCHEMA
    assert data["workloads"]
    for workload, entry in data["workloads"].items():
        seeds = [p["seed"] for p in entry["pairs"]]
        assert seeds == sorted(set(seeds)) and seeds, workload
        assert {p["first"] for p in entry["pairs"]} <= set(bench_fold.SIDES)
        assert set(entry) == {"pairs", *bench_fold.SIDES}
        for side in bench_fold.SIDES:
            summary = entry[side]
            assert summary["seeds"] == seeds
            assert isinstance(summary["source_sha256"], str) and len(summary["source_sha256"]) == 64
            assert summary["git_revision"] is None or len(summary["git_revision"]) == 40
            assert summary["seconds"] > 0 and summary["nproc"] >= 1 and summary["python"]
            assert summary["failed"] >= 0 and summary["attempted"] > 0
            assert set(summary["metrics"]) == set(_METRICS)
            for name, m in summary["metrics"].items():
                assert len(m["runs"]) == len(seeds) and m["unit"], name
                assert (m["q1"], m["median"], m["q3"]) == bench_fold._quartiles(m["runs"])
                assert m["q1"] <= m["median"] <= m["q3"]


@pytest.mark.parametrize("path", sorted(_ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_every_committed_trajectory_has_the_schema(path):
    text = path.read_text(encoding="utf-8")
    data = json.loads(text)
    _check_schema(data)
    # As the folder writes it: sorted keys, two-space indent, one newline.
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_a_trajectory_is_committed():
    assert sorted(p.name for p in _ROOT.glob("BENCH_*.json"))


def test_two_reports_fold_to_fixed_bytes(tmp_path):
    runs = [("change", _report("change", 7, 2.0)), ("parent", _report("parent", 7, 1.0))]
    code, folded = _fold(tmp_path, runs)
    assert code == 0
    data = json.loads(folded)
    _check_schema(data)
    deep = data["workloads"]["deep"]
    assert deep["pairs"] == [{"seed": 7, "first": "change"}]
    assert deep["parent"]["metrics"]["throughput_qps"] == {
        "unit": "1/s", "runs": [1.0], "median": 1.0, "q1": 1.0, "q3": 1.0
    }
    assert deep["change"]["git_revision"] == "c" * 40
    assert hashlib.sha256(folded).hexdigest() == (
        "105a52939dc14dde9bc39a50e1174dafd6b7276513b2fdceacce96ff47147b07"
    )
    # The same runs in the other order fold alike but for the pair's order.
    code, again = _fold(tmp_path, runs[::-1], "BENCH_1.json")
    assert json.loads(again)["workloads"]["deep"]["pairs"] == [{"seed": 7, "first": "parent"}]


def test_quartiles_are_the_benchmarks_own():
    # statistics.quantiles(values, n=4), as perfbench/steady.py reads them.
    assert bench_fold._quartiles([4.0, 1.0, 3.0, 2.0]) == (1.25, 2.5, 3.75)
    assert bench_fold._quartiles([5.0]) == (5.0, 5.0, 5.0)


@pytest.mark.parametrize(
    "runs, message",
    [
        ([("parent", _report("parent", 1, 1.0))], "deep seed 1: no parent and change pair"),
        (
            [("parent", _report("parent", 1, 1.0)), ("parent", _report("parent", 1, 1.0))],
            "deep seed 1: two parent runs",
        ),
        (
            [
                ("parent", _report("parent", 1, 1.0)),
                ("change", _report("change", 1, 1.0)),
                ("parent", _report("parent", 2, 1.0, source_sha256="x" * 64)),
                ("change", _report("change", 2, 1.0)),
            ],
            "deep parent: reports differ in source_sha256",
        ),
        ([("parent", _report("parent", 1, 1.0, trace=1))], "deep seed 1: a traced report"),
        ([("base", _report("parent", 1, 1.0))], "side 'base' is neither parent nor change"),
    ],
)
def test_reports_that_do_not_fold_are_refused(tmp_path, capsys, runs, message):
    code, folded = _fold(tmp_path, runs)
    assert (code, folded) == (2, None)
    assert capsys.readouterr().err.startswith(f"bench_fold: {message}")
    assert not (tmp_path / "BENCH_0.json").exists()

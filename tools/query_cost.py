"""Warm cost of one library answer, region by region.

    python tools/query_cost.py [ROUNDS]

imports the package from the ``src`` directory next to this one and takes
the band of invariants r < 30, -r <= c1 <= 0, -2 <= c2 < 15 (7 888 of
them).  After one pass that warms the caches, it runs ROUNDS (default 7)
rounds; each times ``generic_prioritary`` over the points of each region,
a refusal (``no_prioritary``) included, then ``classify`` over the whole
band.  It prints the median over the rounds of the microseconds per
answer of each region, and per ``classify`` call.  It prints; it is not a
gate.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from prioritaire.chern import ChernData  # noqa: E402
from prioritaire.decompose import generic_prioritary  # noqa: E402
from prioritaire.errors import NoPrioritarySheafError  # noqa: E402
from prioritaire.frontier import classify  # noqa: E402


def _answer(cd: ChernData) -> None:
    try:
        generic_prioritary(cd)
    except NoPrioritarySheafError:
        pass


def _seconds(fn, points: list) -> float:
    t0 = time.perf_counter()
    for cd in points:
        fn(cd)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    rounds = int(argv[0]) if argv else 7
    band = [
        ChernData(r, c1, c2) for r in range(1, 30) for c1 in range(-r, 1) for c2 in range(-2, 15)
    ]
    regions: dict[str, list] = {}
    for cd in band:
        regions.setdefault(classify(cd).tag.value, []).append(cd)
        _answer(cd)
    times: dict[str, list[float]] = {tag: [] for tag in regions}
    times["classify"] = []
    for _ in range(rounds):
        for tag, points in regions.items():
            times[tag].append(_seconds(_answer, points) / len(points))
        times["classify"].append(_seconds(classify, band) / len(band))
    print(f"{len(band)} invariants, {rounds} warm rounds, Python {sys.version.split()[0]}")
    for tag, samples in times.items():
        count = len(regions.get(tag, band))
        what = "per call" if tag == "classify" else "per answer"
        print(f"{statistics.median(samples) * 1e6:8.2f} us {what}  {tag} ({count})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The four workloads: seeded inputs, one query per call, and oracles.

A workload makes one round of queries from its seed.  The runner
(``run.py``) repeats that round in the same order, times every query,
and afterwards hands each round's results to ``check``, which re-derives
the answers without the library's own checks (see ``exact.py``) and
returns the indices of the queries that failed.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import exact
import tracing

PACKAGE = "prioritaire"
BAND_MAX_RANK = 24  # a sweep round of about 5 s on the development host


def load(src: Path):
    """Import the package afresh from ``src``: every cache starts empty.

    Only ``sys.modules`` is touched; no cache of the library is cleared
    by name, so this keeps measuring cold starts whatever the caches are.
    """
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not from {src}")
    return package


def band_points():
    """The frontier band: every (r, c1) with 1 <= r <= BAND_MAX_RANK and
    -r < c1 <= 0, c2 from one below the prioritary bound to nine above it."""
    for r in range(1, BAND_MAX_RANK + 1):
        for c1 in range(-r + 1, 1):
            floor = exact.band_c2_floor(r, c1)
            for c2 in range(floor - 1, floor + 10):
                yield r, c1, c2


def owner_of(r: int, c1: int, c2: int, region) -> Fraction | None:
    """The witness slope if it owns the normalised slope of (r, c1, c2) and
    the region tag matches the integer evaluation of both frontiers there,
    else None."""
    w = region.witness
    if w is None or exact.exceptional_c2(w.slope) != w.c2:
        return None
    r, c1, c2 = exact.normalize(r, c1, c2)
    if not exact.in_interval(Fraction(c1, r), w.slope):
        return None
    return w.slope if exact.region(r, c1, c2, w.slope) == region.tag.value else None


class Workload:
    """Seeded rounds of queries; by default library calls in this process."""

    name = ""
    rusage = resource.RUSAGE_SELF  # whose peak memory is reported
    in_child = False  # queries run in child processes
    fresh_rounds = False  # re-import the package before every round
    setup_repeats = 5

    def __init__(self, seed: int, root: Path) -> None:
        self.seed, self.root = seed, root
        self.lib = None
        self.items: list = []

    def generate(self, rng: random.Random) -> tuple[list, list]:
        """(items of one round in their timed order, warm-up items)."""
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def check(self, results: list) -> list[int]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before the first set-up."""

    def setup(self) -> None:
        """Import, input generation and warm-up."""
        self.lib = load(self.root / "src")
        self.items, warm = self.generate(random.Random(self.seed))
        for item in warm:
            self.run(item)

    def begin_round(self, tracer) -> None:
        gc.collect()  # every round starts from the same heap
        if self.fresh_rounds:
            self.lib = load(self.root / "src")
        if tracer is not None:
            tracer.install(self.lib)
            self._cache_before = tracing.cache_stats(self.lib)

    def end_round(self, tracer) -> None:
        if tracer is not None:
            tracer.add_cache(self._cache_before, tracing.cache_stats(self.lib))
            tracer.uninstall()

    def run(self, item):
        try:
            return self.call(item)
        except Exception as exc:  # the oracle decides whether it was expected
            return exc

    def describe(self, results: list) -> dict:
        """Facts about one round's results for the report."""
        return {}

    def probes(self) -> list[dict]:
        """Known defects to run once and report, outside the timed rounds."""
        return []


class Sweep(Workload):
    """generic_prioritary over the frontier band, each point twisted by O(k)."""

    name = "sweep"

    def generate(self, rng):
        points = [exact.twist(*p, rng.randint(-3, 3)) for p in band_points()]
        warm = points[::25]
        rng.shuffle(points)
        return points, warm

    def call(self, item):
        return self.lib.decompose.generic_prioritary(self.lib.chern.ChernData(*item))

    def check(self, results):
        failed = []
        no_sheaf = self.lib.errors.NoPrioritarySheafError
        for i, (item, result) in enumerate(zip(self.items, results)):
            if not exact.prioritary(*item):
                ok = isinstance(result, no_sheaf)
            elif isinstance(result, Exception):
                ok = False
            elif owner_of(*item, result.region) is None:
                ok = False
            elif result.summands is None:
                ok = result.region.tag.value == "semistable_positive_dim"
            else:
                ok = self._balanced(item, result.summands)
            if not ok:
                failed.append(i)
        return failed

    @staticmethod
    def _balanced(item, summands) -> bool:
        """Sum of m * (r, c1, c1^2 - 2 c2) over the summands, in integers."""
        r, c1, c2 = item
        total = [0, 0, 0]
        for s in summands:
            if s.kind == "exceptional":
                sr, sc1, sc2 = s.bundle.rank, s.bundle.c1, s.bundle.c2
            elif s.kind == "generic_semistable":
                sr, sc1, sc2 = s.data.rank, s.data.c1, s.data.c2
            else:  # extension of the ideal of a point by O, twisted by O(t)
                sr, sc1, sc2 = 2, 2 * s.twist, s.twist * s.twist + 1
            if s.multiplicity < 1:
                return False
            for j, v in enumerate((sr, sc1, sc1 * sc1 - 2 * sc2)):
                total[j] += s.multiplicity * v
        return total == [r, c1, c1 * c1 - 2 * c2]

    def describe(self, results):
        mix: dict[str, int] = {}
        for result in results:
            tag = "no_prioritary" if isinstance(result, Exception) else result.region.tag.value
            mix[tag] = mix.get(tag, 0) + 1
        return {"region_mix": dict(sorted(mix.items()))}


class Deep(Workload):
    """Cold descents: slopes next to interval endpoints, and dyadic round trips."""

    name = "deep"
    fresh_rounds = True
    setup_repeats = 15  # its set-up is short, about 20 ms, so take many

    def generate(self, rng):
        bundles = [(-1, 0), (0, 0), (-1, 1)]
        for q in range(2, 7):
            # One of each mirror pair p/2^q, -1 - p/2^q: mirrored slopes
            # cost the same descent, so a seed changes which bundles are
            # drawn but not the work.
            for j in range(1 << (q - 2)):
                p = -(2 * j + 1)
                bundles.append((p if rng.random() < 0.5 else -(1 << q) - p, q))
        items = []
        for p, q in bundles:
            slope = exact.lattice_slope(p, q)
            k0 = exact.interval_digits(slope)
            for side in (-1, 1):
                if (slope, side) in ((-1, -1), (0, 1)):
                    continue  # that endpoint of O(-1) or O lies outside [-1, 0]
                for j, k in enumerate((k0 + 1, k0 + 10, 40)):
                    for mu, owner in zip(exact.endpoint_neighbours(slope, side, k), (slope, None)):
                        r, c1 = mu.denominator, mu.numerator
                        # Delta just below 1/2, where both frontiers meet the endpoint.
                        c2 = (r * r + (r - 1) * c1 * c1) // (2 * r) - 1 - j % 2
                        items.append(("classify", r, c1, c2, owner))
                        items.append(("delta_prime", mu))
        items.append(("roundtrip", -1, 1))
        for q in range(2, 19):
            half = 1 << (q - 2)  # odd numerators -(2j + 1), j < 2^(q-1), in two strata
            for j in (rng.randrange(half), half + rng.randrange(half)):
                items.append(("roundtrip", -(2 * j + 1), q))
        return items, []

    def call(self, item):
        lib = self.lib
        if item[0] == "classify":
            return lib.frontier.classify(lib.chern.ChernData(*item[1:4]))
        if item[0] == "delta_prime":
            return lib.frontier.delta_prime(item[1])
        bundle = lib.exceptional.from_dyadic(lib.exceptional.Dyadic(item[1], item[2]))
        back = lib.exceptional.dyadic_of(bundle)
        return bundle.slope, back.p, back.q

    def check(self, results):
        failed = []
        owner = None
        for i, (item, result) in enumerate(zip(self.items, results)):
            if isinstance(result, Exception):
                failed.append(i)
                owner = None
                continue
            if item[0] == "classify":
                owner = self._owner(item, result)
                ok = owner is not None
            elif item[0] == "delta_prime":
                parts = exact.delta_prime_parts(item[1], owner) if owner is not None else None
                ok = parts is not None and (result.a, result.b) == parts[:2] and result.d in (0, parts[2])
            else:
                _, p, q = item
                ok = result == (exact.lattice_slope(p, q), p, q)
            if not ok:
                failed.append(i)
        return failed

    @staticmethod
    def _owner(item, region):
        """``owner_of``, and the probed bundle for slopes inside its interval."""
        _, r, c1, c2, expected = item
        owner = owner_of(r, c1, c2, region)
        return owner if expected is None or owner == expected else None


class Tile(Workload):
    """Render the tiling over a fixed grid of levels and sample counts."""

    name = "tile"
    setup_repeats = 3  # its warm-up renders the deepest tiling, about 1.5 s

    def generate(self, rng):
        grid = [("svg", level, samples) for level in range(7) for samples in range(1, 8)]
        grid += [("csv", level) for level in range(11)]
        # Fills every cache the grid uses: the deepest triads and the
        # frontier slopes of every sample count.
        warm = [("csv", 10)] + [("svg", 0, samples) for samples in range(1, 8)]
        rng.shuffle(grid)
        self.first: list[str] | None = None
        return grid, warm

    def call(self, item):
        if item[0] == "svg":
            return self.lib.render.tile_svg(item[1], item[2])
        return self.lib.render.tile_csv(item[1])

    def check(self, results):
        digests = [
            hashlib.sha256(r.encode()).hexdigest() if isinstance(r, str) else None for r in results
        ]
        if self.first is None:
            self.first = digests
            return [i for i, (item, r) in enumerate(zip(self.items, results)) if not self._shape(item, r)]
        return [i for i, (d, f) in enumerate(zip(digests, self.first)) if d is None or d != f]

    @staticmethod
    def _shape(item, text) -> bool:
        if not isinstance(text, str):
            return False
        tiles = (1 << (item[1] + 1)) - 1
        if item[0] == "csv":
            return text.count("\r\n") == tiles + 1
        return text.endswith("</svg>\n") and text.count("<path ") == tiles


class Cli(Workload):
    """One query is one ``python -m prioritaire`` child process."""

    name = "cli"
    rusage = resource.RUSAGE_CHILDREN
    in_child = True
    setup_repeats = 15  # each set-up is one child, whose speed swings widely

    # Known defects, run once per run and reported, but not timed or counted.
    PROBES = (("slope", "--", "-1/2^1500"), ("slope", "--", "-349525/2^20"))

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.summary_path = root / "perfbench" / "reports" / "cli-child.json"
        self.tracer = None
        self.expected: dict = {}

    def command(self, argv) -> list[str]:
        # -S skips the site module: interpreter start-up is then mostly the
        # library's own import, which is what this workload measures.
        if self.tracer is None:
            return [sys.executable, "-S", "-m", PACKAGE, *argv]
        child = self.root / "perfbench" / "cli_child.py"
        return [sys.executable, "-S", str(child), str(self.summary_path), *argv]

    def prepare(self):
        self.lib = load(self.root / "src")
        self.items, _ = self.generate(random.Random(self.seed))

    def setup(self):
        """A fresh interpreter's ``import prioritaire.cli``."""
        subprocess.run(
            [sys.executable, "-S", "-c", f"import {PACKAGE}.cli"], env=self.env, cwd=self.root, check=True
        )

    def generate(self, rng):
        ex, bands = exact, list(band_points())
        kinds = {
            "slope": lambda: ("slope", "--", f"{rng.randint(-(2 << 8), 1 << 8)}/2^{rng.randint(0, 8)}"),
            "invert": lambda: (
                "slope", "--invert", "--",
                str(ex.lattice_slope(-rng.randrange(1, 32), rng.randint(0, 5)) + rng.randint(-1, 1)),
            ),
            "frontier": lambda: ("frontier", "--", str(Fraction(rng.randint(-120, 80), rng.randint(1, 40)))),
            "classify": lambda: ("classify", "--", *map(str, ex.twist(*rng.choice(bands), rng.randint(-3, 3)))),
            "decompose": lambda: ("decompose", "--", *map(str, ex.twist(*rng.choice(bands), rng.randint(-3, 3)))),
            "series": lambda: (
                "series", *(("--right",) if rng.random() < 0.5 else ()),
                f"--from={-rng.randint(0, 2)}", "--",
                str(Fraction(-rng.randint(0, 8), 8)), str(rng.randint(1, 5)),
            ),
        }
        items = [("tile", "--depth", str(depth), "--format", "csv") for depth in range(5)]
        for make in kinds.values():
            made: list[tuple] = []
            while len(made) < 16:
                argv = make()
                if argv not in made and argv[:1] + ("--json",) + argv[1:] not in made:
                    made.append(argv if len(made) % 2 else argv[:1] + ("--json",) + argv[1:])
            items += made
        rng.shuffle(items)
        return items, []

    def begin_round(self, tracer):
        self.tracer = tracer

    def end_round(self, tracer):
        self.tracer = None

    def call(self, argv):
        proc = subprocess.run(self.command(argv), env=self.env, cwd=self.root, capture_output=True, timeout=120)
        if self.tracer is not None and self.summary_path.exists():
            self.tracer.absorb(json.loads(self.summary_path.read_text()))
            self.summary_path.unlink()
        return proc.returncode, proc.stdout

    def probes(self) -> list[dict]:
        out = []
        for argv in self.PROBES:
            try:
                proc = subprocess.run(self.command(argv), env=self.env, cwd=self.root, capture_output=True, timeout=60)
                code, err = proc.returncode, proc.stderr.decode(errors="replace").strip().splitlines()
            except subprocess.TimeoutExpired:
                code, err = None, ["timed out after 60 s"]
            out.append({"argv": list(argv), "expected_exit": 0, "exit": code, "stderr_tail": err[-1:] if err else []})
        return out

    def check(self, results):
        return [i for i, (argv, result) in enumerate(zip(self.items, results)) if not self._agrees(argv, result)]

    def _agrees(self, argv, result) -> bool:
        if isinstance(result, Exception):
            return False
        code, stdout = result
        if code != 0:
            return False
        if argv[0] == "tile":
            return stdout == self.lib.render.tile_csv(int(argv[2])).encode()
        if argv not in self.expected:
            self.expected[argv] = self._facts(argv)
        facts = self.expected[argv]
        text = stdout.decode()
        if "--json" in argv:
            try:
                return _json_facts(argv[0], json.loads(text)) == facts
            except (ValueError, KeyError, TypeError):
                return False
        return all(fragment in text for fragment in _text_fragments(argv[0], facts))

    def _facts(self, argv) -> dict:
        """The library's answer to ``argv``, from in-process calls."""
        lib, values = self.lib, [a for a in argv[1:] if not a.startswith("-") or a[1:2].isdigit()]
        ex, fr = lib.exceptional, lib.frontier
        if argv[0] == "slope":
            if "--invert" in argv:
                f = ex.from_slope(Fraction(values[0]))
                d = ex.dyadic_of(f)
            else:
                d = ex.parse_dyadic(values[0])
                f = ex.from_dyadic(d)
            return {"label": f.label(), "rank": f.rank, "c1": f.c1, "c2": f.c2, "dyadic": str(d)}
        if argv[0] == "frontier":
            mu = Fraction(values[0])
            owner = ex.locate_exceptional(mu - (mu.numerator + mu.denominator - 1) // mu.denominator)
            return {
                "delta": lib.surd.format_rational(fr.delta(mu)),
                "delta_prime": lib.surd.format_surd(fr.delta_prime(mu)),
                "owner": owner.label(),
            }
        if argv[0] in ("classify", "decompose"):
            cd = lib.chern.ChernData(*map(int, values))
            if argv[0] == "classify":
                region = fr.classify(cd)
                return {"region": region.tag.value, "witness": region.witness and region.witness.label()}
            try:
                result = lib.decompose.generic_prioritary(cd)
            except lib.errors.NoPrioritarySheafError:
                return {"region": "no_prioritary", "summands": None}
            summands = result.summands and [(s.label(), s.multiplicity) for s in result.summands]
            return {"region": result.region.tag.value, "summands": summands}
        # series
        f = ex.from_dyadic(ex.parse_dyadic(values[0]))
        n_min = int(next(a for a in argv if a.startswith("--from=")).split("=")[1])
        members = (lib.helix.right_series if "--right" in argv else lib.helix.left_series)(f, n_min, int(values[1]))
        return {"members": [(g.rank, g.c1, g.c2) for g in members]}


def _json_facts(kind: str, doc: dict) -> dict:
    if kind == "slope":
        return {k: doc[k] for k in ("label", "rank", "c1", "c2", "dyadic")}
    if kind == "frontier":
        return {
            "delta": doc["delta"]["exact"],
            "delta_prime": doc["delta_prime"]["exact"],
            "owner": doc["owner"]["label"],
        }
    if kind == "classify":
        return {"region": doc["region"], "witness": doc["witness"]["label"] if "witness" in doc else None}
    if kind == "decompose":
        summands = doc["summands"] and [(s["label"], s["multiplicity"]) for s in doc["summands"]]
        return {"region": doc["region"], "summands": summands}
    return {"members": [(m["rank"], m["c1"], m["c2"]) for m in doc["members"]]}


def _text_fragments(kind: str, facts: dict) -> list[str]:
    if kind == "slope":
        return [f"bundle   {facts['label']}", f"dyadic   {facts['dyadic']}"]
    if kind == "frontier":
        return [facts["delta"], facts["delta_prime"], f"owner            {facts['owner']}"]
    if kind == "classify":
        return [f"region     {facts['region']}"]
    if kind == "decompose":
        return [f"region   {facts['region']}"] + [f"{m} x {label}" for label, m in facts["summands"] or ()]
    return [f"rank {r}  c1 {c1}  c2 {c2}" for r, c1, c2 in facts["members"]]


WORKLOADS = {cls.name: cls for cls in (Sweep, Deep, Tile, Cli)}

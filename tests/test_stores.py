"""Answers do not depend on what the lattice's stores hold.

The package keeps six stores between calls: ``_bundle``'s cache, the
kept middles ``_mids``, the ``_owner`` memo, the kept triad tree, whose
triads hold the data of the splittings on them, and ``render``'s kept
tile text and frontier memo.  A query answers, or raises,
the same from an empty lattice as from a warm one visited in another
order.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from prioritaire import decompose, exceptional, frontier, helix, render
from prioritaire.chern import ChernData
from prioritaire.errors import NoPrioritarySheafError
from prioritaire.exceptional import locate_exceptional, locate_many


def _band(seed: int = 2110) -> list[tuple]:
    """Seeded queries of each public kind: (name, arguments)."""
    rng = random.Random(seed)
    queries = []
    for _ in range(160):
        r = rng.randint(1, 24)
        c1 = rng.randint(-2 * r, 2 * r)
        c2 = (c1 * c1 * (r - 1) + r * r) // (2 * r) + rng.randint(-3, 4)
        queries.append(("classify", (r, c1, c2)))
        queries.append(("generic_prioritary", (r, c1, c2)))
    for _ in range(120):
        mu = Fraction(rng.randint(-300, 300), rng.randint(1, 120))
        queries.append(("delta", (mu,)))
        queries.append(("delta_prime", (mu,)))
    for _ in range(40):
        slopes = tuple(Fraction(-rng.randint(0, 99), 99) for _ in range(rng.randint(1, 4)))
        queries.append(("locate_many", slopes))
    for _ in range(160):
        d = rng.randint(2, 60)
        mu = Fraction(-rng.randint(1, d - 1), d)
        disc = Fraction(rng.randint(0, 700), 1000)
        queries.append(("locate_triangle", (mu, disc)))
    return queries


def _ask(name: str, args: tuple) -> str:
    """The answer's repr, or the error's type and text."""
    calls = {
        "classify": lambda: frontier.classify(ChernData(*args)),
        "generic_prioritary": lambda: decompose.generic_prioritary(ChernData(*args)),
        "delta": lambda: frontier.delta(*args),
        "delta_prime": lambda: frontier.delta_prime(*args),
        "locate_many": lambda: locate_many(args),
        "locate_triangle": lambda: helix.locate_triangle(*args),
    }
    try:
        return repr(calls[name]())
    except Exception as exc:  # every error is part of the answer
        # The trailing " None" keeps the bytes over which the digest below was
        # first taken, when an error could carry the bracket of its descent.
        return f"{type(exc).__name__}: {exc} None"


def answers(queries) -> dict:
    return {(name, args): _ask(name, args) for name, args in queries}


def digest(found: dict) -> str:
    lines = sorted(f"{key!r} -> {value}" for key, value in found.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_answers_do_not_depend_on_the_stores(fresh_lattice):
    queries = _band()
    cold = answers(queries)
    assert exceptional._owner.cache_info().currsize > 0
    warm_order = queries[:]
    random.Random(7).shuffle(warm_order)
    warm = answers(warm_order)
    assert warm == cold
    kinds = {value.split(":")[0] for value in cold.values() if "Error" in value.split(" ")[0]}
    assert kinds >= {"NoPrioritarySheafError", "NotCoveredError"}
    # 87 points are refused as in no tile up to their rank.
    beyond = [key[1] for key, value in cold.items() if value.endswith("up to its rank None")]
    assert len(beyond) == 87
    # The digest of the answers: that of the answers with no depth cap
    # when a query could take one, so no answer, error text or error type
    # moved when the cap went.
    assert digest(cold) == "3f78888d1df7c44ef97251b85891139305d369a7644ae3a804813a25d27000a7"


def test_frontiers_after_classify_walk_nothing(monkeypatch, fresh_lattice):
    # classify and the frontiers at the same normalized slope share the
    # owner: in other terms or translated, the slope needs no second walk.
    walks = []
    original = exceptional._walk
    monkeypatch.setattr(
        exceptional, "_walk", lambda *args: walks.append(args[1]) or original(*args)
    )
    for r, c1, c2 in ((20, -9, 60), (12, 5, 40), (7, -3, 20), (44, -17, 200), (4, -2, 5)):
        walks.clear()
        assert frontier.classify(ChernData(r, c1, c2)).tag is not frontier.RegionTag.NO_PRIORITARY
        assert walks == [-1]
        walks.clear()
        for k in (0, 1, -2):
            frontier.delta_prime(Fraction(c1, r) + k)
            frontier.delta(Fraction(c1, r) - k)
        assert walks == []


def _holding_splitting_data() -> set:
    """(level, index) of every kept triad that holds a splitting verdict."""
    return {
        (t.level, t.index)
        for slots in helix._levels
        for t in slots
        if t is not None and hasattr(t, "_verdict")
    }


def test_a_warm_splitting_composes_and_walks_nothing(monkeypatch):
    cd = ChernData(14, -5, 18)
    first = decompose.generic_prioritary(cd)
    assert first.region.tag is frontier.RegionTag.BELOW_DELTA_PRIME
    calls = []
    for name in ("compose", "_walk"):
        original = getattr(exceptional, name)
        monkeypatch.setattr(
            exceptional, name, lambda *args, f=original, n=name: calls.append(n) or f(*args)
        )
    again = decompose.generic_prioritary(cd)
    assert calls == []
    assert repr(again) == repr(first)


def test_rendering_fills_no_splitting_data(fresh_lattice):
    render.tile_csv(10)
    assert sum(t is not None for slots in helix._levels for t in slots) == 2047
    assert _holding_splitting_data() == set()


def test_only_the_triads_of_the_answers_hold_splitting_data(fresh_lattice):
    named = set()
    for name, args in _band():
        if name != "generic_prioritary":
            _ask(name, args)
            continue
        try:
            triangle = decompose.generic_prioritary(ChernData(*args)).verification.get("triangle")
        except NoPrioritarySheafError:
            continue
        if triangle is not None:
            named.add((triangle["level"], triangle["index"]))
    assert len(named) > 1
    assert _holding_splitting_data() == named


def _stores(module) -> dict:
    """The module-level stores of a module: each ``lru_cache``, and each
    list of slots (a list, or a list of lists, whose empty slots are None)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("__") and (hasattr(obj, "cache_info") or isinstance(obj, list))
    }


def _held(store) -> int:
    """How many entries or filled slots a store holds."""
    if hasattr(store, "cache_info"):
        return store.cache_info().currsize
    return sum(_held(x) if isinstance(x, list) else x is not None for x in store)


def test_fresh_lattice_empties_every_store(request):
    # Warm every store, then ask for the fixture: each store that the
    # lattice's modules hold is found, and each is empty.
    helix.enumerate_to_level(11)
    list(helix.iterate_triads(3))
    locate_exceptional(Fraction(-2, 5))
    render.tile_svg(2, 1)
    modules = (exceptional, helix, render)
    names = {(m.__name__, name) for m in modules for name in _stores(m)}
    assert names >= {
        ("prioritaire.exceptional", "_bundle"),
        ("prioritaire.exceptional", "_mids"),
        ("prioritaire.exceptional", "_owner"),
        ("prioritaire.helix", "_levels"),
        ("prioritaire.render", "_kept"),
        ("prioritaire.render", "_frontier_polylines"),
    }
    assert all(_held(store) for m in modules for store in _stores(m).values())
    request.getfixturevalue("fresh_lattice")
    held = {(m.__name__, name): _held(store) for m in modules for name, store in _stores(m).items()}
    assert held == dict.fromkeys(names, 0)

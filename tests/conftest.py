"""Shared fixtures of the tier-1 suite."""

from __future__ import annotations

import sys

import pytest
from hypothesis import settings

from prioritaire import exceptional, helix

# The one Hypothesis profile of every run, on every Python version and in
# every module order: the same examples each time, no example database
# written, and no deadline for a slow runner to trip.
settings.register_profile("prioritaire", deadline=None, derandomize=True, database=None)
settings.load_profile("prioritaire")


def empty_tree() -> list[list]:
    """A kept triad tree with every slot empty, as at import."""
    return [[None] * (1 << k) for k in range(helix.MAX_TILE_DEPTH + 1)]


@pytest.fixture
def fresh_lattice(monkeypatch):
    """The lattice's four stores empty, as in a fresh process: the kept
    triad tree and the kept middles ``_mids`` (the test gets its own empty
    slots, and the kept ones come back afterwards), ``_bundle``'s cache
    and ``_owner``'s memo."""
    monkeypatch.setattr(helix, "_levels", empty_tree())
    monkeypatch.setattr(exceptional, "_mids", [None] * len(exceptional._mids))
    exceptional._bundle.cache_clear()
    exceptional._owner.cache_clear()


@pytest.fixture
def default_digit_limit():
    """Python's default int-to-str limit of 4 300 digits, where it has one."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        yield
        return
    before = limit()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)

"""Shared fixtures of the tier-1 suite."""

from __future__ import annotations

import pytest

from prioritaire import exceptional, helix


def empty_tree() -> list[list]:
    """A kept triad tree with every slot empty, as at import."""
    return [[None] * (1 << k) for k in range(helix.MAX_TILE_DEPTH + 1)]


@pytest.fixture
def fresh_lattice(monkeypatch):
    """The lattice's four stores empty, as in a fresh process: the kept
    triad tree (the test gets its own empty slots, and the kept ones come
    back afterwards), ``_bundle``'s cache, ``_compose``'s memo and
    ``_owner``'s memo."""
    monkeypatch.setattr(helix, "_levels", empty_tree())
    exceptional._bundle.cache_clear()
    exceptional._compose.cache_clear()
    exceptional._owner.cache_clear()

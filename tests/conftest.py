"""Shared fixtures of the tier-1 suite."""

from __future__ import annotations

import pytest

from prioritaire import exceptional, helix


@pytest.fixture
def fresh_lattice(monkeypatch):
    """The lattice's three stores empty, as in a fresh process: the kept
    triad levels (the test gets its own list, and the kept one comes back
    afterwards), ``_bundle``'s cache and ``_compose``'s memo."""
    monkeypatch.setattr(helix, "_levels", [])
    exceptional._bundle.cache_clear()
    exceptional._compose.cache_clear()

"""Each built-in consistency check, at each enumeration depth.

``prioritaire selfcheck`` runs the same registry, ``selfcheck.CHECKS``;
here every check is called directly, so a failure names the check and
the depth and carries its own error.
"""

import pytest

from prioritaire import helix
from prioritaire.errors import InternalInconsistencyError
from prioritaire.exceptional import Dyadic, ExceptionalBundle
from prioritaire.selfcheck import CHECKS


@pytest.mark.parametrize("depth", range(7))
@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_check(name, check, depth):
    assert check(depth)


def test_triad_check_reads_the_middle_at_its_dyadic(monkeypatch):
    # A wrong (level, index) -> dyadic bookkeeping fails the tiling check.
    monkeypatch.setattr(helix.Triad, "mid_dyadic", lambda t: Dyadic(-1, t.level + 1))
    with pytest.raises(InternalInconsistencyError, match="is not at -1/4"):
        dict(CHECKS)["triangle tiling"](2)


@pytest.mark.parametrize("side", [1, -1], ids=["left", "right"])
def test_lattice_check_finds_an_interval_that_reaches_the_middle(monkeypatch, side):
    # An interval that held the middle between two neighbours, on either
    # side, fails the disjointness check, which tests membership in integers.
    monkeypatch.setattr(
        ExceptionalBundle, "_contains", lambda f, n, d: side * (n * f.rank - f.c1 * d) > 0
    )
    with pytest.raises(InternalInconsistencyError, match=r"^intervals of O\(-1\) and "):
        dict(CHECKS)["exceptional lattice"](3)

"""Each built-in consistency check, at each enumeration depth.

``prioritaire selfcheck`` runs the same registry, ``selfcheck.CHECKS``;
here every check is called directly, so a failure names the check and
the depth and carries its own error.
"""

import pytest

from prioritaire.selfcheck import CHECKS


@pytest.mark.parametrize("depth", range(7))
@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_check(name, check, depth):
    assert check(depth)

"""Exception hierarchy shared by all modules."""

from __future__ import annotations

from ._record import _ratio


class PrioritaireError(Exception):
    """Base class for all library errors."""


class InternalInconsistencyError(PrioritaireError):
    """A runtime cross-check failed.

    Raised when two independent computations of the same quantity
    disagree, or when a structural assertion that should be a theorem
    fails.  The CLI maps this to exit code 2.
    """


class NotCoveredError(PrioritaireError):
    """The queried point is not covered by any tile reachable in the descent."""


class NoPrioritarySheafError(PrioritaireError):
    """No prioritary sheaf exists with the requested invariants.

    Holds what the refusal knows, as its ``args`` and as attributes:
    ``input``, the record asked about; ``normalized``, the integers
    (r, c1, c2) of its twist into -1 < mu <= 0; and ``region``, the
    ``Region`` that refused it.  The message is written only when it is
    read: ``__str__`` names the discriminant, (2 r c2 - (r-1) c1^2)/(2 r^2),
    and the existence bound -c1 (c1 + r)/(2 r^2) of the normalized integers
    through ``_ratio``, so raising builds no ``Fraction`` and no string, and
    no message depends on the int-to-str limit.
    """

    def __init__(self, input: object, normalized: tuple[int, int, int], region: object) -> None:
        super().__init__(input, normalized, region)
        self.input = input
        self.normalized = normalized
        self.region = region

    def __str__(self) -> str:
        r, c1, c2 = self.normalized
        return (
            f"no prioritary sheaf with invariants {self.input}: "
            f"discriminant {_ratio(2 * r * c2 - (r - 1) * c1 * c1, 2 * r * r)} below the "
            f"existence bound {_ratio(-c1 * (c1 + r), 2 * r * r)}"
        )


class ParseError(PrioritaireError, ValueError):
    """Malformed textual input (rational, surd or dyadic string)."""

"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class PrioritaireError(Exception):
    """Base class for all library errors."""


class InternalInconsistencyError(PrioritaireError):
    """A runtime cross-check failed.

    Raised when two independent computations of the same quantity
    disagree, or when a structural assertion that should be a theorem
    fails.  The CLI maps this to exit code 2.
    """


class DepthExhaustedError(PrioritaireError):
    """A tree descent hit its depth cap before resolving.

    Carries the pair of bundles the descent would have entered next, so
    callers can report how far the search got.
    """

    def __init__(self, message: str, bracket: tuple | None = None) -> None:
        super().__init__(message)
        self.bracket = bracket


class NotCoveredError(PrioritaireError):
    """The queried point is not covered by any tile reachable in the descent."""


class NoPrioritarySheafError(PrioritaireError):
    """No prioritary sheaf exists with the requested invariants."""


class ParseError(PrioritaireError, ValueError):
    """Malformed textual input (rational, surd or dyadic string)."""

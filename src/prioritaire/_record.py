"""Base class of the package's small immutable value records.

A record lists its fields in ``__slots__`` and sets them in a plain
``__init__`` through ``object.__setattr__``; a record that caches a
derived value in an extra slot names its fields in ``_fields`` instead.
The base gives what a frozen dataclass gave: equality and hashing by
field values, assignment and deletion that raise ``AttributeError``,
and the repr ``Name(field=value, ...)``, in which an integer past
_MAX_BITS bits, alone or as a term of a ``Fraction``, is named by its bit
length (``_bits``).  It exists so that importing the package does not
import ``dataclasses``, which costs more than the package itself.
"""

from fractions import Fraction
from math import gcd
from operator import attrgetter

# The longest integer a repr, a walk message or a label writes out:
# 2 000 bits is at most 603 digits, under 640, the lowest int-to-str
# limit Python lets a program set.
_MAX_BITS = 2000


def _bits(n: int) -> str:
    """n named by its sign and bit length, as -<22876 bits>: the text of an
    integer past _MAX_BITS bits, which no int-to-str limit refuses."""
    return f"{'-' if n < 0 else ''}<{n.bit_length()} bits>"


def _ratio(n: int, m: int) -> str:
    """n/m, m > 0, for a message or a label, as ``str(Fraction(n, m))``;
    past _MAX_BITS bits both terms are named by their bit lengths (``_bits``:
    -<22876 bits>/<22876 bits>), so no message depends on the limit."""
    g = gcd(n, m)
    num, den = n // g, m // g
    if max(num.bit_length(), den.bit_length()) <= _MAX_BITS:
        return str(num) if den == 1 else f"{num}/{den}"
    return _bits(num) if den == 1 else f"{_bits(num)}/{_bits(den)}"


def _field_repr(value: object) -> str:
    """repr(value), with each integer past _MAX_BITS bits, the value or a
    term of a Fraction, named by ``_bits``."""
    if type(value) is Fraction:  # not isinstance: Fraction's ABC check would cost every field
        return f"Fraction({_field_repr(value.numerator)}, {_field_repr(value.denominator)})"
    if isinstance(value, int) and value.bit_length() > _MAX_BITS:
        return _bits(value)
    return repr(value)


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_field_repr(getattr(self, name))}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # Rebuild through __init__, which takes the fields in order.
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

"""Base class of the package's small immutable value records.

A record lists its fields in ``__slots__`` and sets them in a plain
``__init__`` through ``_setters``, the ``__set__`` of each slot the class
itself declares, in ``__slots__`` order, collected once per class::

    set_rank, set_c1 = __class__._setters
    set_rank(self, rank)

``__class__`` is the class whose body defines the method (PEP 3135), not
``type(self)``: a subclass's own slots never shift its parent's setters,
and no module global is read.  A slot descriptor's ``__set__`` skips
the lookup by name that ``object.__setattr__`` makes on every call
(``ChernData(8, -4, 11)`` took 0.59 us against 1.39 us on Python 3.11.7,
a 2-core VM), and like it, it bypasses the base's ``__setattr__``, which
refuses every assignment.  A record that caches a derived value in an extra slot names
its fields in ``_fields`` instead; a subclass's fields default to its
parent's, then the slots it declares.

The base gives what a frozen dataclass gave: equality and hashing by
field values, assignment and deletion that raise ``AttributeError``,
and the repr ``Name(field=value, ...)``, in which an integer past
_MAX_BITS bits, alone or as a term of a ``Fraction``, is named by its bit
length (``_bits``).  It exists so that importing the package does not
import ``dataclasses``, which costs more than the package itself.
"""

import sys
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
    term of a Fraction, named by ``_bits``.  No value is a Fraction until
    ``fractions`` is loaded, so it is looked up, not imported."""
    fractions = sys.modules.get("fractions")
    # not isinstance: Fraction's ABC check would cost every field
    if fractions is not None and type(value) is fractions.Fraction:
        return f"Fraction({_field_repr(value.numerator)}, {_field_repr(value.denominator)})"
    if isinstance(value, int) and value.bit_length() > _MAX_BITS:
        return _bits(value)
    return repr(value)


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = cls.__dict__.get("__slots__", ())
        # By default a class's fields are its parent's, then the slots it declares.
        cls._fields = cls.__dict__.get("_fields", cls._fields + own)
        cls._values = attrgetter(*cls._fields)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in own)

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

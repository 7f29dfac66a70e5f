"""Base class of the package's small immutable value records.

A record lists its fields in ``__slots__`` and sets them in a plain
``__init__`` through ``object.__setattr__``; a record that caches a
derived value in an extra slot names its fields in ``_fields`` instead.
The base gives what a frozen dataclass gave: equality and hashing by
field values, assignment and deletion that raise ``AttributeError``,
and the repr ``Name(field=value, ...)``.  It exists so that importing
the package does not import ``dataclasses``, which costs more than the
package itself.
"""

from operator import attrgetter


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
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # Rebuild through __init__, which takes the fields in order.
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

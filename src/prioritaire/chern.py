"""Chern data of coherent sheaves on the projective plane.

Conventions, all exact:

* slope           mu(E)    = c1 / r
* discriminant    Delta(E) = (1/r) * (c2 - ((r-1)/(2r)) * c1^2)
* polynomial      P(X)     = X^2/2 + 3X/2 + 1 = (X+1)(X+2)/2
* Riemann-Roch    chi(E)   = r * (P(mu) - Delta)
* Euler pairing   chi(E,F) = r_E * r_F * (P(mu_F - mu_E) - Delta_E - Delta_F)

Serre duality takes the form chi(E, F) = chi(F, E(-3)).  Twisting by
O(k) leaves Delta unchanged; the dual (r, -c1, c2) negates the slope and
leaves Delta unchanged.  Both chi forms are integers on integral data,
which is asserted at runtime rather than trusted.  ``euler_char``,
``euler_pairing``, ``twist`` and ``normalize`` work on the integers
(r, c1, c2) directly; the slope/discriminant form above and
``character_pairing`` are the references they are tested against.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, _ratio
from .errors import InternalInconsistencyError


def hirzebruch_p(x: Fraction | int) -> Fraction:
    """P(X) = (X+1)(X+2)/2, the Euler characteristic of O(X) for integer X."""
    x = Fraction(x)
    return (x + 1) * (x + 2) / 2


class ChernCharacter(Record):
    """Additive character (r, c1, ch2) with ch2 = (c1^2 - 2*c2)/2."""

    __slots__ = ("rank", "c1", "ch2")

    def __init__(self, rank: int, c1: int, ch2: Fraction | int) -> None:
        ch2 = Fraction(ch2)
        if (2 * ch2).denominator != 1:
            raise ValueError(f"ch2 must be a half-integer, got {_ratio(*ch2.as_integer_ratio())}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "ch2", ch2)

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.rank + other.rank, self.c1 + other.c1, self.ch2 + other.ch2)

    def __sub__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.rank - other.rank, self.c1 - other.c1, self.ch2 - other.ch2)

    def scale(self, m: int) -> "ChernCharacter":
        return ChernCharacter(self.rank * m, self.c1 * m, self.ch2 * m)

    def twist(self, k: int) -> "ChernCharacter":
        """Multiply by the character (1, k, k^2/2) of O(k) in Z[h]/h^3."""
        return ChernCharacter(
            self.rank,
            self.c1 + self.rank * k,
            self.ch2 + self.c1 * k + self.rank * Fraction(k * k, 2),
        )

    def to_data(self) -> "ChernData":
        c2 = (Fraction(self.c1 * self.c1) - 2 * self.ch2) / 2
        if c2.denominator != 1:
            text = _ratio(*c2.as_integer_ratio())
            raise InternalInconsistencyError(f"character {self} has non-integral c2 = {text}")
        return ChernData(self.rank, self.c1, int(c2))


class ChernData(Record):
    """Integral invariants (rank, c1, c2) of a sheaf of positive rank.  ``_vec``
    is its character as the integer vector x = (r, c1, 2 ch2) = (r, c1,
    c1^2 - 2 c2), built once: x is additive, and chi is bilinear on it."""

    __slots__ = ("rank", "c1", "c2", "_vec")
    _fields = __slots__[:3]

    def __init__(self, rank: int, c1: int, c2: int) -> None:
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {_ratio(rank, 1)}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "_vec", (rank, c1, c1 * c1 - 2 * c2))

    def slope(self) -> Fraction:
        return Fraction(self.c1, self.rank)

    def discriminant(self) -> Fraction:
        """Delta = (2r c2 - (r-1) c1^2) / (2r^2)."""
        r, c1 = self.rank, self.c1
        return Fraction(2 * r * self.c2 - (r - 1) * c1 * c1, 2 * r * r)

    def character(self) -> ChernCharacter:
        return ChernCharacter(self.rank, self.c1, Fraction(self.c1 * self.c1, 2) - self.c2)


def euler_char(cd: ChernData) -> int:
    """chi(E) = r*(P(mu) - Delta) = r + (3 c1 + c1^2 - 2 c2)/2, which is
    chi(O, E); an integer for integral data."""
    r, c1, x = cd._vec
    twice = 2 * r + 3 * c1 + x
    if twice & 1:
        raise InternalInconsistencyError(f"non-integral chi({cd}) = {twice}/2")
    return twice >> 1


def euler_pairing(a: ChernData, b: ChernData) -> int:
    """chi(a, b) = r_a * r_b * (P(mu_b - mu_a) - Delta_a - Delta_b), in integers
    on the vectors x = (r, c1, c1^2 - 2 c2) of ``ChernData._vec``:

    2*chi = 2 r_a r_b + 3 (r_a c1_b - c1_a r_b) + r_a x_b + r_b x_a - 2 c1_a c1_b
    """
    ra, c1a, xa = a._vec
    rb, c1b, xb = b._vec
    twice = 2 * ra * rb + 3 * (ra * c1b - c1a * rb) + ra * xb + rb * xa - 2 * c1a * c1b
    if twice & 1:
        raise InternalInconsistencyError(f"non-integral chi({a}, {b}) = {twice}/2")
    return twice >> 1


def character_pairing(x: ChernCharacter, y: ChernCharacter) -> Fraction:
    """Euler form in character coordinates; agrees with euler_pairing.

    chi(x, y) = r_x*ch2_y + r_y*ch2_x - c1_x*c1_y
                + (3/2)*(r_x*c1_y - c1_x*r_y) + r_x*r_y

    Kept as an independent route for cross-checks; valid for virtual
    classes of any rank.
    """
    return (
        x.rank * y.ch2
        + y.rank * x.ch2
        - x.c1 * y.c1
        + Fraction(3, 2) * (x.rank * y.c1 - x.c1 * y.rank)
        + x.rank * y.rank
    )


def twist(cd: ChernData, k: int) -> ChernData:
    """Invariants of E(k); Delta is unchanged.

    c2(E(k)) = c2 + (r-1)*c1*k + r(r-1)/2 * k^2.
    """
    r, c1 = cd.rank, cd.c1
    return ChernData(r, c1 + r * k, cd.c2 + (r - 1) * c1 * k + r * (r - 1) // 2 * k * k)


def dual(cd: ChernData) -> ChernData:
    """Invariants of the dual sheaf: (r, -c1, c2)."""
    return ChernData(cd.rank, -cd.c1, cd.c2)


def normalize(cd: ChernData) -> tuple[ChernData, int]:
    """Twist into the band -1 < mu <= 0; returns (twisted data, k used)."""
    k = (-cd.c1) // cd.rank
    return twist(cd, k), k

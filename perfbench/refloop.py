"""The host reference loop (see hostref.py).

Kept apart so that a child interpreter can run it with nothing imported
but ``fractions``: ``python -S perfbench/refloop.py``.
"""

from fractions import Fraction


def reference_loop() -> int:
    """Fixed work: the same on every call."""
    acc = Fraction(1)
    seen: dict[tuple[int, int], tuple[int, Fraction]] = {}
    parts = []
    for i in range(1, 120):
        acc = acc * Fraction(i + 1, 2 * i + 3) + Fraction(1, i * i + 1)
        if acc.denominator.bit_length() > 160:
            acc = Fraction(acc.numerator % 65521, acc.denominator % 65519 + 1)
        seen[(i, acc.numerator % 97)] = (i, acc)
        parts.append(f"{float(acc):.3f},{i * 0.37:.3f}")
    return len(",".join(parts)) + len(seen)


if __name__ == "__main__":
    reference_loop()

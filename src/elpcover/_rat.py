"""Exact rational scalar of the solver stack's values, cuts and reports.

Rat is fractions.Fraction: always reduced to lowest terms with a positive
denominator, interoperable with ints, and printed as "p/q" / "p", which is
the lossless wire format used in reports. The simplex tableau and the
odd-cycle separation work on Python ints and use Rat only at their
boundary (incoming rows, returned values, reported violations).
"""

from __future__ import annotations

from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)
FOUR_THIRDS = Rat(4, 3)


def rat_str(value) -> str:
    """Lossless "p/q" (or "p") rendering of a rational or int, in lowest
    terms as Rat keeps it."""
    num, den = value.numerator, value.denominator
    return str(num) if den == 1 else f"{num}/{den}"

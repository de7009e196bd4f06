"""Exact rational scalar of the solver stack's values, cuts and reports.

gmpy2.mpq when available, fractions.Fraction otherwise. Both are always
reduced to lowest terms with a positive denominator, interoperate with ints,
and print as "p/q" / "p", which is the lossless wire format used in reports.
The simplex tableau itself works on Python ints and uses Rat only at its
boundary (incoming rows, returned values).
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)
FOUR_THIRDS = Rat(4, 3)
THREE_HALVES = Rat(3, 2)
TWO_THIRDS = Rat(2, 3)


def rat_str(value) -> str:
    """Lossless "p/q" (or "p") rendering of a rational or int."""
    return str(Rat(value))

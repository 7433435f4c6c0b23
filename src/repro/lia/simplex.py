"""Exact-rational helpers of the simplex tableau.

The tableau itself is :class:`repro.kernels.simplex.PackedSimplex`, a
Dutertre and de Moura bound-form simplex (*A Fast Linear-Arithmetic
Solver for DPLL(T)*); this module keeps the exact-number helpers its
pivots use.
"""

from fractions import Fraction


def _norm(value):
    """Collapse integral rationals to plain ints.

    The tableau is almost always integral — fractions only enter through
    pivots and usually cancel right back out — and Python's int
    arithmetic and comparisons are an order of magnitude faster than
    ``Fraction``'s, so keeping values as ints whenever exact pays for
    the check many times over.
    """
    if value.__class__ is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _exact_div(num, den):
    """``num / den`` exactly: int when it divides, Fraction otherwise."""
    if isinstance(num, int) and isinstance(den, int):
        if num % den == 0:
            return num // den
        return Fraction(num, den)
    return _norm(num / den)

"""Numeric tower used throughout the reproduction.

The paper's algorithm hinges on *exact* predicates: a job is "fractured" iff
its remaining requirement ``s_j(t)`` is not an integer multiple of ``r_j``,
and window feasibility asks whether ``r(W \\ {max W}) < 1`` holds exactly.
Deciding these with floating point is unreliable, so the default
representation for all resource quantities is :class:`fractions.Fraction`.

Floats supplied by callers are converted via ``Fraction(float)`` which is
exact (binary floats are dyadic rationals); integers stay integral.  All
schedulers and validators in this package operate on Fractions internally and
expose them in their outputs; analysis code converts to ``float`` at the very
end for reporting.

Exact arithmetic is the only semantics: the fast integer backend
(:mod:`repro.engine.backends.integer`) rescales these rationals to integers
by a common denominator and decides every predicate identically, so no
scheduler or validator compares quantities with a float tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

Number = Union[int, float, Fraction]


def to_fraction(x: Number) -> Fraction:
    """Convert *x* to an exact :class:`Fraction`.

    Integers and Fractions pass through; floats are converted exactly
    (every finite binary float is a dyadic rational).  Raises
    :class:`ValueError` for NaN or infinite floats.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):  # bool is an int subclass; reject to avoid bugs
        raise TypeError("bool is not a valid numeric quantity")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"non-finite value not allowed: {x!r}")
        return Fraction(x)
    raise TypeError(f"unsupported numeric type: {type(x).__name__}")


def frac_sum(xs: Iterable[Fraction]) -> Fraction:
    """Exact sum of rationals (Fractions or ints), as a Fraction.

    Equal to ``sum(xs, Fraction(0))``, which normalizes (one gcd) after
    every addition: this adds plain-int numerators scaled to the LCM of
    the denominators seen so far (rescaling the running total when a new
    denominator extends it) and builds one Fraction at the end.
    """
    total = 0
    lcm = 1
    for x in xs:
        num, den = x.as_integer_ratio()
        if lcm % den:
            grown = lcm // math.gcd(lcm, den) * den
            total *= grown // lcm
            lcm = grown
        total += num * (lcm // den)
    return Fraction(total, lcm)


def lcm_scaled(values: Iterable[Fraction]) -> Tuple[int, List[int]]:
    """*values* as integers at one scale: ``(D, [x·D for x in values])``
    with ``D`` the LCM of their denominators (1 if there are none).

    The exact working form of a set of rationals: ``x == Fraction(x·D, D)``
    and every sum, difference and comparison of them is decided on the
    integers.
    """
    ratios = [x.as_integer_ratio() for x in values]
    scale = math.lcm(*(den for _num, den in ratios))
    return scale, [num * (scale // den) for num, den in ratios]


def ceil_div(value: Fraction, unit: Fraction) -> int:
    """Exact ``ceil(value / unit)`` for Fractions, as an int."""
    if unit <= 0:
        raise ValueError("unit must be positive")
    q = value / unit
    return -((-q.numerator) // q.denominator)


def ceil_frac(value: Fraction) -> int:
    """Exact ``ceil(value)`` for a Fraction, as an int."""
    return -((-value.numerator) // value.denominator)


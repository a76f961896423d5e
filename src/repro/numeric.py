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

A tolerant-comparison helper set is also provided for the optional float
fast path used by the large-scale runtime benchmarks (experiment E4), where
exactness is not needed because only wall-clock time is measured.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Number = Union[int, float, Fraction]

#: Absolute tolerance of the tolerant float helpers below.
FLOAT_EPS = 1e-9


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


def to_fractions(xs: Iterable[Number]) -> list[Fraction]:
    """Convert every element of *xs* via :func:`to_fraction`."""
    return [to_fraction(x) for x in xs]


def frac_sum(xs: Iterable[Fraction]) -> Fraction:
    """Exact sum of Fractions (``sum`` with a Fraction start value)."""
    return sum(xs, Fraction(0))


def is_multiple_of(value: Fraction, unit: Fraction) -> bool:
    """Return True iff *value* is a non-negative integer multiple of *unit*.

    This is the exact predicate behind the paper's notion of a *fractured*
    job: job ``j`` is fractured at time ``t`` iff ``s_j(t)`` is **not** an
    integer multiple of ``r_j``.
    """
    if unit <= 0:
        raise ValueError("unit must be positive")
    if value < 0:
        return False
    q = value / unit
    return q.denominator == 1


def fractional_remainder(value: Fraction, unit: Fraction) -> Fraction:
    """The paper's ``q_j(t)``: remainder of *value* modulo *unit* in [0, unit).

    For an unfractured value this is 0; for a fractured one it is the
    positive part that must be topped up to "unfracture" the job.
    """
    if unit <= 0:
        raise ValueError("unit must be positive")
    q = value / unit
    floor_q = q.numerator // q.denominator
    return value - floor_q * unit


def ceil_div(value: Fraction, unit: Fraction) -> int:
    """Exact ``ceil(value / unit)`` for Fractions, as an int."""
    if unit <= 0:
        raise ValueError("unit must be positive")
    q = value / unit
    return -((-q.numerator) // q.denominator)


def ceil_frac(value: Fraction) -> int:
    """Exact ``ceil(value)`` for a Fraction, as an int."""
    return -((-value.numerator) // value.denominator)


def floor_frac(value: Fraction) -> int:
    """Exact ``floor(value)`` for a Fraction, as an int."""
    return value.numerator // value.denominator


def fmin(*xs: Fraction) -> Fraction:
    """Exact minimum of one or more Fractions."""
    return min(xs)


def fmax(*xs: Fraction) -> Fraction:
    """Exact maximum of one or more Fractions."""
    return max(xs)


def clamp(x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    """Clamp *x* into the closed interval [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty interval: [{lo}, {hi}]")
    return min(max(x, lo), hi)


# ---------------------------------------------------------------------------
# Tolerant float helpers (for float-valued analysis code, never the engine).
# ---------------------------------------------------------------------------


def approx_le(a: float, b: float, eps: float = FLOAT_EPS) -> bool:
    """``a <= b`` up to absolute tolerance *eps*."""
    return a <= b + eps


def approx_ge(a: float, b: float, eps: float = FLOAT_EPS) -> bool:
    """``a >= b`` up to absolute tolerance *eps*."""
    return a + eps >= b


def approx_eq(a: float, b: float, eps: float = FLOAT_EPS) -> bool:
    """``a == b`` up to absolute tolerance *eps*."""
    return abs(a - b) <= eps


def as_floats(xs: Sequence[Fraction]) -> list[float]:
    """Convert a sequence of Fractions to floats for reporting."""
    return [float(x) for x in xs]

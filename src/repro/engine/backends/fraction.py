"""Exact :class:`fractions.Fraction` numeric backend (the reference domain).

Scaling is the identity: the engine's generic step loops run directly on
``Fraction`` values, reproducing the original reference schedulers
operation for operation.  This is the only engine module (besides the
result emitters) allowed to touch :mod:`fractions` — the
``hotpath-exact`` lint rule enforces that the generic loop/state/policy
modules stay representation agnostic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence


def steps_until_status_change(
    remaining: Fraction, share: Fraction, requirement: Fraction
) -> Optional[int]:
    """Smallest ``i ≥ 1`` such that subtracting ``i·share`` from *remaining*
    flips the fractured predicate (``remaining mod requirement ≠ 0``), or
    None if the status never changes before the job finishes.

    Solved exactly by reducing to the congruence ``i·C ≡ A (mod R)`` over
    the integers obtained by clearing denominators.
    """
    if share <= 0 or share >= requirement:
        # full-requirement (or zero) shares preserve the fractured predicate
        return None
    lcm_den = math.lcm(
        remaining.denominator, share.denominator, requirement.denominator
    )
    a = remaining.numerator * (lcm_den // remaining.denominator)
    c = share.numerator * (lcm_den // share.denominator)
    r = requirement.numerator * (lcm_den // requirement.denominator)
    if a % r == 0:
        # currently unfractured; one partial step fractures it
        return 1
    # fractured now: find smallest i >= 1 with i*c ≡ a (mod r)
    g = math.gcd(c, r)
    if a % g != 0:
        return None
    r_red = r // g
    if r_red == 1:
        return 1
    i0 = (a // g) * pow(c // g, -1, r_red) % r_red
    return i0 if i0 >= 1 else r_red


class FractionContext:
    """Identity scaling: the working domain *is* ``Fraction``."""

    name = "fraction"
    zero = Fraction(0)

    def scale(self, value: Fraction) -> Fraction:
        return value

    def from_units(self, units: Sequence[int], scale: int) -> List[Fraction]:
        return [Fraction(u, scale) for u in units]

    def as_units(self, shares: Dict, scale: int) -> Dict:
        return {
            j: c.numerator * (scale // c.denominator)
            for j, c in shares.items()
        }

    def to_fraction(self, value: Fraction) -> Fraction:
        return value

    def steps_until_status_change(
        self, a: Fraction, c: Fraction, r: Fraction
    ) -> Optional[int]:
        return steps_until_status_change(a, c, r)

"""LCM-rescaled exact integer backend.

**Scaling argument** (shared by every engine policy).  Let ``D`` be the
least common multiple of the denominators of the step budget ``R`` and all
per-job requirements ``r_j``.  Rescale every quantity by ``D``:
``R_j := D·r_j``, ``S_j := D·s_j = p_j·R_j``, ``B := D·R`` — all integers.
Every quantity any engine policy derives from these is obtained by sums,
differences, integer multiples and minima, so by induction every
remaining requirement, share and waste stays an integer multiple of
``1/D`` and is represented exactly by its scaled integer.
Every predicate — window feasibility ``r(W \\ {max W}) < R``, the Case-1/2
split ``r(W \\ F) ≥ R``, the fractured predicate ``s_j(t) mod r_j ≠ 0``,
the unit-algorithm virtual ordering, the Listing-3/4 task-packing test
``r(T) ≤ avail``, and the bulk-horizon congruence ``i·c ≡ a (mod r)``
(invariant under common scaling) — is decided identically, so traces,
makespans and completion times are **bit-for-bit equal** to the Fraction
backend (asserted property-based in ``tests/test_engine_backends.py`` and
``tests/test_perf_backends.py``).

The one operation *not* closed over the ``1/D`` lattice is exact division
(used by the ``proportional`` fixed-assignment policy); entry points that
need it resolve ``backend="int"`` to the fraction context instead (see
``repro.assigned.scheduler``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence


def lcm_denominator(budget: Fraction, requirements: Iterable[Fraction]) -> int:
    """LCM ``D`` of the denominators of *budget* and all requirements.

    Since job sizes are integral, every initial quantity the schedulers
    work with becomes integral after scaling by ``D``.
    """
    d = budget.denominator
    for r in requirements:
        d = math.lcm(d, r.denominator)
    return d


def int_steps_until_status_change(a: int, c: int, r: int) -> Optional[int]:
    """Integer form of the bulk-horizon congruence (see the fraction
    backend's ``steps_until_status_change``).

    The congruence is invariant under the common scaling by ``D``, so the
    answer equals the Fraction version's exactly.
    """
    if c <= 0 or c >= r:
        return None
    if a % r == 0:
        return 1
    g = math.gcd(c, r)
    if a % g != 0:
        return None
    r_red = r // g
    if r_red == 1:
        return 1
    i0 = (a // g) * pow(c // g, -1, r_red) % r_red
    return i0 if i0 >= 1 else r_red


class IntegerContext:
    """Working domain: integers scaled by the instance LCM ``D``."""

    name = "int"
    zero = 0

    def __init__(self, denominator: int) -> None:
        if denominator < 1:
            raise ValueError("scaling denominator must be >= 1")
        self.denominator = denominator
        self._frac_cache: Dict[int, Fraction] = {}

    def scale(self, value: Fraction) -> int:
        return value.numerator * (self.denominator // value.denominator)

    def from_units(self, units: Sequence[int], scale: int) -> Sequence[int]:
        grow = self.denominator // scale
        return units if grow == 1 else [u * grow for u in units]

    def as_units(self, shares: Dict, scale: int) -> Dict:
        # the run's scale is this context's denominator: nothing to convert
        return shares

    def to_fraction(self, value: int) -> Fraction:
        f = self._frac_cache.get(value)
        if f is None:
            f = self._frac_cache[value] = Fraction(value, self.denominator)
        return f

    def steps_until_status_change(self, a: int, c: int, r: int) -> Optional[int]:
        return int_steps_until_status_change(a, c, r)

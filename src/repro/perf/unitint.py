"""Scaled-integer entry points for unit-size SRJ and Cor. 3.9 packing.

These entry points run the unit-size m-maximal-window algorithm on the
engine's LCM-rescaled integer backend
(:mod:`repro.engine.backends.integer`): requirements are rescaled by the
LCM ``D`` of their denominators, after which every comparison the
algorithm makes (window feasibility ``r(W) < R``, the virtual reordering
of the started job ``ι``, the bulk jump of a lone oversized job) is pure
integer arithmetic and the returned makespan equals
:func:`repro.core.unit.schedule_unit`'s **exactly**, on every rational
input.

Used by the bin-packing pipeline (each time step = one bin, Corollary 3.9)
for large item counts where the Fraction scheduler is too slow.  The step
loop itself lives in :class:`repro.engine.policies.UnitWindowPolicy`
(near-linear in ``n``, see ``docs/ALGORITHM.md``); this module keeps the
historical names and input validation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Tuple

from ..engine import api as _engine
from ..numeric import Number, ceil_frac, to_fraction

__all__ = ["int_unit_makespan", "int_pack_bins"]


def int_unit_makespan(
    requirements: Sequence[Number], m: int, budget: Number = 1
) -> int:
    """Makespan of the m-maximal-window unit-size algorithm, exact int mode.

    *requirements* are the unit jobs' ``r_j`` values (any order, any
    rational type accepted by :func:`repro.numeric.to_fraction`).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    b = to_fraction(budget)
    if b <= 0:
        raise ValueError("budget must be positive")
    reqs = [to_fraction(r) for r in requirements]
    if any(r <= 0 for r in reqs):
        raise ValueError("requirements must be positive")
    if not reqs:
        return 0
    return _engine.unit_makespan(reqs, m, b, backend="int")


def int_pack_bins(
    sizes: Sequence[Number], k: int
) -> Tuple[int, Dict[str, int]]:
    """Bin count for splittable-item packing, exact int mode (Cor. 3.9 view).

    Returns ``(bins, info)`` where ``info`` carries the exact volume and
    cardinality lower bounds (cf. ``repro.binpacking.packing_lower_bound``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    szs = [to_fraction(s) for s in sizes]
    bins = int_unit_makespan(szs, k) if szs else 0
    total = sum(szs, Fraction(0))
    parts = sum(max(1, ceil_frac(s)) for s in szs)
    info = {
        "volume_lb": ceil_frac(total) if szs else 0,
        "cardinality_lb": -((-parts) // k) if szs else 0,
    }
    return bins, info

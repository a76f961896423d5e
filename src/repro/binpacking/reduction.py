"""The Corollary 3.9 reduction between unit-size SRJ and bin packing.

*Items → jobs*: an item of size ``s`` becomes a unit-size job with resource
requirement ``r = s``; the cardinality constraint ``k`` becomes the number
of processors ``m``.  *Time steps → bins*: the resource share a job receives
in step ``t`` is the part of the item placed into bin ``t``.

The reduction direction used by the algorithm is items→jobs→schedule→packing;
the packing inherits validity from schedule feasibility (each step hands out
total resource ≤ 1 to ≤ m jobs).  Note the schedule is non-preemptive while
the packing problem allows arbitrary (preemptive) splits — the reduction
therefore only *loses* generality, which is fine for an upper bound
(Corollary 3.9: the preemptive relaxation removes a constraint, and the
lower bounds are preemption-proof).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence

from ..core.instance import Instance
from ..engine.trace import SRJResult
from .item import Item
from .packing import Bin, Packing


def items_to_instance(items: Sequence[Item], k: int) -> Instance:
    """Items of sizes ``s_i`` become unit-size jobs with ``r_j = s_i``.

    The canonical job order sorts by requirement; ``Instance.original_ids``
    maps canonical job ids back to item ids.
    """
    return Instance.from_requirements(
        m=k, requirements=[it.size for it in items]
    )


def result_to_packing(
    items: Sequence[Item], k: int, result: SRJResult
) -> Packing:
    """Convert a unit-size SRJ schedule into a packing (step ``t`` = bin ``t``).

    Job ids are mapped back to the original item ids via the instance's
    ``original_ids``.  Each run's parts are built once from its integer
    shares (zero shares dropped), one Fraction per distinct value, and
    each of its bins gets its own copy.
    """
    packing = Packing(items=list(items), k=k)
    orig = result.instance.original_ids
    bins = packing.bins
    exact: Dict[int, Dict[int, Fraction]] = {}  # scale -> share -> Fraction
    for run in result.trace:
        scale = run.scale
        known = exact.setdefault(scale, {})
        parts = {}
        for job_id, u in run.units.items():
            if u > 0:
                part = known.get(u)
                if part is None:
                    part = known[u] = Fraction(u, scale)
                parts[orig[job_id]] = part
        bins.append(Bin(parts))
        bins.extend(Bin(dict(parts)) for _ in range(run.count - 1))
    # trim any empty trailing bins (defensive; the scheduler never emits them)
    while bins and not bins[-1].parts:
        bins.pop()
    return packing


def packing_guarantee(k: int, opt: int) -> int:
    """Corollary 3.9 upper bound on the number of bins:
    asymptotically ``(1 + 1/(k-1))·OPT``, concretely ``⌊k·OPT/(k-1)⌋ + 1``
    (the unit-size guarantee of Theorem 3.3 with ``m = k``)."""
    if k < 2:
        return opt
    return (k * opt) // (k - 1) + 1

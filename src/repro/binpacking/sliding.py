"""Sliding-window packer — the paper's algorithm applied to bin packing.

This is the Corollary 3.9 pipeline: items → unit-size SRJ instance →
:class:`~repro.core.unit.UnitSizeScheduler` (m-maximal windows) → packing.
Asymptotic approximation ratio ``1 + 1/(k-1)``, running time ``O((k+n)·n)``.
"""

from __future__ import annotations

from typing import Sequence

from ..core.unit import UnitSizeScheduler
from .item import Item
from .packing import Packing
from .reduction import items_to_instance, result_to_packing


def pack_sliding_window(
    items: Sequence[Item], k: int, backend: str = "fraction"
) -> Packing:
    """Pack *items* into unit bins with cardinality constraint *k*.

    Returns a valid :class:`Packing`; the number of bins is at most
    ``(1 + 1/(k-1))·OPT + O(1)``.  ``backend`` selects the numeric backend
    of the underlying unit-size scheduler (``"int"``/``"auto"`` run the
    bit-identical scaled-integer fast path).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not items:
        return Packing(items=[], k=k)
    if k == 1:
        # no sharing possible: each bin holds one part; item of size s uses
        # ⌈s⌉ bins (this is optimal for k = 1)
        packing = Packing(items=list(items), k=1)
        from fractions import Fraction

        for it in items:
            remaining = it.size
            while remaining > 0:
                part = min(remaining, Fraction(1))
                packing.new_bin().add(it.id, part)
                remaining -= part
        return packing
    instance = items_to_instance(items, k)
    result = UnitSizeScheduler(instance, backend=backend).run()
    return result_to_packing(items, k, result)

"""Classic baselines for bin packing with splittable items and cardinality k.

* :func:`pack_next_fit` — the natural NextFit with splitting, in the spirit
  of Chung et al. [4] (3/2-asymptotic for k = 2) and the simple
  ``2 - 1/k``-type algorithms of Epstein & van Stee [7]: one open bin; fill
  it to capacity or to ``k`` parts, then move on.  Never revisits a bin.
* :func:`pack_next_fit_decreasing` / :func:`pack_next_fit_increasing` —
  NextFit after sorting.
* :func:`pack_first_fit_unsplit` — First-Fit that only splits items when
  unavoidable (size > 1); a deliberately weaker baseline showing the value
  of splitting.

These are the comparison points for experiment E3: for large ``k`` their
ratio tends to 2 while the sliding-window packer tends to 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .item import Item
from .packing import Packing


def pack_next_fit(
    items: Sequence[Item], k: int, order: Optional[Sequence[int]] = None
) -> Packing:
    """NextFit with splitting under cardinality constraint *k*.

    Processes items in the given *order* (positions into ``items``; default:
    input order).  The open bin is closed when it is full or holds ``k``
    parts; item remainders continue into fresh bins.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    packing = Packing(items=list(items), k=k)
    if not items:
        return packing
    sequence = [items[i] for i in order] if order is not None else list(items)
    current = packing.new_bin()
    for item in sequence:
        remaining = item.size
        while remaining > 0:
            capacity = Fraction(1) - current.load()
            if capacity <= 0 or current.cardinality() >= k:
                current = packing.new_bin()
                capacity = Fraction(1)
            part = min(remaining, capacity)
            current.add(item.id, part)
            remaining -= part
    # drop a trailing empty bin (possible when the last item exactly filled)
    while packing.bins and not packing.bins[-1].parts:
        packing.bins.pop()
    return packing


def pack_next_fit_decreasing(items: Sequence[Item], k: int) -> Packing:
    """NextFit on items sorted by non-increasing size."""
    order = sorted(range(len(items)), key=lambda i: items[i].size, reverse=True)
    return pack_next_fit(items, k, order)


def pack_next_fit_increasing(items: Sequence[Item], k: int) -> Packing:
    """NextFit on items sorted by non-decreasing size."""
    order = sorted(range(len(items)), key=lambda i: items[i].size)
    return pack_next_fit(items, k, order)


def pack_first_fit_unsplit(items: Sequence[Item], k: int) -> Packing:
    """First-Fit that avoids splitting where possible.

    Items of size ≤ 1 are placed whole into the first bin with room (load
    and cardinality); items of size > 1 are cut into unit chunks plus a
    remainder, each placed by the same rule.  This mirrors how a standard
    bin-packing heuristic would behave if splitting were an afterthought.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    packing = Packing(items=list(items), k=k)
    for item in items:
        remaining = item.size
        while remaining > 0:
            chunk = min(remaining, Fraction(1))
            placed = False
            for b in packing.bins:
                if b.cardinality() < k and b.load() + chunk <= 1:
                    b.add(item.id, chunk)
                    placed = True
                    break
            if not placed:
                packing.new_bin().add(item.id, chunk)
            remaining -= chunk
    return packing

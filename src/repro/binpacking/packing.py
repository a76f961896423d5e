"""Packing representation and feasibility validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List

from ..numeric import frac_sum
from .item import Item


@dataclass
class Bin:
    """One unit-capacity bin: item id -> part size placed here."""

    parts: Dict[int, Fraction] = field(default_factory=dict)

    def load(self) -> Fraction:
        return frac_sum(self.parts.values())

    def cardinality(self) -> int:
        return len(self.parts)

    def add(self, item_id: int, amount: Fraction) -> None:
        if amount <= 0:
            raise ValueError("part size must be positive")
        self.parts[item_id] = self.parts.get(item_id, Fraction(0)) + amount


@dataclass
class Packing:
    """A complete packing of *items* into bins under cardinality *k*."""

    items: List[Item]
    k: int
    bins: List[Bin] = field(default_factory=list)

    @property
    def num_bins(self) -> int:
        return len(self.bins)

    def new_bin(self) -> Bin:
        b = Bin()
        self.bins.append(b)
        return b

    def placed(self, item_id: int) -> Fraction:
        """Total amount of *item_id* placed across all bins."""
        return frac_sum(
            b.parts.get(item_id, Fraction(0)) for b in self.bins
        )

    def parts_of(self, item_id: int) -> List[int]:
        """Indices of bins containing a part of *item_id*."""
        return [i for i, b in enumerate(self.bins) if item_id in b.parts]

    def violations(self) -> List[str]:
        """All feasibility violations (empty list iff the packing is valid)."""
        out: List[str] = []
        sizes = {it.id: it.size for it in self.items}
        for i, b in enumerate(self.bins):
            if b.load() > 1:
                out.append(f"bin {i}: overfull (load {b.load()})")
            if b.cardinality() > self.k:
                out.append(
                    f"bin {i}: {b.cardinality()} parts exceed k={self.k}"
                )
            for item_id, amount in b.parts.items():
                if item_id not in sizes:
                    out.append(f"bin {i}: unknown item {item_id}")
                if amount <= 0:
                    out.append(f"bin {i}: non-positive part of item {item_id}")
        for it in self.items:
            got = self.placed(it.id)
            if got != it.size:
                out.append(f"item {it.id}: placed {got} of size {it.size}")
        return out

    def is_valid(self) -> bool:
        return not self.violations()

    def assert_valid(self) -> None:
        v = self.violations()
        if v:
            raise AssertionError(
                f"{len(v)} packing violation(s):\n  " + "\n  ".join(v)
            )


def waste(packing: Packing) -> Fraction:
    """Total unused capacity over all bins."""
    return frac_sum(Fraction(1) - b.load() for b in packing.bins)


def max_parts_per_item(packing: Packing) -> int:
    """Largest number of parts any single item was split into."""
    if not packing.items:
        return 0
    return max(len(packing.parts_of(it.id)) for it in packing.items)


def bins_sorted_by_load(packing: Packing) -> List[Fraction]:
    """Bin loads in non-increasing order (for analysis)."""
    return sorted((b.load() for b in packing.bins), reverse=True)

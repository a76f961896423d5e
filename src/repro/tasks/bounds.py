"""Lower bounds and guarantee formulas for SRT (Lemmas 4.3–4.7, Thm 4.8)."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from ..numeric import ceil_frac
from .model import Task, TaskInstance


def resource_order_lower_bound(tasks: Sequence[Task]) -> int:
    """Lemma 4.3 (a): order tasks by non-decreasing ``r(T)``; then
    ``OPT ≥ Σ_i ⌈Σ_{l≤i} r(T_l)⌉`` (the resource delivers ≤ 1 per step, and
    the exchange argument shows the sorted order minimizes the bound)."""
    ordered = sorted(t.total_requirement() for t in tasks)
    acc = Fraction(0)
    total = 0
    for r in ordered:
        acc += r
        total += ceil_frac(acc)
    return total


def count_order_lower_bound(tasks: Sequence[Task], m: int) -> int:
    """Lemma 4.3 (b): order tasks by non-decreasing ``|T|``; then
    ``OPT ≥ Σ_i ⌈Σ_{l≤i} |T_l| / m⌉`` (at most ``m`` jobs finish per
    step)."""
    ordered = sorted(t.n_jobs for t in tasks)
    acc = 0
    total = 0
    for c in ordered:
        acc += c
        total += -((-acc) // m)  # ceil(acc / m)
    return total


def srt_lower_bound(instance: TaskInstance) -> int:
    """``max`` of the two Lemma 4.3 bounds (both hold simultaneously)."""
    if not instance.tasks:
        return 0
    return max(
        resource_order_lower_bound(instance.tasks),
        count_order_lower_bound(instance.tasks, instance.m),
    )


def heavy_completion_bound(
    tasks_in_order: Sequence[Task], resource: Fraction
) -> List[int]:
    """Lemma 4.1 guarantee: ``f_i ≤ ⌈Σ_{l≤i} r(T_l) / R⌉`` for tasks
    processed in the given order with per-step resource *resource*."""
    out: List[int] = []
    acc = Fraction(0)
    for task in tasks_in_order:
        acc += task.total_requirement()
        out.append(ceil_frac(acc / resource))
    return out


def light_completion_bound(
    tasks_in_order: Sequence[Task], m: int
) -> List[int]:
    """Lemma 4.2 guarantee: ``f_i ≤ ⌈Σ_{l≤i} |T_l| / (m-1)⌉`` for tasks
    processed in the given order on *m* processors."""
    if m < 2:
        raise ValueError("light bound needs m >= 2")
    out: List[int] = []
    acc = 0
    for task in tasks_in_order:
        acc += task.n_jobs
        out.append(-((-acc) // (m - 1)))
    return out


def srt_guarantee_factor(m: int) -> Fraction:
    """The Theorem 4.8 multiplicative factor ``2 + 4/(m-3)`` (m ≥ 4)."""
    if m < 4:
        raise ValueError("the Theorem 4.8 guarantee needs m >= 4")
    return Fraction(2) + Fraction(4, m - 3)


def rounding_error_budget(k: int) -> float:
    """Upper bound on the additive o(1)-term's relative size (Lemma 4.7):
    the additive rounding losses ``q₁ + q₂ ≤ k`` contribute at most
    ``O(k^{-1/5})`` relative to OPT.  Returned as the explicit
    ``1/(k^{1/5} - 12)``-style envelope used in the lemma's proof (clamped
    to 1 for tiny k, where the envelope is vacuous)."""
    if k < 1:
        return 0.0
    denom = k ** 0.2 - 12.0
    if denom <= 0:
        return 1.0
    return min(1.0, 1.0 / denom)


def lemma_44_witness(xs: Sequence[Fraction], z: int) -> int:
    """Lemma 4.4's additive term ``q`` for the sequence *xs* and parameter
    *z*: the number of indices where rounding after scaling by
    ``z/⌊(z-1)/2⌋`` loses relative to scaling the rounded value.

    Used by the analysis layer to report the per-instance additive terms
    ``q₁, q₂`` of Lemmas 4.5/4.6.
    """
    if z < 3:
        raise ValueError("Lemma 4.4 needs z >= 3")
    factor = Fraction(z, (z - 1) // 2)
    q = 0
    for x in xs:
        err = ceil_frac(factor * x) - factor * ceil_frac(x)
        if err > 0:
            q += 1
    return q

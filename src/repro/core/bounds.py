"""Lower bounds on the optimal makespan — Equation (1) of the paper.

Two bounds hold for any schedule (preemptive or not):

* **Resource bound.** Every job must accumulate ``s_j`` resource and the
  system delivers at most 1 per step, so ``|OPT| ≥ ⌈Σ_j s_j⌉``.
* **Processor bound.** Job ``j`` must be split into at least ``⌈s_j/r_j⌉``
  parts and each part occupies a dedicated processor for one step, so
  ``|OPT| ≥ (1/m)·Σ_j ⌈s_j/r_j⌉`` (and, being an integer number of steps,
  ``≥ ⌈(1/m)·Σ_j ⌈s_j/r_j⌉⌉``).

Because both remain valid under preemption, they also lower-bound the bin
packing relaxation (Corollary 3.9).
"""

from __future__ import annotations

from fractions import Fraction

from ..numeric import ceil_frac
from .instance import Instance


def resource_lower_bound(instance: Instance) -> int:
    """``⌈s_0(J)⌉ = ⌈Σ_j s_j⌉`` — total-resource lower bound."""
    return ceil_frac(instance.total_work())


def processor_lower_bound(instance: Instance) -> int:
    """``⌈(1/m)·Σ_j ⌈s_j/r_j⌉⌉ = ⌈Σ_j p_j / m⌉`` — processor-steps lower
    bound (``s_j/r_j = p_j`` exactly, so it is integer arithmetic)."""
    return -(-instance.total_steps_lower() // instance.m)


def longest_job_lower_bound(instance: Instance) -> int:
    """``max_j ⌈s_j/min(r_j,1)⌉`` — a single job needs this many steps.

    Not stated in Equation (1) but trivially valid (the paper uses the
    related ``|OPT| ≥ ⌈p⌉`` bound inside the proof of Theorem 3.3); it is
    never weaker than the per-job part of the processor bound.
    """
    if instance.n == 0:
        return 0
    return max(job.min_steps for job in instance.jobs)


def makespan_lower_bound(instance: Instance) -> int:
    """Equation (1): ``max{⌈Σ s_j⌉, ⌈(1/m)Σ⌈s_j/r_j⌉⌉}``, plus the trivial
    longest-job bound."""
    if instance.n == 0:
        return 0
    return max(
        resource_lower_bound(instance),
        processor_lower_bound(instance),
        longest_job_lower_bound(instance),
    )


def fractional_load(instance: Instance) -> Fraction:
    """``Σ_j s_j`` without rounding — useful for analysis plots."""
    return instance.total_work()

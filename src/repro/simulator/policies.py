"""Policy adapters: the paper's algorithm and baselines as engine policies.

:class:`SlidingWindowPolicy` runs the engine's Listing-1 routine
(:func:`repro.engine.policies.window_step`) each step on the live state,
without the bulk horizon; the test suite asserts that running it through
the :class:`~repro.simulator.engine.SimulationEngine` reproduces the
step-exact ``solve_srj`` schedule share for share.

All policies here are *machine-condition aware*: they read the live
per-step budget from ``state.capacity`` (set by the engine when a fault
plan dips the resource) and the online processor count from
``state.available_processors()``.  On a fault-free machine both equal
the paper's constants (budget 1, ``m`` processors), so decisions are
unchanged.  When a dip squeezes started jobs below their running total,
the baselines throttle all started shares proportionally — exact in
Fractions — rather than violate the budget.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from ..core.state import SchedulerState
from ..engine.policies import window_step


def _machine(state: SchedulerState):
    """Live (budget, online processor count) for this step."""
    budget = getattr(state, "capacity", None)
    if budget is None:
        budget = Fraction(1)
    return budget, state.available_processors()


class SlidingWindowPolicy:
    """Listing 1 as an online policy (step-exact)."""

    def __init__(self, window_size: Optional[int] = None) -> None:
        self._window: List[int] = []
        self._window_size = window_size

    def decide(self, state: SchedulerState) -> Dict[int, Fraction]:
        budget, _online = _machine(state)
        size = (
            self._window_size
            if self._window_size is not None
            else max(state.instance.m - 1, 1)
        )
        decision, self._window = window_step(
            state, self._window, state.unfinished(), size, budget
        )
        return decision.shares


class ListSchedulingPolicy:
    """Garey–Graham style list scheduling (single resource).

    Every scheduled job receives its *full* requirement ``min(r_j, 1)``
    each step (their model has no partial allocations).  Started jobs
    continue; new jobs are admitted from the list while both a processor
    and the full requirement fit.  Approximation ratio ``3 - 3/m`` for a
    single resource (Section 1.2 of the paper).
    """

    def __init__(self, order: str = "input") -> None:
        if order not in ("input", "lpt", "spt", "largest_requirement"):
            raise ValueError(f"unknown order {order!r}")
        self.order = order

    def decide(self, state: SchedulerState) -> Dict[int, Fraction]:
        budget, online = _machine(state)
        shares: Dict[int, Fraction] = {}
        used = Fraction(0)
        procs = online
        for job_id in state.started_jobs():
            if procs <= 0:
                break  # crash-forced drop; the vetter permits exactly this
            full = min(
                state.instance.requirement(job_id),
                budget,
                state.remaining[job_id],
            )
            shares[job_id] = full
            used += full
            procs -= 1
        if used > budget:
            return _throttle(shares, used, budget)
        candidates = [
            j for j in state.unfinished() if not state.is_started(j)
        ]
        candidates.sort(key=self._key(state))
        for job_id in candidates:
            if procs <= 0:
                break
            full = min(state.instance.requirement(job_id), budget)
            if used + full <= budget:
                shares[job_id] = min(full, state.remaining[job_id])
                used += shares[job_id]
                procs -= 1
        return shares

    def _key(self, state: SchedulerState):
        inst = state.instance
        if self.order == "input":
            return lambda j: j
        if self.order == "lpt":
            return lambda j: (-inst.size(j), j)
        if self.order == "spt":
            return lambda j: (inst.size(j), j)
        return lambda j: (-inst.requirement(j), j)


class GreedyFillPolicy:
    """Naive greedy: continue started jobs, then start the largest-
    requirement jobs that still fit *fully* — no splitting, no windows.

    Wastes the resource gap that the paper's fracture mechanism fills; the
    ablation experiment E7 quantifies the cost.
    """

    def decide(self, state: SchedulerState) -> Dict[int, Fraction]:
        budget, online = _machine(state)
        shares: Dict[int, Fraction] = {}
        used = Fraction(0)
        procs = online
        for job_id in state.started_jobs():
            if procs <= 0:
                break  # crash-forced drop; the vetter permits exactly this
            full = min(
                state.instance.requirement(job_id),
                budget,
                state.remaining[job_id],
            )
            shares[job_id] = full
            used += full
            procs -= 1
        if used > budget:
            return _throttle(shares, used, budget)
        fresh = sorted(
            (j for j in state.unfinished() if not state.is_started(j)),
            key=lambda j: (-state.instance.requirement(j), j),
        )
        for job_id in fresh:
            if procs <= 0 or used >= budget:
                break
            full = min(state.instance.requirement(job_id), budget)
            if used + full <= budget:
                shares[job_id] = min(full, state.remaining[job_id])
                used += shares[job_id]
                procs -= 1
        if not shares and state.n_unfinished() > 0 and procs > 0:
            # nothing fits fully: admit the smallest-requirement job with a
            # partial share so the policy always progresses
            job_id = min(
                state.unfinished(), key=lambda j: state.instance.requirement(j)
            )
            shares[job_id] = min(
                budget, state.instance.requirement(job_id),
                state.remaining[job_id],
            )
        return shares


def _throttle(
    shares: Dict[int, Fraction], used: Fraction, budget: Fraction
) -> Dict[int, Fraction]:
    """Scale a share vector down to *budget* proportionally (exact)."""
    factor = Fraction(budget, used)
    return {j: s * factor for j, s in shares.items()}

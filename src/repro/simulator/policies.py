"""Policy adapters: the paper's algorithm and baselines as engine policies.

:class:`SlidingWindowPolicy` runs the engine's Listing-1 routine
(:func:`repro.engine.policies.window_step`) each step on the live state,
without the bulk horizon; the test suite asserts that running it through
the :class:`~repro.simulator.engine.SimulationEngine` reproduces the
step-exact ``solve_srj`` schedule share for share.

All policies here are *machine-condition aware*: each step they read the
live budget ``state.capacity`` and the online processor count
``state.available_processors()``, which the engine sets from the fault
plan's machine.  On a fault-free machine both equal the paper's
constants (budget 1, ``m`` processors), so decisions are unchanged.  All
three continue their started jobs with :func:`_continue_started`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..engine.policies import window_step
from ..engine.state import EngineState


def _continue_started(
    state: EngineState, started: List[int], budget: Fraction, online: int
) -> Tuple[Dict[int, Fraction], Fraction]:
    """Shares that continue the *started* jobs (ascending), and the part
    of *budget* they use.

    The first *online* started jobs in canonical order run (a crash can
    leave more started jobs than online processors; the engine releases
    the processors of the rest), each at ``min(r_j, budget)`` capped at
    ``s_j(t-1)``.  When those exceed *budget*, every share is throttled
    by one factor taken from the uncapped ``min(r_j, budget)`` and only
    then capped at ``s_j(t-1)``, so each throttled job still finishes;
    throttled jobs use the whole budget, so no other job starts.
    """
    remaining = state.remaining
    full = {j: min(state.req[j], budget) for j in started[:online]}
    shares = {j: min(s, remaining[j]) for j, s in full.items()}
    used = sum(shares.values(), Fraction(0))
    if used <= budget:
        return shares, used
    factor = budget / sum(full.values())
    return {j: min(s * factor, remaining[j]) for j, s in full.items()}, budget


class SlidingWindowPolicy:
    """Listing 1 as an online policy (step-exact).

    Listing 1 needs two processors (its window reserves one for the next
    job).  With one processor online the policy runs the jobs one at a
    time in canonical order, a started one first, each at
    ``min(r_j, budget)``, as ``solve_srj`` does at m = 1.  Otherwise the
    window holds at most the online processors less the reserved one
    (and at most *window_size*).  After the machine changes (a crash,
    restore or dip), the policy serves only its started jobs until they
    form a window for the new machine, then restarts the window from
    them.
    """

    def __init__(self, window_size: Optional[int] = None) -> None:
        #: the carried window; None until it (re)starts for the machine
        self._window: Optional[List[int]] = None
        self._window_size = window_size
        #: the (budget, online processors) the window was built for
        self._machine: Optional[Tuple[Fraction, int]] = None

    def decide(self, state: EngineState) -> Dict[int, Fraction]:
        budget, online = state.capacity, state.available_processors()
        if (budget, online) != self._machine:
            self._machine, self._window = (budget, online), None
        universe = state.unfinished()
        if online == 1:
            started = state.started_jobs()
            if started:
                return _continue_started(state, started, budget, 1)[0]
            return {universe[0]: min(state.req[universe[0]], budget)}
        size = online - 1
        if self._window_size is not None:
            size = min(self._window_size, size)
        if self._window is None:
            started = state.started_jobs()
            step = _restart(state, started, universe, size, budget)
            if step is None:
                return _continue_started(state, started, budget, online)[0]
        else:
            step = window_step(state, self._window, universe, size, budget)
        decision, self._window = step
        return decision.shares


def _restart(state: EngineState, started: List[int],
             universe: List[int], size: int, budget: Fraction):
    """Listing 1's step from a window of the *started* jobs, or None if
    they do not form one: the window grown from them must be a
    *size*-maximal job window (Definition 3.1, checked on the run's
    ledger at ``J(t-1)``).  With no job started this is Listing 1's first
    step."""
    check = state.ledger.window_faults
    if started and {"b", "c"} & set(check(started, size, budget)):
        return None  # window_step would raise
    step = window_step(state, started, universe, size, budget)
    if started and check(step[0].window, size, budget):
        return None
    return step


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

    def decide(self, state: EngineState) -> Dict[int, Fraction]:
        budget, online = state.capacity, state.available_processors()
        remaining = state.remaining
        shares, used = _continue_started(
            state, state.started_jobs(), budget, online
        )
        fresh = [j for j in state.unfinished() if not state.is_started(j)]
        procs = online - len(shares)
        fresh.sort(key=self._key(state))
        for job_id in fresh:
            if procs <= 0 or used >= budget:
                break
            full = min(state.req[job_id], budget)
            if used + full <= budget:
                shares[job_id] = min(full, remaining[job_id])
                used += shares[job_id]
                procs -= 1
        return shares

    def _key(self, state: EngineState):
        inst = state.instance
        if self.order == "input":
            return lambda j: j
        if self.order == "lpt":
            return lambda j: (-inst.size(j), j)
        if self.order == "spt":
            return lambda j: (inst.size(j), j)
        units = inst.units  # r_j·L: the requirement order, in integers
        return lambda j: (-units[j], j)


class GreedyFillPolicy(ListSchedulingPolicy):
    """Naive greedy: continue started jobs, then start the largest-
    requirement jobs that still fit *fully* — no splitting, no windows
    (list scheduling in largest-requirement order).  When nothing fits
    fully, the smallest-requirement job starts with a partial share so
    the policy always progresses.

    Wastes the resource gap that the paper's fracture mechanism fills; the
    ablation experiment E7 quantifies the cost.
    """

    def __init__(self) -> None:
        super().__init__("largest_requirement")

    def decide(self, state: EngineState) -> Dict[int, Fraction]:
        shares = super().decide(state)
        if not shares:
            job_id = min(state.unfinished(),
                         key=state.instance.units.__getitem__)
            shares[job_id] = min(
                state.capacity, state.req[job_id], state.remaining[job_id]
            )
        return shares

"""The engine step loop: repeatedly ask a policy for a decision, apply it.

This is the single driver behind every scheduler layer in the repo
(core SRJ sliding window, unit-size variant, sequential SRT engine,
online arrival model, fixed-assignment queues, and the vetting
simulator).  A *policy* is any object with a ``decide(state)`` method
returning a :class:`StepDecision`; the loop itself is representation
agnostic and contains no arithmetic beyond the iteration guard (the
``hotpath-exact`` lint rule enforces this, ``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class StepDecision:
    """One policy decision: a share vector applied for *count* steps.

    ``waste`` and ``used`` live in the working domain of the engine state's
    numeric context; ``waste`` defaults to the neutral 0, which is exact in
    every backend.  ``window`` is the trace's window annotation (job keys
    for window schedulers, task ids for the SRT engine).  Policies that
    manage processors themselves set ``assign_processors=False``.
    """

    shares: Dict
    count: int = 1
    case: str = ""
    window: List = field(default_factory=list)
    waste: object = 0
    full_jobs_step: bool = False
    full_resource_step: bool = False
    used: object = None
    assign_processors: bool = True


class Policy:
    """Protocol-by-convention: anything with ``decide(state)``."""

    def decide(self, state) -> StepDecision:  # pragma: no cover - interface
        raise NotImplementedError


def run_loop(
    state,
    policy,
    max_iters: int,
    cap_error: Callable[[], Exception],
    observer=None,
    step_limit: Optional[int] = None,
) -> None:
    """Drive *policy* over *state* until no unfinished job remains.

    Raises the exception built by ``cap_error()`` after *max_iters*
    decisions — a generous guard that catches non-termination bugs instead
    of hanging.

    *observer* (a :class:`repro.obs.Observer`, duck-typed) receives
    ``on_decision(state, decision)`` after every applied decision — i.e.
    once per run-length-encoded trace run, not per time step.  The
    un-observed path is kept as a separate loop so installing no observer
    costs nothing (the dispatch overhead of an installed no-op observer is
    gated by ``benchmarks/bench_obs_overhead.py``).

    *step_limit* stops the run after exactly that many time steps (the
    fault-tolerant runner's segment horizon): the final bulk decision is
    truncated to land on the limit.  Truncating is safe because the loop
    exits immediately afterwards — the policy's internal bookkeeping is
    never consulted again.  The bounded variant is a separate loop so the
    unbounded hot path stays comparison-free.
    """
    guard = 0
    if step_limit is not None:
        on_decision = observer.on_decision if observer is not None else None
        while state.unfinished_count and state.t < step_limit:
            guard += 1
            if guard > max_iters:
                raise cap_error()
            decision = policy.decide(state)
            room = step_limit - state.t
            if decision.count > room:
                decision.count = room
            state.apply_decision(decision)
            if on_decision is not None:
                on_decision(state, decision)
        return
    if observer is None:
        while state.unfinished_count:
            guard += 1
            if guard > max_iters:
                raise cap_error()
            state.apply_decision(policy.decide(state))
        return
    # hoisted bound methods: the observed loop must stay within 5% of the
    # bare one with a no-op observer installed (bench_obs_overhead gate)
    decide = policy.decide
    apply_decision = state.apply_decision
    on_decision = observer.on_decision
    while state.unfinished_count:
        guard += 1
        if guard > max_iters:
            raise cap_error()
        decision = decide(state)
        apply_decision(decision)
        on_decision(state, decision)

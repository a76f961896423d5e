"""Nonlinear resource response — robustness study (extension).

The paper models a *linear* efficiency decrease: a job given share
``R ≤ r_j`` completes ``R / r_j`` volume per step, and calls this "a first
step towards such a scalable resource model".  Real resources respond
nonlinearly (e.g. TCP throughput vs bandwidth share, cache hit curves), so
experiment E13 asks: how robust is the window algorithm when progress is
actually ``g(R / r_j)`` for a concave or convex ``g``?

This module provides a small float-based simulator for the generalized
progress model (the exact-Fraction machinery does not apply — progress is
no longer additive in the resource), response-curve constructors, and two
policies: the paper's window algorithm (computed as if the response were
linear) and a full-allocation list scheduler (which is response-agnostic:
it always grants full requirements, so nonlinearity never bites it).

With concave ``g`` (``g(x) ≥ x``), partial allocations are *more*
productive than the linear model assumes — the window algorithm's bound
carries over.  With convex ``g`` (``g(x) ≤ x``), partial allocations are
penalized; E13 measures how quickly the advantage erodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

#: a response curve: maps the satisfied fraction x = R/r in [0,1] to the
#: per-step progress fraction in [0,1]; must satisfy g(0)=0, g(1)=1 and be
#: non-decreasing
ResponseCurve = Callable[[float], float]


def linear_response(x: float) -> float:
    """The paper's model: progress equals the satisfied fraction."""
    return x


def make_power_response(beta: float) -> ResponseCurve:
    """``g(x) = x^beta`` — concave for beta < 1, convex for beta > 1."""
    if beta <= 0:
        raise ValueError("beta must be positive")

    def g(x: float) -> float:
        return x ** beta

    g.__name__ = f"power_{beta}"
    return g


def make_threshold_response(threshold: float) -> ResponseCurve:
    """Progress only above a minimum share fraction (hard floor):
    ``g(x) = 0`` for ``x < threshold``, else linear re-scaled to hit 1 at 1.
    Models resources that are useless below a granularity (e.g. a minimum
    flow rate)."""
    if not 0 <= threshold < 1:
        raise ValueError("threshold must be in [0, 1)")

    def g(x: float) -> float:
        if x < threshold:
            return 0.0
        if threshold >= 1.0:
            return 1.0
        return (x - threshold) / (1.0 - threshold)

    g.__name__ = f"threshold_{threshold}"
    return g


RESPONSES: Dict[str, ResponseCurve] = {
    "linear": linear_response,
    "concave(0.5)": make_power_response(0.5),
    "mild-convex(1.5)": make_power_response(1.5),
    "convex(2)": make_power_response(2.0),
    "threshold(0.25)": make_threshold_response(0.25),
}


@dataclass
class NLJob:
    """A job in the nonlinear simulator (floats throughout)."""

    id: int
    size: float
    requirement: float

    def __post_init__(self) -> None:
        if self.size <= 0 or self.requirement <= 0:
            raise ValueError("size and requirement must be positive")


@dataclass
class NLResult:
    makespan: int
    completion_times: Dict[int, int] = field(default_factory=dict)


_EPS = 1e-9


def simulate_nonlinear(
    jobs: Sequence[NLJob],
    m: int,
    response: ResponseCurve,
    policy: str = "window",
    max_steps: int = 1_000_000,
) -> NLResult:
    """Run *policy* under the generalized progress model.

    Policies:

    * ``"window"`` — each step, serve unfinished jobs in non-decreasing
      requirement order with full requirements while resource and
      processors last; the last admitted job gets the leftover as a partial
      share (the window algorithm's per-step shape, computed linearly);
    * ``"full_only"`` — list scheduling: only full allocations
      (``min(r, 1)``); immune to the response curve by construction.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if policy not in ("window", "full_only"):
        raise ValueError(f"unknown policy {policy!r}")
    progress = {job.id: 0.0 for job in jobs}
    order = sorted(jobs, key=lambda j: (j.requirement, j.id))
    alive: List[NLJob] = list(order)
    completion: Dict[int, int] = {}
    t = 0
    while alive:
        t += 1
        if t > max_steps:
            raise RuntimeError("nonlinear simulator exceeded max_steps")
        budget = 1.0
        slots = m
        finished: List[int] = []
        for job in alive:
            if slots <= 0 or budget <= _EPS:
                break
            full = min(job.requirement, 1.0)
            share = min(full, budget)
            if policy == "full_only" and share < full - _EPS:
                break  # no partial allocations in list scheduling
            budget -= share
            slots -= 1
            x = min(share / job.requirement, 1.0)
            progress[job.id] += response(x)
            if progress[job.id] >= job.size - _EPS:
                finished.append(job.id)
        if not finished and budget > 1.0 - _EPS:
            raise RuntimeError("nonlinear simulator made no progress")
        if finished:
            done = set(finished)
            alive = [j for j in alive if j.id not in done]
            for jid in finished:
                completion[jid] = t
    return NLResult(makespan=t, completion_times=completion)


def nonlinear_lower_bound(jobs: Sequence[NLJob], m: int) -> int:
    """Progress-rate lower bound, valid for any non-decreasing response
    with ``g(1) = 1``: a job finishes at most one volume unit per step, so
    ``max(⌈Σ p_j / m⌉, max_j ⌈p_j⌉)`` steps are needed; for concave g the
    linear resource bound ``⌈Σ s_j⌉`` also remains valid."""
    if not jobs:
        return 0
    total = sum(job.size for job in jobs)
    return max(
        math.ceil(total / m - _EPS),
        max(math.ceil(job.size - _EPS) for job in jobs),
    )

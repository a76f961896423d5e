# lint: ok-exact-no-float file — MILP objective is float-valued by design
# (scipy milp); completion times are integral and certified exactly
"""Exact SRT: minimize ``Σ f_i`` via MILP (small instances, experiment E5).

Extends the SRJ feasibility formulation (:mod:`repro.exact.milp`) with task
completion variables: ``f_i ≥ t · run[j,t]`` for every job ``j ∈ T_i`` and
step ``t``, objective ``min Σ f_i``.  Jobs are unit size (the Section 4
model); per-job contiguity and the shared-resource/processor constraints
are as in the SRJ MILP.

Only practical for ~8 jobs over ~8 steps, which is exactly what measuring
the true approximation ratio of the Theorem 4.8 algorithm needs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix, vstack

from ..exact.milp import ExactSolverError
from .model import TaskInstance
from .scheduler import schedule_tasks

_EPS = 1e-7


def solve_srt_exact(
    instance: TaskInstance,
    horizon: Optional[int] = None,
    max_jobs: int = 10,
    max_horizon: int = 12,
) -> int:
    """Minimal sum of task completion times within a step horizon.

    *horizon* defaults to the split algorithm's makespan plus two slack
    steps.  Note the result is the **horizon-restricted optimum**: a
    Σf-optimal schedule could in principle stretch beyond the horizon
    (sacrificing makespan for earlier small-task completions), so the
    returned value upper-bounds the true optimum and lower-bounds every
    actual schedule within the horizon; for the small instances this solver
    targets, the slack makes the restriction vacuous in practice, and the
    Lemma 4.3 lower bound brackets it from below either way.
    """
    jobs: List = []  # (task index, requirement)
    for ti_idx, task in enumerate(instance.tasks):
        for r in task.requirements:
            jobs.append((ti_idx, r))
    n = len(jobs)
    k = instance.k
    if n == 0:
        return 0
    if n > max_jobs:
        raise ExactSolverError(
            f"{n} jobs exceed max_jobs={max_jobs}; the exact SRT solver is "
            "for small instances only"
        )
    if horizon is None:
        from .baselines import schedule_tasks_fifo

        horizon = min(
            schedule_tasks(instance).makespan,
            schedule_tasks_fifo(instance).makespan,
        ) + 2
    if horizon > max_horizon:
        raise ExactSolverError(
            f"horizon {horizon} exceeds max_horizon={max_horizon}"
        )
    m, T = instance.m, horizon
    nx = n * T
    nv = 2 * nx + k  # x, run, f

    def xi(j: int, t: int) -> int:
        return j * T + t

    def ri(j: int, t: int) -> int:
        return nx + j * T + t

    def fi(i: int) -> int:
        return 2 * nx + i

    rows, lbs, ubs = [], [], []

    def add_row(cols, vals, lo, hi):
        row = lil_matrix((1, nv))
        for c, v in zip(cols, vals):
            row[0, c] = v
        rows.append(row)
        lbs.append(lo)
        ubs.append(hi)

    caps = [float(min(r, 1)) for _, r in jobs]
    for j in range(n):
        for t in range(T):
            add_row([xi(j, t), ri(j, t)], [1.0, -caps[j]], -np.inf, 0.0)
    for j, (_ti, r) in enumerate(jobs):
        add_row(
            [xi(j, t) for t in range(T)],
            [1.0] * T,
            float(r) - _EPS,
            np.inf,
        )
    for t in range(T):
        add_row([xi(j, t) for j in range(n)], [1.0] * n, -np.inf, 1.0 + _EPS)
        add_row([ri(j, t) for j in range(n)], [1.0] * n, -np.inf, float(m))
    for j in range(n):
        for t1 in range(T):
            for t3 in range(t1 + 2, T):
                for t2 in range(t1 + 1, t3):
                    add_row(
                        [ri(j, t1), ri(j, t2), ri(j, t3)],
                        [1.0, -1.0, 1.0],
                        -np.inf,
                        1.0,
                    )
    # completion: f_i >= (t+1) * run[j,t]   (steps are 1-indexed)
    for j, (ti_idx, _r) in enumerate(jobs):
        for t in range(T):
            add_row(
                [fi(ti_idx), ri(j, t)], [1.0, -(t + 1.0)], 0.0, np.inf
            )
    a = vstack([r.tocsr() for r in rows], format="csr")
    c = np.zeros(nv)
    for i in range(k):
        c[fi(i)] = 1.0
    integrality = np.concatenate(
        [np.zeros(nx), np.ones(nx), np.zeros(k)]
    )
    bounds = Bounds(
        lb=np.zeros(nv),
        ub=np.concatenate(
            [
                np.array(caps).repeat(T),
                np.ones(nx),
                np.full(k, float(T)),
            ]
        ),
    )
    res = milp(
        c=c,
        constraints=LinearConstraint(a, np.array(lbs), np.array(ubs)),
        integrality=integrality,
        bounds=bounds,
    )
    if not res.success:
        # everything fits within the split algorithm's makespan, so a
        # failure here means the horizon cap bit; report it clearly
        raise ExactSolverError(
            f"SRT MILP infeasible/failed at horizon {T}: {res.message}"
        )
    return int(round(res.fun))

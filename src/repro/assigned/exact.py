"""Exact makespan for the fixed-assignment model via MILP (HiGHS).

Counterpart of :mod:`repro.exact.milp` for the Brinkmann-et-al. substrate:
per-processor one-job-at-a-time binaries plus precedence ("the queue
predecessor must be fully served before you receive anything") replace the
free model's contiguity constraints.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix, vstack

from ..exact.milp import ExactSolverError
from .model import AssignedInstance, assigned_lower_bound
from .scheduler import schedule_assigned

_EPS = 1e-7


def assigned_feasible_in(instance: AssignedInstance, horizon: int) -> bool:
    """Can the fixed-assignment instance finish within *horizon* steps?"""
    jobs = instance.jobs()
    n, T = len(jobs), horizon
    if n == 0:
        return True
    if T <= 0:
        return False
    index = {job.key: j for j, job in enumerate(jobs)}
    nx = n * T
    nv = 2 * nx  # x then z

    def xi(j: int, t: int) -> int:
        return j * T + t

    def zi(j: int, t: int) -> int:
        return nx + j * T + t

    rows: List[lil_matrix] = []
    lbs: List[float] = []
    ubs: List[float] = []

    def add_row(cols, vals, lo, hi):
        row = lil_matrix((1, nv))
        for c, v in zip(cols, vals):
            row[0, c] = v
        rows.append(row)
        lbs.append(lo)
        ubs.append(hi)

    caps = [float(min(job.requirement, 1)) for job in jobs]
    # x <= cap * z
    for j in range(n):
        for t in range(T):
            add_row([xi(j, t), zi(j, t)], [1.0, -caps[j]], -np.inf, 0.0)
    # coverage
    for j, job in enumerate(jobs):
        add_row(
            [xi(j, t) for t in range(T)],
            [1.0] * T,
            float(job.total_requirement) - _EPS,
            np.inf,
        )
    # shared resource
    for t in range(T):
        add_row([xi(j, t) for j in range(n)], [1.0] * n, -np.inf, 1.0 + _EPS)
    # one job per processor per step
    for i, queue in enumerate(instance.queues):
        if not queue:
            continue
        for t in range(T):
            add_row(
                [zi(index[job.key], t) for job in queue],
                [1.0] * len(queue),
                -np.inf,
                1.0,
            )
    # precedence: s_k * z_{k+1,t} <= sum_{t'<t} x_{k,t'}
    for queue in instance.queues:
        for k in range(len(queue) - 1):
            pred = index[queue[k].key]
            succ = index[queue[k + 1].key]
            s_pred = float(queue[k].total_requirement)
            for t in range(T):
                cols = [zi(succ, t)] + [xi(pred, t2) for t2 in range(t)]
                vals = [s_pred] + [-1.0] * t
                add_row(cols, vals, -np.inf, _EPS)

    a = vstack([r.tocsr() for r in rows], format="csr")
    constraint = LinearConstraint(a, np.array(lbs), np.array(ubs))
    integrality = np.concatenate([np.zeros(nx), np.ones(nx)])
    bounds = Bounds(
        lb=np.zeros(nv),
        ub=np.concatenate([np.array(caps).repeat(T), np.ones(nx)]),
    )
    res = milp(
        c=np.zeros(nv),
        constraints=constraint,
        integrality=integrality,
        bounds=bounds,
    )
    if res.status == 4:
        raise ExactSolverError(f"HiGHS failure: {res.message}")
    return bool(res.success)


def solve_assigned_exact(
    instance: AssignedInstance,
    upper_bound: Optional[int] = None,
    max_horizon: int = 30,
) -> Tuple[int, int]:
    """Optimal fixed-assignment makespan; returns ``(opt, lower_bound)``."""
    lb = assigned_lower_bound(instance)
    if instance.n == 0:
        return 0, 0
    if upper_bound is None:
        upper_bound = schedule_assigned(instance).makespan
    if upper_bound > max_horizon:
        raise ExactSolverError(
            f"upper bound {upper_bound} exceeds max_horizon={max_horizon}"
        )
    for T in range(lb, upper_bound + 1):
        if assigned_feasible_in(instance, T):
            return T, lb
    raise ExactSolverError(
        f"no feasible horizon in [{lb}, {upper_bound}]"
    )

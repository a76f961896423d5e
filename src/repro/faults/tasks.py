"""Fault-tolerant execution of SRT task sets (Section 4 model).

``run_tasks_with_faults`` mirrors :func:`repro.faults.runner.run_with_faults`
for the sequential task engine (Listings 3/4): the timeline is cut at
fault boundaries, and between boundaries the residual jobs are re-run
through :func:`repro.tasks.sequential.run_sequential` on the surviving
processors at the dipped capacity.

Semantics under faults:

* ``abort`` cancels the *whole task* (the task model's objective is the
  completion of the last job, so a cancelled job makes the task moot);
* a partially-processed unit job re-enters the next segment as a job
  whose requirement is its residual volume — exact, but note this
  changes the job's ``r_j`` used for ordering, a deliberate modelling
  choice documented in docs/ROBUSTNESS.md;
* tasks are re-ordered at each boundary by non-decreasing residual
  ``r(T)`` (the Listing-3 order applied to what is left).

The fault-free comparison uses :func:`repro.tasks.scheduler.schedule_tasks`
(the Theorem 4.8 split); the degradation ratio is on the sum of
completion times, the SRT objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..numeric import frac_sum
from ..obs import setup_observer
from ..tasks.model import Task, TaskInstance
from ..tasks.scheduler import schedule_tasks
from ..tasks.sequential import run_sequential
from .model import FaultEvent, FaultPlan, FaultRecoveryError, Machine

__all__ = ["FaultedTaskResult", "run_tasks_with_faults"]


@dataclass
class FaultedTaskResult:
    """Outcome of :func:`run_tasks_with_faults`."""

    instance: TaskInstance
    plan: FaultPlan
    backend: str
    makespan: int
    #: task id -> completion step (aborted tasks absent)
    completion_times: Dict[int, int]
    #: task id -> step the abort took effect
    aborted: Dict[int, int]
    #: (start, length, capacity, online processor count) per segment
    segments: List[Tuple[int, int, Fraction, int]]
    applied: List[Tuple[FaultEvent, bool]]
    #: fault-free sum of completion times (None if not computed)
    fault_free_sum: Optional[int] = None
    stats: object = field(default=None, repr=False, compare=False)

    def sum_completion_times(self) -> int:
        return sum(self.completion_times.values())

    @property
    def degradation(self) -> Optional[Fraction]:
        """Achieved-vs-fault-free ratio on the SRT objective."""
        if not self.fault_free_sum:
            return None
        return Fraction(self.sum_completion_times(), self.fault_free_sum)


def run_tasks_with_faults(
    instance: TaskInstance,
    plan: FaultPlan,
    backend: str = "auto",
    observer=None,
    collect_stats: bool = False,
    compare_fault_free: bool = True,
    max_segments: int = 100_000,
) -> FaultedTaskResult:
    """Execute the task set under *plan*; see the module docstring."""
    obs, metrics = setup_observer(observer, collect_stats, env=False)
    m = instance.m
    # residual volume per (task position, job index)
    residual: Dict[Tuple[int, int], Fraction] = {
        (ti, i): r
        for ti, task in enumerate(instance.tasks)
        for i, r in enumerate(task.requirements)
    }
    task_ids = [task.id for task in instance.tasks]
    completed: Dict[int, int] = {}
    aborted: Dict[int, int] = {}
    machine = Machine(plan, m)
    t = 0
    segments: List[Tuple[int, int, Fraction, int]] = []
    applied: List[Tuple[FaultEvent, bool]] = []

    def task_alive(ti: int) -> bool:
        if task_ids[ti] in aborted:
            return False
        k = len(instance.tasks[ti].requirements)
        return any(residual[(ti, i)] > 0 for i in range(k))

    def abort(ev: FaultEvent) -> bool:
        # abort cancels the whole task; the event's job field is a task id
        if ev.job not in task_ids:
            return False
        ti = task_ids.index(ev.job)
        if not task_alive(ti):
            return False
        for i in range(len(instance.tasks[ti].requirements)):
            residual[(ti, i)] = Fraction(0)
        aborted[ev.job] = t
        return True

    while True:
        applied += machine.advance(t, abort, obs, "faults-tasks")
        alive = [ti for ti in range(len(instance.tasks)) if task_alive(ti)]
        if not alive:
            break
        if len(segments) >= max_segments:
            raise FaultRecoveryError(
                f"fault runner exceeded {max_segments} segments"
            )
        horizon = machine.next_time()
        m_eff = m - len(machine.down)
        capacity = machine.capacity
        if machine.stall(t) is not None:
            segments.append((t, horizon - t, capacity, m_eff))
            t = horizon
            continue
        # Listing-3 order on the residual: non-decreasing residual r(T)
        ordered = sorted(
            alive,
            key=lambda ti: (
                frac_sum(
                    residual[(ti, i)]
                    for i in range(len(instance.tasks[ti].requirements))
                    if residual[(ti, i)] > 0
                ),
                task_ids[ti],
            ),
        )
        seg_tasks: List[Task] = []
        maps: Dict[int, List[int]] = {}
        for ti in ordered:
            idxs = [
                i
                for i in range(len(instance.tasks[ti].requirements))
                if residual[(ti, i)] > 0
            ]
            maps[ti] = idxs
            seg_tasks.append(
                Task(
                    id=ti,
                    requirements=tuple(residual[(ti, i)] for i in idxs),
                )
            )
        step_limit = None if horizon is None else horizon - t
        res = run_sequential(
            seg_tasks,
            m_eff,
            capacity,
            record_steps=True,
            backend=backend,
            observer=obs,
            step_limit=step_limit,
        )
        for run in res.trace:
            for (ti, ridx), share in run.shares.items():
                key = (ti, maps[ti][ridx])
                rem = residual[key] - run.count * share
                residual[key] = rem if rem > 0 else Fraction(0)
        for ti, ct in res.completion_times.items():
            completed[task_ids[ti]] = t + ct
        segments.append((t, res.makespan, capacity, m_eff))
        t += res.makespan

    fault_free = None
    if compare_fault_free:
        fault_free = schedule_tasks(
            instance, backend=backend
        ).sum_completion_times()
    return FaultedTaskResult(
        instance=instance,
        plan=plan,
        backend=backend,
        makespan=t,
        completion_times=completed,
        aborted=aborted,
        segments=segments,
        applied=applied,
        fault_free_sum=fault_free,
        stats=metrics,
    )

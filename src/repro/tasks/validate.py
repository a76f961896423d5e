"""Feasibility validation for SRT schedules (the Section-4 algorithms).

The combined Theorem 4.8 scheduler runs the heavy and light halves on
disjoint processor sets with resource allotments summing to at most 1.
Their recorded integer runs go through the model rules' one routine
(:mod:`repro.core.validate`), which sums every step from its shares: each
half within its own allotment (processors and resource), and the merged
steps, each the two halves' runs of that step at the LCM of their scales,
within ``m`` processors and resource 1.  The SRT end rules
follow: no zero shares, every job receives exactly its requirement within
one contiguous run of steps (non-preemption), and every recorded task
completion time (per half and merged) is the step the task's last job
finishes in.

Requires the scheduler to have been run with ``record_steps=True``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat, zip_longest
from typing import List, Mapping

from ..core.validate import _Ledger
from ..numeric import lcm_scaled
from .model import TaskInstance, TaskScheduleResult
from .partition import heavy_allotment, light_allotment


def validate_task_schedule(
    instance: TaskInstance, result: TaskScheduleResult
) -> List[str]:
    """Validate a Theorem 4.8 run; returns all violations (empty = valid).

    Needs ``schedule_tasks(instance, record_steps=True)`` output (the
    half-results are attached as ``heavy_result`` / ``light_result``).
    """
    halves = [
        (label, half, allotment(instance.m))
        for label, half, allotment in (
            ("heavy", getattr(result, "heavy_result", None), heavy_allotment),
            ("light", getattr(result, "light_result", None), light_allotment),
        )
        if half is not None
    ]
    if not halves:
        if result.algorithm == "srt-fallback-sequential":
            return ["fallback runs carry no recorded halves to validate"]
        return ["no recorded steps; run schedule_tasks(record_steps=True)"]
    violations: List[str] = []
    reqs = [((task.id, idx), r) for task in instance.tasks
            for idx, r in enumerate(task.requirements)]
    scale, units = lcm_scaled(r for _key, r in reqs)
    jobs = [(key, u, 1) for (key, _r), u in zip(reqs, units)]

    def completions(label: str, recorded: Mapping, ledger: _Ledger) -> None:
        for task in instance.tasks:
            if task.id in recorded:
                steps = [ledger.jobs[(task.id, idx)].finish
                         for idx in range(task.n_jobs)]
                actual = None if None in steps else max(steps)
                if recorded[task.id] != actual:
                    violations.append(
                        f"{label}task {task.id}: recorded completion "
                        f"{recorded[task.id]} != last finish step {actual}"
                    )

    for label, half, (m_alloc, budget) in halves:
        ledger = _Ledger(scale, jobs, violations)
        ledger.walk(
            ((run.units, run.scale, None, run.count) for run in half.trace),
            budget, range(m_alloc), f"{label} step {{t}}",
        )
        for key, job in ledger.jobs.items():
            gap = job.preempted()
            if gap is not None:
                violations.append(f"{label} job {key}: {gap}")
            if job.idle is not None:
                violations.append(
                    f"{label} step {job.idle}: job {key} non-positive share"
                )
        completions(f"{label} ", half.completion_times, ledger)

    def merged_steps():
        for runs in zip_longest(*(
            chain.from_iterable(repeat(run, run.count) for run in half.trace)
            for _label, half, _allotment in halves
        )):
            runs = [run for run in runs if run is not None]
            lcm = math.lcm(*(run.scale for run in runs))
            yield {j: u * (lcm // run.scale) for run in runs
                   for j, u in run.units.items()}, lcm, None, 1

    merged = _Ledger(scale, jobs, violations)
    merged.walk(merged_steps(), Fraction(1), range(instance.m),
                "merged step {t}")
    for (task_id, idx), r in reqs:
        got = merged.value(merged.jobs[(task_id, idx)].got)
        if got != r:
            violations.append(
                f"task {task_id} job {idx}: delivered {got} of {r}"
            )
    completions("", result.completion_times, merged)
    return violations

"""Weighted SRT — minimizing ``Σ w_i · f_i`` (extension beyond the paper).

Section 4 of the paper minimizes the plain sum of task completion times.
The weighted objective is the natural next step (users/applications have
priorities).  We provide:

* a rigorous lower bound via Smith's rule: for any schedule, the task
  finishing ``i``-th satisfies ``f_{π(i)} ≥ Σ_{l≤i} r(T_{π(l)})`` (the
  resource delivers at most 1 per step), hence

  ``Σ_i w_i f_i  ≥  min_σ Σ_i w_{σ(i)} · Σ_{l≤i} r(T_{σ(l)})``

  and the classic exchange argument shows the minimizing order sorts by
  ``r(T)/w`` (WSPT with resource mass as "processing time").  The
  count-based analogue divides by ``m``.  Both are implemented without
  ceilings, so they are slightly weaker than Lemma 4.3 but provably valid
  for any weights;
* weighted schedulers: the Section-4 split algorithm with each half
  ordered by ``r(T)/w`` (heavy) / ``|T|/w`` (light) instead of ``r(T)`` /
  ``|T|``, plus weighted variants of the baselines.

No approximation guarantee is claimed (the paper proves none for weights);
experiment E12 measures the empirical ratios.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence

from ..numeric import frac_sum
from ..tasks.model import Task, TaskInstance, TaskScheduleResult
from ..tasks.partition import heavy_allotment, light_allotment, partition_tasks
from ..tasks.sequential import run_sequential


def _validate_weights(
    instance: TaskInstance, weights: Dict[int, Fraction]
) -> Dict[int, Fraction]:
    out = {}
    for task in instance.tasks:
        w = weights.get(task.id)
        if w is None:
            raise ValueError(f"missing weight for task {task.id}")
        w = Fraction(w)
        if w <= 0:
            raise ValueError(f"weight of task {task.id} must be positive")
        out[task.id] = w
    return out


def weighted_sum(
    result: TaskScheduleResult, weights: Dict[int, Fraction]
) -> Fraction:
    """``Σ w_i f_i`` of a scheduling result."""
    return frac_sum(
        weights[tid] * f for tid, f in result.completion_times.items()
    )


# ---------------------------------------------------------------------------
# Lower bounds (Smith's rule)
# ---------------------------------------------------------------------------


def weighted_resource_lower_bound(
    tasks: Sequence[Task], weights: Dict[int, Fraction]
) -> Fraction:
    """``Σ_i w_i · (prefix resource mass)`` in ``r(T)/w`` order."""
    ordered = sorted(
        tasks, key=lambda t: (t.total_requirement() / weights[t.id], t.id)
    )
    acc = Fraction(0)
    total = Fraction(0)
    for task in ordered:
        acc += task.total_requirement()
        total += weights[task.id] * acc
    return total


def weighted_count_lower_bound(
    tasks: Sequence[Task], weights: Dict[int, Fraction], m: int
) -> Fraction:
    """``Σ_i w_i · (prefix job count)/m`` in ``|T|/w`` order."""
    ordered = sorted(
        tasks, key=lambda t: (Fraction(t.n_jobs) / weights[t.id], t.id)
    )
    acc = 0
    total = Fraction(0)
    for task in ordered:
        acc += task.n_jobs
        total += weights[task.id] * Fraction(acc, m)
    return total


def weighted_srt_lower_bound(
    instance: TaskInstance, weights: Dict[int, Fraction]
) -> Fraction:
    """Max of the two Smith-rule bounds."""
    if not instance.tasks:
        return Fraction(0)
    w = _validate_weights(instance, weights)
    return max(
        weighted_resource_lower_bound(instance.tasks, w),
        weighted_count_lower_bound(instance.tasks, w, instance.m),
    )


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------


def schedule_tasks_weighted(
    instance: TaskInstance, weights: Dict[int, Fraction], observer=None
) -> TaskScheduleResult:
    """Section-4 split scheduler with WSPT-style orders inside each half.

    ``observer=`` receives the engine events of every sequential run this
    scheduler performs (see :mod:`repro.obs`).
    """
    w = _validate_weights(instance, weights)
    m = instance.m
    if not instance.tasks:
        return TaskScheduleResult(
            instance=instance, completion_times={}, makespan=0,
            algorithm="weighted-split",
        )
    if m < 4:
        ordered = sorted(
            instance.tasks,
            key=lambda t: (t.total_requirement() / w[t.id], t.id),
        )
        res = run_sequential(
            ordered, m, Fraction(1), record_steps=False, observer=observer
        )
        return TaskScheduleResult(
            instance=instance,
            completion_times=res.completion_times,
            makespan=res.makespan,
            algorithm="weighted-fallback",
        )
    heavy, light = partition_tasks(instance)
    completion: Dict[int, int] = {}
    makespan = 0
    if heavy:
        m1, r1 = heavy_allotment(m)
        ordered = sorted(
            heavy, key=lambda t: (t.total_requirement() / w[t.id], t.id)
        )
        res = run_sequential(
            ordered, m1, r1, record_steps=False, observer=observer
        )
        completion.update(res.completion_times)
        makespan = max(makespan, res.makespan)
    if light:
        m2, r2 = light_allotment(m)
        ordered = sorted(
            light, key=lambda t: (Fraction(t.n_jobs) / w[t.id], t.id)
        )
        res = run_sequential(
            ordered, m2, r2, record_steps=False, observer=observer
        )
        completion.update(res.completion_times)
        makespan = max(makespan, res.makespan)
    return TaskScheduleResult(
        instance=instance,
        completion_times=completion,
        makespan=makespan,
        algorithm="weighted-split",
    )


def schedule_tasks_weight_oblivious(
    instance: TaskInstance, weights: Dict[int, Fraction], observer=None
) -> TaskScheduleResult:
    """Baseline: ignore the weights (the plain Theorem 4.8 scheduler)."""
    from ..tasks.scheduler import schedule_tasks

    _validate_weights(instance, weights)
    result = schedule_tasks(instance, observer=observer)
    result.algorithm = "weight-oblivious"
    return result


def random_weights(
    rng, instance: TaskInstance, lo: int = 1, hi: int = 10
) -> Dict[int, Fraction]:
    """Uniform integer weights in [lo, hi] (for experiments)."""
    return {t.id: Fraction(rng.randint(lo, hi)) for t in instance.tasks}

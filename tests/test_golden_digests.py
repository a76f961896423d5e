"""Golden digests of the Listing-1 paths (SRJ, the simulator, online) and
of the Listing-3/4 SRT engine.

Each digest hashes every observable output of a fixed, seeded corpus:
full RLE traces (shares, processors, counts, cases, windows), completion
times, step statistics and the collected telemetry counters.  The
Listing-1 values come from the three separate implementations that
preceded :func:`repro.engine.policies.window_step`, except that the
simulator value was re-recorded when its window policy began running
m = 1 machines serially (only the records of the corpus's five m = 1
instances changed; they had all raised); the SRT value comes from the
per-task window that preceded the SRT engine's use of
:class:`repro.engine.policies.UnitWindowPolicy`.  Any change to a decision
(or to an error message on the paths that raise) shows up here as a
digest mismatch.

The corpus covers:

* ``solve_srj`` on both backends, ``accelerate`` on and off, with the
  default window, ``enable_move=False`` and ``window_size=m-2``;
* the simulator's window policy with and without seeded
  ``FaultPlan.random`` plans (crashes, capacity dips, aborts);
* ``schedule_online`` on both backends;
* ``solve_srt`` on both backends (the four task-set families at m = 3–16,
  tasks of up to 60 jobs at m = 1–9, so the m < 4 fallback too) and
  ``run_sequential`` with budgets 1/3 and 7/5 at m ∈ {1, 2, 3}; each step's
  shares are hashed in emission order.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from repro.core.instance import Instance
from repro.engine.api import solve_srj
from repro.faults import FaultPlan
from repro.online import schedule_online
from repro.online.workload import poisson_like_instance
from repro.simulator import SimulationEngine, SlidingWindowPolicy
from repro.tasks import TaskInstance, run_sequential, solve_srt
from repro.workloads import make_taskset

SRJ_DIGEST = (
    "b765d2df368b62f765425ba8481ce91b84478748ff7e485c17a87c51a8c708b0"
)
SIMULATOR_DIGEST = (
    "1b3eaaeb0ba322bdf9a799d4379abe15aa26ac127ada9c0c206bb7634e17be2b"
)
ONLINE_DIGEST = (
    "88ac98baae8f440a0cee6a362d378e866140f00fd30793ac536080bf97d8a4c0"
)
SRT_DIGEST = (
    "6bd33c00f2ebac8c65235d5d930872ad5fa2db14d20c9ad5b56c8f66b5f10985"
)


def srj_corpus(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(1, 8)
        large = rng.random() < 0.25
        n = rng.randint(1, 40 if large else 14)
        reqs = [
            Fraction(rng.randint(1, 40), rng.randint(8, 24)) for _ in range(n)
        ]
        sizes = [rng.randint(1, 25 if large else 6) for _ in range(n)]
        out.append(Instance.from_requirements(m, reqs, sizes))
    return out


def _error(exc: Exception):
    return ("error", type(exc).__name__, str(exc))


def _stats_counters(stats):
    data = stats.to_jsonable()
    data["counters"] = {
        k: v
        for k, v in data["counters"].items()
        if not k.startswith("span_seconds")
    }
    return data


def _srj_record(inst, **kwargs):
    try:
        res = solve_srj(inst, **kwargs)
    except Exception as exc:  # the pinned paths include raising ones
        return _error(exc)
    record = (
        res.makespan,
        sorted(res.completion_times.items()),
        res.steps_full_jobs,
        res.steps_full_resource,
        str(res.total_waste),
        [
            (
                sorted((j, str(c)) for j, c in run.shares.items()),
                sorted(run.processors.items()),
                run.count,
                run.case,
                list(run.window),
            )
            for run in res.trace
        ],
    )
    if res.stats is not None:
        record += (_stats_counters(res.stats),)
    return record


def srj_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        variants = ({}, {"enable_move": False}, {"window_size": inst.m - 2})
        for backend in ("fraction", "int"):
            for accelerate in (True, False):
                for variant in variants:
                    rec = _srj_record(
                        inst, backend=backend, accelerate=accelerate,
                        **variant,
                    )
                    h.update(repr(rec).encode())
            rec = _srj_record(inst, backend=backend, collect_stats=True)
            h.update(repr(rec).encode())
    return h.hexdigest()


def _simulator_record(inst, plan, **kwargs):
    try:
        res = SimulationEngine(
            inst, SlidingWindowPolicy(**kwargs), fault_plan=plan,
            collect_stats=True,
        ).run()
    except Exception as exc:
        return _error(exc)
    return (
        res.makespan,
        sorted(res.completion_times.items()),
        sorted(res.aborted.items()),
        [
            [(p.job_id, p.processor, str(p.share)) for p in step.pieces]
            for step in res.schedule.steps
        ],
        _stats_counters(res.stats),
    )


def simulator_digest(instances, plan_seed: int) -> str:
    h = hashlib.sha256()
    for i, inst in enumerate(instances):
        plans = [None] + [
            FaultPlan.random(plan_seed + 7 * i + k, m=inst.m, n_jobs=inst.n,
                             horizon=40, events=6)
            for k in range(2)
        ]
        for plan in plans:
            rec = _simulator_record(inst, plan)
            h.update(repr(rec).encode())
        rec = _simulator_record(inst, None, window_size=max(inst.m - 2, 1))
        h.update(repr(rec).encode())
    return h.hexdigest()


def online_digest(seed: int, count: int) -> str:
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        inst = poisson_like_instance(
            rng, rng.randint(2, 8), rng.randint(1, 16),
            arrival_prob=rng.choice([0.2, 0.5, 0.9]),
        )
        for backend in ("fraction", "int"):
            try:
                res = schedule_online(inst, backend=backend,
                                      collect_stats=True)
                rec = (
                    res.makespan,
                    sorted(res.completion_times.items()),
                    [str(u) for u in res.utilization],
                    _stats_counters(res.stats),
                )
            except Exception as exc:
                rec = _error(exc)
            h.update(repr(rec).encode())
    return h.hexdigest()


def srt_corpus(seed: int):
    """Task sets of the four families at m = 3–16, then sets with tasks of
    up to 60 jobs (requirements up to 5/2, so some jobs span several
    steps) at m = 1–9."""
    rng = random.Random(seed)
    out = []
    for family in ("heavy", "light", "mixed", "cloud"):
        for m in (3, 4, 5, 6, 8, 11, 16):
            for _ in range(3):
                out.append(make_taskset(family, rng, m, rng.randint(1, 14)))
    for _ in range(40):
        den = rng.choice([24, 60, 120])
        out.append(TaskInstance.create(rng.randint(1, 9), [
            [Fraction(rng.randint(1, den * 5 // 2), den)
             for _ in range(rng.randint(1, 60))]
            for _ in range(rng.randint(1, 5))
        ]))
    return out


def _sequential_record(res):
    if res is None:
        return None
    return (
        list(res.completion_times.items()),
        res.makespan,
        [
            (
                tuple((key, str(v)) for key, v in step.shares.items()),
                str(step.resource_used),
                step.processors_used,
                list(step.tasks_packed),
            )
            for step in res.steps
        ],
    )


def srt_digest(instances) -> str:
    h = hashlib.sha256()
    for ti in instances:
        for backend in ("fraction", "int"):
            try:
                res = solve_srt(ti, backend=backend, record_steps=True,
                                collect_stats=True)
                rec = (
                    res.algorithm,
                    res.makespan,
                    list(res.completion_times.items()),
                    _sequential_record(getattr(res, "heavy_result", None)),
                    _sequential_record(getattr(res, "light_result", None)),
                    _stats_counters(res.stats),
                )
            except Exception as exc:
                rec = _error(exc)
            h.update(repr(rec).encode())
        if ti.m > 3:
            continue
        for budget in (Fraction(1, 3), Fraction(7, 5)):
            for backend in ("fraction", "int"):
                try:
                    rec = _sequential_record(run_sequential(
                        ti.tasks, ti.m, budget, backend=backend
                    ))
                except Exception as exc:
                    rec = _error(exc)
                h.update(repr(rec).encode())
    return h.hexdigest()


def test_srj_digest():
    assert srj_digest(srj_corpus(2017, 80)) == SRJ_DIGEST


def test_simulator_digest():
    assert simulator_digest(srj_corpus(3017, 50), 11) == SIMULATOR_DIGEST


def test_online_digest():
    assert online_digest(4017, 120) == ONLINE_DIGEST


def test_srt_digest():
    assert srt_digest(srt_corpus(5017)) == SRT_DIGEST

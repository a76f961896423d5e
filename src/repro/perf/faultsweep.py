"""Seeded fault-injection sweep: many instances x many fault plans.

This is the stress harness for the fault-tolerant runner
(:func:`repro.faults.run_with_faults`): each trial generates a workload
instance and a random :class:`~repro.faults.FaultPlan` from a per-trial
seed (:func:`repro.perf.parallel.seed_for`), executes the instance under
the plan on the scaled-integer backend, and validates the recovered
schedule with :func:`repro.faults.validate_faulted`.

The sweep runs on the experiment fabric (:mod:`repro.sweep`), which fans
trials out over the hardened :class:`repro.perf.WorkerPool` — and,
because every trial is a pure function of its parameters, the result
table is bit-identical for any worker count, shard count or cache state
(tested in ``tests/test_parallel_hardening.py`` and
``tests/test_sweep.py``).  With a cache directory, an enlarged sweep
(say 40 trials after 8) only solves the 32 new trials: the first 8 share
content addresses and come from the cache.

It is the registered report sweep ``faultsweep``::

    repro-sched sweep run faultsweep --scale small|full

whose summary counts the invalid trials and records ``passed``; the
command exits 1 if any trial produced an invalid recovered schedule.
"""

from __future__ import annotations

import random
from typing import Dict

from ..faults import FaultPlan, run_with_faults, validate_faulted
from ..sweep import SweepSpec
from ..workloads import make_instance
from .parallel import seed_for

__all__ = ["fault_trial", "faultsweep_spec"]

#: content-address salt; bump when the trial row schema changes
VERSION = "v1"


def fault_trial(params: Dict) -> Dict:
    """One sweep cell: build instance + plan from the seed, run, validate.

    *params* has keys ``family, m, n, seed, events, horizon``.  A pure
    module-level function of its parameters, so it pickles into pool
    workers and its result is content-addressable.
    """
    family, m, n = params["family"], params["m"], params["n"]
    seed, events, horizon = params["seed"], params["events"], params["horizon"]
    rng = random.Random(seed)
    instance = make_instance(family, rng, m, n)
    plan = FaultPlan.random(
        seed_for(seed, 1),
        m=m,
        n_jobs=n,
        horizon=horizon,
        events=events,
    )
    result = run_with_faults(instance, plan, backend="int")
    report = validate_faulted(result)
    degradation = result.degradation
    return {
        "seed": seed,
        "family": family,
        "m": m,
        "n": n,
        "events": len(plan),
        "applied": result.n_applied(),
        "makespan": result.makespan,
        "fault_free": result.fault_free_makespan,
        "degradation": None if degradation is None else str(degradation),
        "aborted": len(result.aborted),
        "segments": len(result.segments),
        "valid": report.ok,
        "violations": list(report.violations),
    }


def faultsweep_spec(
    family: str = "uniform",
    m: int = 4,
    n: int = 24,
    trials: int = 20,
    seed: int = 2026,
    events: int = 6,
    horizon: int = 200,
) -> SweepSpec:
    """The fault-injection sweep as a fabric spec (one point per trial)."""
    params_list = [
        {"family": family, "m": m, "n": n, "seed": seed_for(seed, i),
         "events": events, "horizon": horizon}
        for i in range(trials)
    ]
    return SweepSpec.from_points(
        "faultsweep", fault_trial, params_list, version=VERSION
    )

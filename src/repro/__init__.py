"""repro — reproduction of *Sharing is Caring: Multiprocessor Scheduling
with a Sharable Resource* (Kling, Mäcker, Riechers, Skopalik; SPAA 2017).

The package implements, from scratch:

* the SRJ ("SoS") model — ``m`` processors sharing one divisible resource,
  jobs with sizes and resource requirements, makespan objective
  (:mod:`repro.core`);
* the paper's sliding-window ``2 + 1/(m-2)``-approximation (Listing 1/2)
  with both a step-exact and an ``O((m+n)·n)`` accelerated implementation;
* the unit-size variant with asymptotic ratio ``1 + 1/(m-1)``;
* bin packing with splittable items and cardinality constraints, the
  reduction of Corollary 3.9, and classic baselines (:mod:`repro.binpacking`);
* the SRT ("SAS") task model of Section 4 with the Listing-3/Listing-4
  schedulers and the combined ``(2 + 4/(m-3)) + o(1)`` algorithm
  (:mod:`repro.tasks`);
* exact solvers (MILP / brute force) for measuring true optima on small
  instances (:mod:`repro.exact`);
* baselines, synthetic workload generators, a discrete-time execution
  simulator, and analysis utilities;
* fault tolerance — seeded failure injection (processor crashes, capacity
  dips, job aborts), checkpoint/recovery, and degradation reporting
  (:mod:`repro.faults`; see docs/ROBUSTNESS.md).

Quickstart::

    from repro import Instance, schedule_srj, makespan_lower_bound

    inst = Instance.from_requirements(
        m=4,
        requirements=[0.2, 0.5, 0.7, 1.2, 0.4],
        sizes=[3, 1, 2, 4, 2],
    )
    result = schedule_srj(inst)
    print(result.makespan, makespan_lower_bound(inst))
"""

from .core import (
    Instance,
    Job,
    Schedule,
    SRJResult,
    UnitSizeScheduler,
    assert_result_valid,
    assert_valid,
    make_job,
    makespan_lower_bound,
    schedule_srj,
    schedule_unit,
    validate_result,
    validate_schedule,
)
from .faults import (
    Checkpoint,
    FaultEvent,
    FaultPlan,
    recover,
    run_tasks_with_faults,
    run_with_faults,
    validate_faulted,
)
from .perf import solve_srj

__version__ = "1.0.0"

__all__ = [
    "Instance",
    "Job",
    "make_job",
    "Schedule",
    "SRJResult",
    "UnitSizeScheduler",
    "schedule_srj",
    "schedule_unit",
    "solve_srj",
    "makespan_lower_bound",
    "assert_valid",
    "assert_result_valid",
    "validate_schedule",
    "validate_result",
    "FaultEvent",
    "FaultPlan",
    "Checkpoint",
    "run_with_faults",
    "run_tasks_with_faults",
    "recover",
    "validate_faulted",
    "__version__",
]

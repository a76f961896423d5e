"""Property-style corpus tests for the fault-tolerant runners.

Seeded random instances crossed with seeded random fault plans; every
recovered schedule must validate and complete all non-aborted work, on
both numeric backends.  (Plain seeded loops rather than hypothesis so
the corpus is identical on every run and machine.)
"""

import random
from fractions import Fraction

from repro.faults import (
    FaultPlan,
    run_tasks_with_faults,
    run_with_faults,
    validate_faulted,
)
from repro.perf.parallel import seed_for
from repro.tasks import schedule_tasks
from repro.workloads import make_instance, make_taskset

FAMILIES = ("uniform", "bimodal", "heavy_tail")


def _cases(n_cases):
    for i in range(n_cases):
        seed = seed_for(20260806, i)
        family = FAMILIES[i % len(FAMILIES)]
        m = 2 + (i % 4)  # 2..5
        n = 6 + (i * 3) % 12
        yield i, seed, family, m, n


class TestRandomPlansSRJ:
    def test_recovered_schedules_validate_and_complete(self):
        for i, seed, family, m, n in _cases(12):
            inst = make_instance(family, random.Random(seed), m, n)
            plan = FaultPlan.random(
                seed_for(seed, 1), m=m, n_jobs=n, events=5 + i % 4
            )
            res = run_with_faults(inst, plan, backend="int")
            report = validate_faulted(res)
            assert report.ok, (i, report.violations)
            done = set(res.completion_times) | set(res.aborted)
            assert done == set(range(inst.n)), i

    def test_backends_agree_on_corpus(self):
        for i, seed, family, m, n in _cases(6):
            inst = make_instance(family, random.Random(seed), m, n)
            plan = FaultPlan.random(seed_for(seed, 1), m=m, n_jobs=n)
            a = run_with_faults(
                inst, plan, backend="fraction", compare_fault_free=False
            )
            b = run_with_faults(
                inst, plan, backend="int", compare_fault_free=False
            )
            assert a.makespan == b.makespan, i
            assert a.completion_times == b.completion_times, i
            assert [s.runs for s in a.segments] == [
                s.runs for s in b.segments
            ], i

    def test_checkpoint_resume_identity_on_corpus(self):
        for i, seed, family, m, n in _cases(6):
            inst = make_instance(family, random.Random(seed), m, n)
            plan = FaultPlan.random(seed_for(seed, 1), m=m, n_jobs=n)
            full = run_with_faults(inst, plan, compare_fault_free=False)
            for cp in full.checkpoints[:3]:
                resumed = run_with_faults(
                    inst,
                    plan,
                    from_checkpoint=cp,
                    compare_fault_free=False,
                )
                assert resumed.makespan == full.makespan, i
                assert (
                    resumed.completion_times == full.completion_times
                ), i

    def test_exactness_no_residual_dust(self):
        """Delivered volumes match s_j exactly — no epsilon leftovers."""
        for i, seed, family, m, n in _cases(8):
            inst = make_instance(family, random.Random(seed), m, n)
            plan = FaultPlan.random(
                seed_for(seed, 2), m=m, n_jobs=n, allow_aborts=False
            )
            res = run_with_faults(inst, plan, backend="int")
            delivered = {j: Fraction(0) for j in range(inst.n)}
            for seg in res.segments:
                for run in seg.runs:
                    for j, share in run.shares.items():
                        delivered[j] += share * run.count
            for job in inst.jobs:
                assert delivered[job.id] == job.total_requirement, i


class TestRandomPlansTasks:
    def test_all_tasks_complete_or_abort(self):
        for i, seed, family, m, k in _cases(8):
            family = ("mixed", "heavy", "light")[i % 3]
            ti = make_taskset(family, random.Random(seed), max(m, 4), k % 6 + 3)
            plan = FaultPlan.random(
                seed_for(seed, 3), m=ti.m, n_jobs=len(ti.tasks), events=5
            )
            res = run_tasks_with_faults(ti, plan, backend="int")
            task_ids = {task.id for task in ti.tasks}
            assert set(res.completion_times) | set(res.aborted) == task_ids, i

    def test_backends_agree(self):
        for i, seed, family, m, k in _cases(4):
            ti = make_taskset("mixed", random.Random(seed), max(m, 4), 4)
            plan = FaultPlan.random(
                seed_for(seed, 3), m=ti.m, n_jobs=len(ti.tasks), events=5
            )
            a = run_tasks_with_faults(
                ti, plan, backend="fraction", compare_fault_free=False
            )
            b = run_tasks_with_faults(
                ti, plan, backend="int", compare_fault_free=False
            )
            assert a.completion_times == b.completion_times, i
            assert a.segments == b.segments, i

    def test_empty_plan_completes_everything(self):
        ti = make_taskset("mixed", random.Random(3), 5, 4)
        res = run_tasks_with_faults(ti, FaultPlan.empty())
        assert set(res.completion_times) == {task.id for task in ti.tasks}
        assert res.fault_free_sum == schedule_tasks(
            ti
        ).sum_completion_times()

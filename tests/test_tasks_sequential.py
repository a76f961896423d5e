"""Tests for the Listing 3/4 sequential engine (repro.tasks.sequential)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.tasks import (
    Task,
    heavy_completion_bound,
    light_completion_bound,
    run_sequential,
)
from repro.numeric import frac_sum

from conftest import task_requirement_lists


def tasks_from(lists):
    return [Task(id=i, requirements=tuple(rs)) for i, rs in enumerate(lists)]


class TestEngineBasics:
    def test_single_tiny_task_one_step(self):
        tasks = tasks_from([[Fraction(1, 4), Fraction(1, 4)]])
        res = run_sequential(tasks, m=4, budget=Fraction(1))
        assert res.completion_times == {0: 1}
        assert res.makespan == 1

    def test_whole_task_packing_multiple(self):
        # three tasks, each fully packable: all can finish in step 1
        tasks = tasks_from(
            [[Fraction(1, 10)], [Fraction(1, 10)], [Fraction(1, 10)]]
        )
        res = run_sequential(tasks, m=4, budget=Fraction(1))
        assert all(t == 1 for t in res.completion_times.values())

    def test_processor_cap_blocks_packing(self):
        # 5 sliver jobs but only 2 processors: takes 3 steps
        tasks = tasks_from([[Fraction(1, 100)] * 5])
        res = run_sequential(tasks, m=2, budget=Fraction(1))
        assert res.completion_times[0] == 3

    def test_resource_cap_blocks_packing(self):
        # one task of two r=3/4 jobs with budget 1: needs 2 steps
        tasks = tasks_from([[Fraction(3, 4), Fraction(3, 4)]])
        res = run_sequential(tasks, m=4, budget=Fraction(1))
        assert res.completion_times[0] == 2

    def test_oversized_job(self):
        # r = 5/2 with budget 1: 3 steps
        tasks = tasks_from([[Fraction(5, 2)]])
        res = run_sequential(tasks, m=3, budget=Fraction(1))
        assert res.completion_times[0] == 3

    def test_invalid_args(self):
        tasks = tasks_from([[Fraction(1, 2)]])
        with pytest.raises(ValueError):
            run_sequential(tasks, m=0, budget=Fraction(1))
        with pytest.raises(ValueError):
            run_sequential(tasks, m=2, budget=Fraction(0))

    def test_empty_task_list(self):
        res = run_sequential([], m=3, budget=Fraction(1))
        assert res.makespan == 0
        assert res.completion_times == {}


class TestModelCompliance:
    @given(lists=task_requirement_lists())
    @settings(max_examples=60, deadline=None)
    def test_property_steps_respect_budget_and_procs(self, lists):
        tasks = tasks_from(lists)
        m = 4
        budget = Fraction(1)
        res = run_sequential(tasks, m, budget, record_steps=True)
        for step in res.trace:
            assert frac_sum(step.shares.values()) <= budget
            assert len(step.shares) <= m
            for (task_id, idx), share in step.shares.items():
                assert share > 0
                assert share <= tasks[task_id].requirements[idx]

    @given(lists=task_requirement_lists())
    @settings(max_examples=60, deadline=None)
    def test_property_jobs_accumulate_exactly(self, lists):
        tasks = tasks_from(lists)
        res = run_sequential(tasks, 4, Fraction(1), record_steps=True)
        delivered = {}
        for step in res.trace:
            for key, share in step.shares.items():
                delivered[key] = delivered.get(key, Fraction(0)) + share
        for task in tasks:
            for idx, r in enumerate(task.requirements):
                assert delivered.get((task.id, idx)) == r

    @given(lists=task_requirement_lists())
    @settings(max_examples=60, deadline=None)
    def test_property_non_preemption_per_job(self, lists):
        tasks = tasks_from(lists)
        res = run_sequential(tasks, 4, Fraction(1), record_steps=True)
        active = {}
        for t, step in enumerate(res.trace, start=1):
            for key in step.shares:
                active.setdefault(key, []).append(t)
        for key, steps in active.items():
            assert steps == list(range(steps[0], steps[-1] + 1)), (
                f"job {key} preempted: {steps}"
            )

    @given(lists=task_requirement_lists())
    @settings(max_examples=40, deadline=None)
    def test_property_tasks_finish_in_order(self, lists):
        tasks = tasks_from(lists)
        res = run_sequential(tasks, 4, Fraction(1))
        finishes = [res.completion_times[t.id] for t in tasks]
        assert finishes == sorted(finishes)


class TestLemmaBounds:
    def test_heavy_bound_fixture(self):
        # all jobs > 1/(m-1) = 1/3 for m = 4
        tasks = tasks_from(
            [
                [Fraction(2, 5), Fraction(1, 2)],
                [Fraction(3, 5), Fraction(2, 5), Fraction(1, 2)],
            ]
        )
        res = run_sequential(tasks, 4, Fraction(1))
        bounds = heavy_completion_bound(tasks, Fraction(1))
        for task, b in zip(tasks, bounds):
            assert res.completion_times[task.id] <= b

    def test_light_bound_fixture(self):
        # all jobs <= 1/(m-1) = 1/3 for m = 4
        tasks = tasks_from(
            [
                [Fraction(1, 5)] * 3,
                [Fraction(1, 4)] * 5,
            ]
        )
        res = run_sequential(tasks, 4, Fraction(1))
        bounds = light_completion_bound(tasks, 4)
        for task, b in zip(tasks, bounds):
            assert res.completion_times[task.id] <= b

    def test_heavy_bound_random(self, rng):
        from repro.workloads import heavy_taskset

        for _ in range(20):
            m = rng.randint(3, 12)
            ti = heavy_taskset(rng, m, rng.randint(1, 6))
            ordered = sorted(
                ti.tasks, key=lambda t: (t.total_requirement(), t.id)
            )
            res = run_sequential(ordered, m, Fraction(1))
            for task, b in zip(
                ordered, heavy_completion_bound(ordered, Fraction(1))
            ):
                assert res.completion_times[task.id] <= b

    def test_light_bound_random(self, rng):
        from repro.workloads import light_taskset

        for _ in range(20):
            m = rng.randint(3, 12)
            ti = light_taskset(rng, m, rng.randint(1, 6))
            ordered = sorted(ti.tasks, key=lambda t: (t.n_jobs, t.id))
            res = run_sequential(ordered, m, Fraction(1))
            for task, b in zip(ordered, light_completion_bound(ordered, m)):
                assert res.completion_times[task.id] <= b

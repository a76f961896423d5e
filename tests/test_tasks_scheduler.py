"""Tests for the combined SRT scheduler and its bounds (Theorem 4.8)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.tasks import (
    TaskInstance,
    count_order_lower_bound,
    lemma_44_witness,
    resource_order_lower_bound,
    rounding_error_budget,
    schedule_tasks,
    schedule_tasks_by_requirement,
    schedule_tasks_fifo,
    schedule_tasks_job_level,
    srt_guarantee_factor,
    srt_lower_bound,
)

from conftest import task_requirement_lists


def make_ti(m, lists):
    return TaskInstance.create(m, lists)


class TestLowerBounds:
    def test_resource_order_bound(self):
        # r(T) = 0.5, 0.75, 1.25 -> sorted prefix sums 0.5, 1.25, 2.5
        ti = make_ti(
            4,
            [
                [Fraction(3, 4)],
                [Fraction(1, 2)],
                [Fraction(5, 4)],
            ],
        )
        assert resource_order_lower_bound(ti.tasks) == 1 + 2 + 3

    def test_count_order_bound(self):
        ti = make_ti(
            2,
            [
                [Fraction(1, 10)] * 4,
                [Fraction(1, 10)] * 2,
            ],
        )
        # sorted counts 2, 6 -> ceil(2/2) + ceil(6/2) = 1 + 3
        assert count_order_lower_bound(ti.tasks, 2) == 4

    def test_combined(self):
        ti = make_ti(2, [[Fraction(1, 2)], [Fraction(1, 2)]])
        assert srt_lower_bound(ti) == max(
            resource_order_lower_bound(ti.tasks),
            count_order_lower_bound(ti.tasks, 2),
        )

    def test_empty(self):
        ti = TaskInstance(m=4, tasks=())
        assert srt_lower_bound(ti) == 0

    @given(lists=task_requirement_lists())
    @settings(max_examples=50, deadline=None)
    def test_property_lb_below_any_algorithm(self, lists):
        ti = make_ti(5, lists)
        lb = srt_lower_bound(ti)
        for algo in (
            schedule_tasks,
            schedule_tasks_fifo,
            schedule_tasks_by_requirement,
            schedule_tasks_job_level,
        ):
            assert algo(ti).sum_completion_times() >= lb


class TestCombinedScheduler:
    def test_all_tasks_complete(self):
        ti = make_ti(
            6,
            [
                [Fraction(1, 2), Fraction(1, 2)],
                [Fraction(1, 20)] * 6,
                [Fraction(3, 4)],
            ],
        )
        res = schedule_tasks(ti)
        assert set(res.completion_times) == {0, 1, 2}
        assert res.makespan == max(res.completion_times.values())

    def test_empty_instance(self):
        res = schedule_tasks(TaskInstance(m=6, tasks=()))
        assert res.sum_completion_times() == 0

    def test_small_m_falls_back(self):
        ti = make_ti(2, [[Fraction(1, 2)], [Fraction(1, 4), Fraction(1, 4)]])
        res = schedule_tasks(ti)
        assert res.algorithm == "srt-fallback-sequential"
        assert set(res.completion_times) == {0, 1}

    def test_heavy_only_instance(self):
        ti = make_ti(8, [[Fraction(1, 2), Fraction(2, 3)]] * 3)
        res = schedule_tasks(ti)
        assert len(res.completion_times) == 3

    def test_light_only_instance(self):
        ti = make_ti(8, [[Fraction(1, 50)] * 5] * 3)
        res = schedule_tasks(ti)
        assert len(res.completion_times) == 3

    @given(lists=task_requirement_lists())
    @settings(max_examples=50, deadline=None)
    def test_property_guarantee_with_additive_term(self, lists):
        """Theorem 4.8 (empirical form): S ≤ (2+4/(m-3))·OPT + (q1+q2+k).

        We use the Lemma 4.3 LB in place of OPT and allow the additive
        rounding terms of Lemmas 4.5/4.6 (bounded by the number of tasks).
        """
        m = 8
        ti = make_ti(m, lists)
        res = schedule_tasks(ti)
        lb = srt_lower_bound(ti)
        factor = float(srt_guarantee_factor(m))
        assert res.sum_completion_times() <= factor * lb + ti.k

    def test_fifo_processes_in_input_order(self):
        ti = make_ti(
            6, [[Fraction(9, 10)], [Fraction(1, 10)]]
        )
        res = schedule_tasks_fifo(ti)
        assert res.completion_times[0] <= res.completion_times[1]


class TestGuaranteeFormulas:
    def test_factor(self):
        assert srt_guarantee_factor(7) == Fraction(3)
        assert srt_guarantee_factor(5) == Fraction(4)

    def test_factor_small_m_rejected(self):
        with pytest.raises(ValueError):
            srt_guarantee_factor(3)

    def test_rounding_budget_decays(self):
        big = rounding_error_budget(10**10)
        small = rounding_error_budget(10**6)
        assert big < small <= 1.0

    def test_lemma_44_witness_counts(self):
        xs = [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
        q = lemma_44_witness(xs, z=7)
        assert 0 <= q <= len(xs)

    def test_lemma_44_witness_z_too_small(self):
        with pytest.raises(ValueError):
            lemma_44_witness([Fraction(1)], z=2)

"""Tests for the Equation (1) lower bounds (repro.core.bounds)."""

from fractions import Fraction

from hypothesis import given, settings

from repro.core.bounds import (
    fractional_load,
    longest_job_lower_bound,
    makespan_lower_bound,
    processor_lower_bound,
    resource_lower_bound,
)
from repro.core.instance import Instance

from conftest import srj_instances


class TestResourceBound:
    def test_simple(self):
        inst = Instance.from_requirements(
            2, [Fraction(1, 2), Fraction(1, 2)], sizes=[2, 2]
        )
        # total work = 2
        assert resource_lower_bound(inst) == 2

    def test_rounds_up(self):
        inst = Instance.from_requirements(
            2, [Fraction(2, 3)], sizes=[2]
        )
        # s = 4/3 -> ceil = 2
        assert resource_lower_bound(inst) == 2


class TestProcessorBound:
    def test_counting(self):
        # 4 unit jobs on 2 processors need >= 2 steps whatever the sizes
        inst = Instance.from_requirements(2, [Fraction(1, 100)] * 4)
        assert processor_lower_bound(inst) == 2

    def test_general_sizes(self):
        inst = Instance.from_requirements(
            2, [Fraction(1, 10), Fraction(1, 10)], sizes=[3, 4]
        )
        # ceil(s/r) = p for r <= 1: (3+4)/2 -> 4
        assert processor_lower_bound(inst) == 4


class TestLongestJobBound:
    def test_small_requirement(self):
        inst = Instance.from_requirements(8, [Fraction(1, 2)], sizes=[7])
        assert longest_job_lower_bound(inst) == 7

    def test_oversized_requirement(self):
        # r = 2, p = 3: s = 6 at <= 1/step -> 6 steps
        inst = Instance.from_requirements(8, [Fraction(2)], sizes=[3])
        assert longest_job_lower_bound(inst) == 6


class TestCombined:
    def test_empty(self):
        inst = Instance.from_requirements(3, [])
        assert makespan_lower_bound(inst) == 0

    def test_max_of_bounds(self):
        inst = Instance.from_requirements(
            2, [Fraction(1, 100)] * 4
        )
        assert makespan_lower_bound(inst) == max(
            resource_lower_bound(inst),
            processor_lower_bound(inst),
            longest_job_lower_bound(inst),
        )

    def test_fractional_load(self):
        inst = Instance.from_requirements(
            2, [Fraction(1, 3), Fraction(1, 3)], sizes=[1, 2]
        )
        assert fractional_load(inst) == Fraction(1)

    @given(inst=srj_instances())
    @settings(max_examples=60, deadline=None)
    def test_property_bound_dominated_by_any_schedule(self, inst):
        """LB must never exceed what the algorithm achieves."""
        from repro.core.scheduler import schedule_srj

        res = schedule_srj(inst)
        assert makespan_lower_bound(inst) <= res.makespan

    @given(inst=srj_instances(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_property_bounds_nonnegative_and_monotone(self, inst):
        lb = makespan_lower_bound(inst)
        assert lb >= 1  # nonempty instances need at least one step
        assert lb >= resource_lower_bound(inst) or lb >= processor_lower_bound(inst)


class TestIntegerForms:
    """The processor and longest-job terms are computed from ``p_j`` in
    integers (``s_j / r_j = p_j``) and the resource term at the LCM of the
    requirement denominators; they equal their Fraction definitions."""

    @given(inst=srj_instances(min_m=1, max_m=9, min_n=0, max_n=14))
    @settings(max_examples=400, deadline=None)
    def test_match_fraction_definitions(self, inst):
        from repro.numeric import ceil_div

        parts = [
            ceil_div(job.total_requirement, job.requirement)
            for job in inst.jobs
        ]
        assert inst.total_steps_lower() == sum(parts)
        assert processor_lower_bound(inst) == ceil_div(
            Fraction(sum(parts)), Fraction(inst.m)
        )
        for job in inst.jobs:
            assert job.min_steps == ceil_div(
                job.total_requirement, min(job.requirement, Fraction(1))
            )
        work = sum((job.total_requirement for job in inst.jobs), Fraction(0))
        assert inst.total_work() == work
        assert fractional_load(inst) == work

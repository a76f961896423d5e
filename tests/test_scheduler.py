"""Tests for the main SRJ scheduler (Listing 1) — repro.core.scheduler."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core.bounds import makespan_lower_bound
from repro.core.instance import Instance
from repro.core.scheduler import schedule_srj
from repro.core.validate import assert_valid
from repro.engine.api import solve_srj
from repro.engine.backends.fraction import (
    steps_until_status_change as _steps_until_status_change,
)

from conftest import srj_instances


class TestBasics:
    def test_single_job(self):
        inst = Instance.from_requirements(3, [Fraction(1, 2)], sizes=[4])
        res = schedule_srj(inst)
        assert res.makespan == 4
        assert res.completion_times == {0: 4}

    def test_empty_instance(self):
        inst = Instance.from_requirements(3, [])
        res = schedule_srj(inst)
        assert res.makespan == 0
        assert res.completion_times == {}

    def test_m1_serial_optimal(self):
        inst = Instance.from_requirements(
            1, [Fraction(1, 2), Fraction(2)], sizes=[3, 2]
        )
        res = schedule_srj(inst)
        # job0 needs 3 steps (r<=1); job1 has s=4, absorbs 1/step -> 4 steps
        assert res.makespan == 7
        assert_valid(res.schedule())

    def test_m2_supported(self):
        inst = Instance.from_requirements(
            2, [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)],
            sizes=[2, 2, 2],
        )
        res = schedule_srj(inst)
        assert_valid(res.schedule())
        assert res.makespan >= makespan_lower_bound(inst)

    def test_all_jobs_complete(self, small_instance):
        res = schedule_srj(small_instance)
        assert set(res.completion_times) == {j.id for j in small_instance.jobs}
        assert max(res.completion_times.values()) == res.makespan

    def test_schedule_expansion_matches_makespan(self, small_instance):
        res = schedule_srj(small_instance)
        sched = res.schedule()
        assert sched.makespan == res.makespan
        assert_valid(sched)

    def test_schedule_expansion_cap(self):
        inst = Instance.from_requirements(2, [Fraction(1, 2)], sizes=[50])
        res = schedule_srj(inst)
        with pytest.raises(ValueError):
            res.schedule(max_steps=10)


class TestGuarantees:
    def test_theorem_33_bound_on_fixture(self, small_instance):
        res = schedule_srj(small_instance)
        lb = makespan_lower_bound(small_instance)
        m = small_instance.m
        assert res.makespan <= (2 + 1 / (m - 2)) * lb

    @given(inst=srj_instances(min_m=3, max_m=8, max_n=10))
    @settings(max_examples=80, deadline=None)
    def test_property_theorem_33(self, inst):
        res = schedule_srj(inst)
        lb = makespan_lower_bound(inst)
        assert res.makespan <= (2 + 1 / (inst.m - 2)) * lb + 1e-9

    @given(inst=srj_instances(min_m=2, max_m=8, max_n=10))
    @settings(max_examples=80, deadline=None)
    def test_property_schedule_feasible(self, inst):
        res = schedule_srj(inst)
        assert_valid(res.schedule(max_steps=100_000))

    @given(inst=srj_instances(min_m=2, max_m=6, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_property_accelerated_equals_step_exact(self, inst):
        fast = solve_srj(inst, backend="fraction", accelerate=True)
        slow = solve_srj(inst, backend="fraction", accelerate=False)
        assert fast.makespan == slow.makespan
        assert fast.completion_times == slow.completion_times

    @given(inst=srj_instances(min_m=2, max_m=8, max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_property_lower_bound_respected(self, inst):
        res = schedule_srj(inst)
        assert res.makespan >= makespan_lower_bound(inst)


class TestAcceleration:
    def test_bulk_runs_compress_large_sizes(self):
        # one huge job: the trace must be tiny even though makespan is huge
        inst = Instance.from_requirements(
            4, [Fraction(1, 2)], sizes=[10_000]
        )
        res = schedule_srj(inst)
        assert res.makespan == 10_000
        assert len(res.trace) < 10

    def test_bulk_preserves_completion_times(self):
        inst = Instance.from_requirements(
            3,
            [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)],
            sizes=[100, 50, 25],
        )
        fast = solve_srj(inst, backend="fraction", accelerate=True)
        slow = solve_srj(inst, backend="fraction", accelerate=False)
        assert fast.completion_times == slow.completion_times

    def test_status_change_horizon_full_share(self):
        assert _steps_until_status_change(
            Fraction(3), Fraction(1, 2), Fraction(1, 2)
        ) is None

    def test_status_change_unfractured_fractures_immediately(self):
        assert _steps_until_status_change(
            Fraction(2), Fraction(1, 4), Fraction(1)
        ) == 1

    def test_status_change_fractured_resolves(self):
        # rem = 2.5, share = 0.25, r = 1: unfractured after 2 steps
        assert _steps_until_status_change(
            Fraction(5, 2), Fraction(1, 4), Fraction(1)
        ) == 2

    def test_status_change_never(self):
        # rem = 1/2, share = 1/3, r = 1: i/3 ≡ 1/2 (mod 1) -> 6i*2 ≡ ... no:
        # clearing denominators (6): 2i ≡ 3 (mod 6) has no solution
        assert _steps_until_status_change(
            Fraction(1, 2), Fraction(1, 3), Fraction(1)
        ) is None


class TestStatistics:
    def test_case_accounting_within_makespan(self, small_instance):
        res = schedule_srj(small_instance)
        assert 0 <= res.steps_full_jobs <= res.makespan
        assert 0 <= res.steps_full_resource <= res.makespan
        # the Theorem 3.3 dichotomy holds up to the final draining phase
        # (steps after T serve the last < m-1 jobs at full requirement):
        assert res.steps_full_jobs + res.steps_full_resource > 0

    def test_waste_nonnegative(self, small_instance):
        res = schedule_srj(small_instance)
        assert res.total_waste >= 0


class TestTrace:
    def test_trace_length_near_linear_in_n(self):
        """The O((m+n)·n) argument: trace runs (loop iterations) stay
        near-linear in n even when job sizes (and hence the makespan) are
        huge — the bulk fast-path absorbs the pseudo-polynomial part."""
        import random

        from repro.workloads import make_instance

        rng = random.Random(5)
        for n in (50, 200):
            inst = make_instance("uniform", rng, 8, n)
            res = schedule_srj(inst)
            assert len(res.trace) <= 6 * n + 20, (n, len(res.trace))

    def test_trace_counts_sum_to_makespan(self, small_instance):
        res = schedule_srj(small_instance)
        assert sum(run.count for run in res.trace) == res.makespan

    def test_trace_processors_consistent(self, small_instance):
        res = schedule_srj(small_instance)
        procs = {}
        for run in res.trace:
            for j, p in run.processors.items():
                if j in procs:
                    assert procs[j] == p, "job migrated between processors"
                procs[j] = p

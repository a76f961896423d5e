"""Tests for the simulation engine and policies (repro.simulator)."""

from fractions import Fraction
from typing import Dict

import pytest
from hypothesis import given, settings

from repro.core.instance import Instance
from repro.core.scheduler import schedule_srj
from repro.core.state import SchedulerState
from repro.core.validate import assert_valid
from repro.engine.api import solve_srj
from repro.simulator import (
    GreedyFillPolicy,
    ListSchedulingPolicy,
    PolicyViolation,
    ScheduleMetrics,
    SimulationEngine,
    SlidingWindowPolicy,
    completion_histogram,
    utilization_profile,
)

from conftest import srj_instances


def share_vectors(schedule):
    """Per-step ``{job: share}`` vectors of a schedule."""
    return [
        {p.job_id: p.share for p in step.pieces} for step in schedule.steps
    ]


def step_exact_shares(inst):
    """The step-exact ``solve_srj`` schedule's per-step share vectors."""
    res = solve_srj(inst, backend="fraction", accelerate=False)
    return share_vectors(res.schedule())


@pytest.fixture
def inst():
    return Instance.from_requirements(
        3,
        [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
        sizes=[2, 2, 1],
    )


class TestEngine:
    def test_runs_window_policy(self, inst):
        res = SimulationEngine(inst, SlidingWindowPolicy()).run()
        assert_valid(res.schedule)
        assert set(res.completion_times) == {0, 1, 2}

    def test_matches_optimized_scheduler(self, inst):
        res = SimulationEngine(inst, SlidingWindowPolicy()).run()
        opt = schedule_srj(inst)
        assert res.makespan == opt.makespan
        assert share_vectors(res.schedule) == step_exact_shares(inst)
        assert res.completion_times == opt.completion_times
        assert share_vectors(res.schedule) == step_exact_shares(inst)

    @given(inst=srj_instances(min_m=1, max_m=6, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_property_engine_equals_scheduler(self, inst):
        res = SimulationEngine(inst, SlidingWindowPolicy()).run()
        opt = schedule_srj(inst)
        assert res.makespan == opt.makespan
        assert share_vectors(res.schedule) == step_exact_shares(inst)

    def test_overuse_rejected(self, inst):
        class BadPolicy:
            def decide(self, state):
                return {j: Fraction(1) for j in state.unfinished()[:3]}

        # three jobs at share 1 each (capped at r_j: 1/4+1/2+3/4 = 3/2 > 1)
        with pytest.raises(PolicyViolation):
            SimulationEngine(inst, BadPolicy()).run()

    def test_starvation_rejected(self, inst):
        class StarvingPolicy:
            def __init__(self):
                self.step = 0

            def decide(self, state):
                self.step += 1
                if self.step == 1:
                    return {0: Fraction(1, 8)}  # start job 0 (fractures)
                return {1: Fraction(1, 2)}  # abandon job 0

        with pytest.raises(PolicyViolation):
            SimulationEngine(inst, StarvingPolicy()).run()

    def test_max_steps_guard(self, inst):
        class LazyPolicy:
            def decide(self, state):
                # legal but glacial: a sliver of the smallest job per step
                j = state.unfinished()[0]
                return {j: Fraction(1, 1000)}

        with pytest.raises(PolicyViolation):
            SimulationEngine(inst, LazyPolicy(), max_steps=5).run()

    def test_finished_job_rejected(self, inst):
        class ZombiePolicy:
            def __init__(self):
                self.t = 0

            def decide(self, state):
                self.t += 1
                if self.t == 1:
                    return {2: Fraction(3, 4)}  # finishes job 2 (s=3/4)
                return {2: Fraction(1, 4)}

        with pytest.raises(PolicyViolation):
            SimulationEngine(inst, ZombiePolicy()).run()

    def test_share_capping(self, inst):
        class OvershootPolicy:
            def decide(self, state):
                j = state.unfinished()[0]
                return {j: Fraction(10)}  # capped to min(r_j, remaining)

        res = SimulationEngine(inst, OvershootPolicy()).run()
        assert_valid(res.schedule)


class TestBaselinePolicies:
    @given(inst=srj_instances(min_m=2, max_m=6, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_property_list_scheduling_valid(self, inst):
        res = SimulationEngine(inst, ListSchedulingPolicy()).run()
        assert_valid(res.schedule)

    @given(inst=srj_instances(min_m=2, max_m=6, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_property_greedy_fill_valid(self, inst):
        res = SimulationEngine(inst, GreedyFillPolicy()).run()
        assert_valid(res.schedule)

    def test_list_orders(self, inst):
        for order in ("input", "lpt", "spt", "largest_requirement"):
            res = SimulationEngine(inst, ListSchedulingPolicy(order)).run()
            assert_valid(res.schedule)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            ListSchedulingPolicy("bogus")

    def test_list_scheduling_full_requirements_only(self, inst):
        """Garey-Graham style: every allocation is the full min(r_j, 1)."""
        res = SimulationEngine(inst, ListSchedulingPolicy()).run()
        for step in res.schedule.steps[:-1]:
            for piece in step.pieces:
                r = inst.requirement(piece.job_id)
                # last allocation of a job may be its (smaller) remainder
                assert piece.share <= min(r, Fraction(1))


class TestMetrics:
    def test_metrics_from_schedule(self, inst):
        res = SimulationEngine(inst, SlidingWindowPolicy()).run()
        metrics = ScheduleMetrics.from_schedule(res.schedule)
        assert metrics.makespan == res.makespan
        assert 0 < metrics.avg_utilization <= 1
        assert metrics.max_completion_time == res.makespan

    def test_empty_schedule_metrics(self):
        from repro.core.schedule import Schedule

        inst0 = Instance.from_requirements(2, [])
        metrics = ScheduleMetrics.from_schedule(Schedule(instance=inst0))
        assert metrics.makespan == 0

    def test_utilization_profile(self, inst):
        res = SimulationEngine(inst, SlidingWindowPolicy()).run()
        profile = utilization_profile(res.schedule)
        assert len(profile) == res.makespan
        assert all(0 <= u <= 1 + 1e-12 for u in profile)

    def test_completion_histogram(self, inst):
        res = SimulationEngine(inst, SlidingWindowPolicy()).run()
        hist = completion_histogram(res.schedule)
        assert sum(hist.values()) == inst.n

    def test_histogram_bucket_validation(self, inst):
        res = SimulationEngine(inst, SlidingWindowPolicy()).run()
        with pytest.raises(ValueError):
            completion_histogram(res.schedule, bucket=0)

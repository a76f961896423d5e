"""Failure injection and extreme-value robustness tests.

These verify that every guard in the library actually fires: hostile
policies, corrupted schedules, degenerate numeric inputs, and boundary
parameter values.
"""

from fractions import Fraction

import pytest

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.scheduler import schedule_srj
from repro.core.validate import validate_schedule
from repro.engine.api import solve_srj
from repro.engine.loop import StepDecision
from repro.engine.policies import window_step
from repro.simulator import PolicyViolation, SimulationEngine

from conftest import exact_state, take_step


class TestHostilePolicies:
    def _inst(self):
        return Instance.from_requirements(
            2, [Fraction(1, 2), Fraction(1, 2)], sizes=[2, 2]
        )

    def test_policy_returning_garbage_jobs(self):
        class Garbage:
            def decide(self, state):
                return {99: Fraction(1, 2)}

        with pytest.raises(PolicyViolation):
            SimulationEngine(self._inst(), Garbage()).run()

    def test_policy_scheduling_too_many_jobs(self):
        inst = Instance.from_requirements(
            1, [Fraction(1, 4), Fraction(1, 4)]
        )

        class Overcommit:
            def decide(self, state):
                return {0: Fraction(1, 4), 1: Fraction(1, 4)}

        with pytest.raises(PolicyViolation):
            SimulationEngine(inst, Overcommit()).run()

    def test_policy_with_negative_shares(self):
        class Negative:
            def decide(self, state):
                return {0: Fraction(-1, 2)}

        with pytest.raises(PolicyViolation):
            SimulationEngine(self._inst(), Negative()).run()

    def test_policy_returning_empty_forever(self):
        class Idle:
            def decide(self, state):
                return {}

        with pytest.raises(PolicyViolation):
            SimulationEngine(self._inst(), Idle(), max_steps=10).run()


class TestCorruptedSchedules:
    def test_total_garbage_schedule(self):
        inst = Instance.from_requirements(2, [Fraction(1, 2)])
        s = Schedule(instance=inst)
        s.append_step({0: (0, Fraction(1, 4))})
        s.append_step({0: (1, Fraction(1, 4))})  # migration mid-run
        report = validate_schedule(s)
        assert not report.ok
        assert any("migrated" in v for v in report.violations)

    def test_validator_reports_every_violation(self):
        inst = Instance.from_requirements(
            1, [Fraction(1, 2), Fraction(1, 2)]
        )
        s = Schedule(instance=inst)
        # two jobs on one processor machine, overfull, both unfinished
        s.append_step({0: (0, Fraction(3, 4)), 1: (1, Fraction(3, 4))})
        report = validate_schedule(s)
        kinds = "\n".join(report.violations)
        assert "exceed" in kinds        # share > r_j
        assert "overused" in kinds      # resource > 1
        assert "exceed m" in kinds or "out of range" in kinds


class TestExtremeValues:
    def test_huge_denominators(self):
        inst = Instance.from_requirements(
            3,
            [Fraction(10**12 + 1, 3 * 10**12), Fraction(1, 7**9)],
            sizes=[2, 1],
        )
        res = schedule_srj(inst)
        from repro.core.validate import assert_valid

        assert_valid(res.schedule())

    def test_requirement_exactly_one(self):
        inst = Instance.from_requirements(3, [Fraction(1)] * 3)
        res = schedule_srj(inst)
        assert res.makespan == 3  # strictly sequential: each job needs all

    def test_requirement_far_above_one(self):
        inst = Instance.from_requirements(4, [Fraction(100)], sizes=[2])
        res = schedule_srj(inst)
        assert res.makespan == 200  # s = 200, absorbs 1/step

    def test_tiny_and_huge_mixed(self):
        inst = Instance.from_requirements(
            4,
            [Fraction(1, 10**6), Fraction(10)],
            sizes=[1, 1],
        )
        res = schedule_srj(inst)
        # the sliver steals ε of step 1's resource, so the resource bound
        # is ⌈10 + ε⌉ = 11 — and the algorithm matches it exactly
        assert res.makespan == 11
        assert res.completion_times[0] == 1
        from repro.core.bounds import makespan_lower_bound

        assert res.makespan == makespan_lower_bound(inst)

    def test_many_identical_jobs(self):
        inst = Instance.from_requirements(5, [Fraction(1, 4)] * 64)
        res = schedule_srj(inst)
        from repro.core.bounds import makespan_lower_bound

        assert res.makespan <= (2 + 1 / 3) * makespan_lower_bound(inst)

    def test_single_sliver(self):
        inst = Instance.from_requirements(2, [Fraction(1, 10**9)])
        assert schedule_srj(inst).makespan == 1

    def test_huge_size_accelerated_trace_small(self):
        inst = Instance.from_requirements(
            3, [Fraction(1, 3)], sizes=[10**6]
        )
        res = schedule_srj(inst)
        assert res.makespan == 10**6
        assert len(res.trace) <= 4

    def test_step_exact_guard_fires_reasonably(self):
        # step-exact mode on a moderately large instance must still finish
        inst = Instance.from_requirements(
            3, [Fraction(1, 3), Fraction(1, 2)], sizes=[30, 30]
        )
        res = solve_srj(inst, backend="fraction", accelerate=False)
        assert res.makespan >= 30


class TestStateGuards:
    def test_unknown_job_share_applies_cleanly(self):
        # a step on a job id the state does not track raises KeyError
        inst = Instance.from_requirements(2, [Fraction(1, 2)])
        st = exact_state(inst)
        with pytest.raises(KeyError):
            st.apply_decision(StepDecision(shares={42: Fraction(1, 2)}))

    def test_assignment_empty_universe(self):
        inst = Instance.from_requirements(2, [Fraction(1, 2)])
        st = exact_state(inst)
        take_step(st, {0: Fraction(1, 2)})
        a, _ = window_step(st, [], st.unfinished(), 1, Fraction(1))
        assert a.shares == {}

"""Tests for the schedule validator (repro.core.validate)."""

import random
from fractions import Fraction

import pytest

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validate import (
    ScheduleError,
    assert_valid,
    validate_result,
    validate_schedule,
)
from repro.engine.api import solve_srj
from repro.workloads import make_instance


@pytest.fixture
def inst():
    return Instance.from_requirements(
        2, [Fraction(1, 2), Fraction(1, 2)], sizes=[1, 2]
    )


def valid_schedule(inst):
    s = Schedule(instance=inst)
    s.append_step({0: (0, Fraction(1, 2)), 1: (1, Fraction(1, 2))})
    s.append_step({1: (1, Fraction(1, 2))})
    return s


class TestValid:
    def test_valid_schedule_passes(self, inst):
        report = validate_schedule(valid_schedule(inst))
        assert report.ok
        assert report.violations == []
        assert bool(report)

    def test_shares_with_denominators_outside_the_requirements(self, inst):
        s = Schedule(instance=inst)
        s.append_step({0: (0, Fraction(1, 2)), 1: (1, Fraction(1, 3))})
        s.append_step({1: (1, Fraction(1, 2))})
        s.append_step({1: (1, Fraction(1, 6))})
        report = validate_schedule(s)
        assert report.ok, report.violations

    def test_assert_valid_noop(self, inst):
        assert_valid(valid_schedule(inst))


class TestViolations:
    def test_resource_overuse(self, inst):
        s = Schedule(instance=inst)
        s.append_step({0: (0, Fraction(1, 2)), 1: (1, Fraction(1, 2))})
        s.append_step({1: (1, Fraction(1, 2))})
        s.steps[0].pieces[0] = s.steps[0].pieces[0].__class__(
            job_id=0, processor=0, share=Fraction(3, 5)
        )
        report = validate_schedule(s)
        assert not report.ok
        assert any("exceed" in v or "overused" in v for v in report.violations)

    def test_unknown_job(self, inst):
        s = Schedule(instance=inst)
        s.append_step({7: (0, Fraction(1, 2))})
        report = validate_schedule(s, require_all_finished=False)
        assert any("unknown job" in v for v in report.violations)

    def test_duplicate_processor(self, inst):
        s = Schedule(instance=inst)
        s.append_step({0: (0, Fraction(1, 4)), 1: (0, Fraction(1, 4))})
        report = validate_schedule(s, require_all_finished=False)
        assert any("runs two jobs" in v for v in report.violations)

    def test_processor_out_of_range(self, inst):
        s = Schedule(instance=inst)
        s.append_step({0: (5, Fraction(1, 2))})
        report = validate_schedule(s, require_all_finished=False)
        assert any("out of range" in v for v in report.violations)

    def test_too_many_jobs(self):
        inst3 = Instance.from_requirements(
            1, [Fraction(1, 4), Fraction(1, 4)]
        )
        s = Schedule(instance=inst3)
        s.append_step({0: (0, Fraction(1, 4)), 1: (1, Fraction(1, 4))})
        report = validate_schedule(s)
        assert any("exceed m" in v for v in report.violations)

    def test_preemption_detected(self, inst):
        s = Schedule(instance=inst)
        s.append_step({1: (0, Fraction(1, 4))})
        s.append_step({0: (0, Fraction(1, 2))})
        s.append_step({1: (0, Fraction(1, 2)), 0: (1, Fraction(0))})
        report = validate_schedule(s, require_all_finished=False)
        assert any("preempted" in v for v in report.violations)

    def test_migration_detected(self, inst):
        s = Schedule(instance=inst)
        s.append_step({1: (0, Fraction(1, 2))})
        s.append_step({1: (1, Fraction(1, 2))})
        report = validate_schedule(s, require_all_finished=False)
        assert any("migrated" in v for v in report.violations)

    def test_unfinished_job_detected(self, inst):
        s = Schedule(instance=inst)
        s.append_step({0: (0, Fraction(1, 2))})
        report = validate_schedule(s)
        assert any("unfinished" in v for v in report.violations)
        # but passes when completion is not required
        report2 = validate_schedule(s, require_all_finished=False)
        assert report2.ok

    def test_processing_after_finish(self, inst):
        s = Schedule(instance=inst)
        s.append_step({0: (0, Fraction(1, 2))})  # job 0 done (s=1/2)
        s.append_step({0: (0, Fraction(1, 2)), 1: (1, Fraction(1, 2))})
        s.append_step({1: (1, Fraction(1, 2))})
        report = validate_schedule(s)
        assert any("after finishing" in v for v in report.violations)

    def test_overuse_with_a_new_denominator_mid_step(self, inst):
        """Totals stay exact when a later share brings a denominator the
        requirements lack (the common scale grows mid-step)."""
        s = Schedule(instance=inst)
        s.append_step({0: (0, Fraction(1, 2)), 1: (1, Fraction(3, 5))})
        report = validate_schedule(s, require_all_finished=False)
        assert "step 1: resource overused (11/10 > 1)" in report.violations

    def test_assert_valid_raises_with_details(self, inst):
        s = Schedule(instance=inst)
        s.append_step({0: (0, Fraction(1, 2))})
        with pytest.raises(ScheduleError) as err:
            assert_valid(s)
        assert "unfinished" in str(err.value)

    def test_custom_budget(self, inst):
        s = Schedule(instance=inst)
        s.append_step({0: (0, Fraction(1, 2)), 1: (1, Fraction(1, 2))})
        s.append_step({1: (1, Fraction(1, 2))})
        report = validate_schedule(s, budget=Fraction(1, 2))
        assert any("overused" in v for v in report.violations)


class TestResultSeededDefects:
    """``validate_result`` walks the trace run by run: each defect seeded
    into a valid 11-run trace (m = 4, n = 12, 27 steps) is reported once,
    at the step it first holds."""

    @staticmethod
    def _result():
        inst = make_instance("uniform", random.Random(3), 4, 12)
        res = solve_srj(inst, backend="int")
        assert validate_result(res).ok
        assert [run.count for run in res.trace] == [
            2, 2, 1, 2, 3, 1, 3, 1, 5, 6, 1
        ]
        return res

    def test_share_raised_reports_run_start_once(self):
        res = self._result()
        run = res.trace[4]  # steps 8..10
        run.shares = {**run.shares, 0: run.shares[0] + Fraction(1, 2)}
        violations = validate_result(res).violations
        overuse = [v for v in violations if "overused" in v]
        assert overuse == ["step 8: resource overused (3/2 > 1)"]
        assert "step 8: job 0 share 67/120 exceeds requirement r_j=7/120" in (
            violations
        )

    def test_share_dropped_leaves_job_unfinished(self):
        res = self._result()
        run = res.trace[-1]  # step 27, job 11's last
        run.shares = {j: s for j, s in run.shares.items() if j != 11}
        violations = validate_result(res).violations
        assert any(v.startswith("job 11: unfinished") for v in violations)
        assert "job 11: recorded completion 27 != finish step None" in (
            violations
        )

    def test_adjacent_runs_swapped(self):
        res = self._result()
        res.trace[0], res.trace[1] = res.trace[1], res.trace[0]
        violations = validate_result(res).violations
        assert (
            "job 2: preempted (active in steps 1..5 but only 3 of them)"
            in violations
        )
        assert "job 4: recorded completion 2 != finish step 4" in violations

    def test_run_count_raised(self):
        res = self._result()
        res.trace[8].count += 1  # steps 16..20 become 16..21
        violations = validate_result(res).violations
        assert "step 21: job 10 processed after finishing at step 20" in (
            violations
        )
        assert "makespan 27 != 28 steps in the trace" in violations

    def test_zero_step_run_reported(self):
        res = self._result()
        res.trace[2].count = 0  # step 5 of a run of fewer than one step
        violations = validate_result(res).violations
        assert "step 5: run of 0 steps" in violations

    def test_recorded_completion_and_makespan_checked(self):
        res = self._result()
        res.completion_times[5] += 5
        res.makespan += 7
        violations = validate_result(res).violations
        assert violations == [
            "job 5: recorded completion 10 != finish step 5",
            "makespan 34 != 27 steps in the trace",
        ]

    def test_step_limited_run_has_no_completion_to_check(self):
        inst = make_instance("uniform", random.Random(3), 4, 12)
        res = solve_srj(inst, backend="int", step_limit=12)
        report = validate_result(res, require_all_finished=False)
        assert report.ok, report.violations
        assert report.makespan == 12

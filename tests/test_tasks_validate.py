"""Tests for the SRT schedule validator (repro.tasks.validate)."""

import random
from fractions import Fraction

from hypothesis import given, settings

from repro.tasks import (
    TaskInstance,
    schedule_tasks,
    validate_task_schedule,
)
from repro.workloads import make_taskset

from conftest import task_requirement_lists


class TestValidateTaskSchedule:
    def test_valid_mixed_instance(self, rng):
        ti = make_taskset("mixed", rng, 8, 10)
        res = schedule_tasks(ti, record_steps=True)
        assert validate_task_schedule(ti, res) == []

    def test_heavy_only(self, rng):
        ti = make_taskset("heavy", rng, 8, 6)
        res = schedule_tasks(ti, record_steps=True)
        assert validate_task_schedule(ti, res) == []

    def test_light_only(self, rng):
        ti = make_taskset("light", rng, 8, 6)
        res = schedule_tasks(ti, record_steps=True)
        assert validate_task_schedule(ti, res) == []

    def test_unrecorded_run_reports(self, rng):
        ti = make_taskset("mixed", rng, 8, 5)
        res = schedule_tasks(ti, record_steps=False)
        violations = validate_task_schedule(ti, res)
        # halves exist but carry no steps: coverage checks must complain
        assert violations != []

    def test_fallback_run_reports_gracefully(self):
        ti = TaskInstance.create(2, [[Fraction(1, 2)]])
        res = schedule_tasks(ti, record_steps=True)
        violations = validate_task_schedule(ti, res)
        assert violations == ["fallback runs carry no recorded halves to validate"]

    @given(lists=task_requirement_lists())
    @settings(max_examples=40, deadline=None)
    def test_property_every_split_run_validates(self, lists):
        ti = TaskInstance.create(8, lists)
        res = schedule_tasks(ti, record_steps=True)
        assert validate_task_schedule(ti, res) == []

    def test_detects_injected_overuse(self, rng):
        ti = make_taskset("heavy", rng, 8, 4)
        res = schedule_tasks(ti, record_steps=True)
        half = res.heavy_result
        # corrupt: inflate one share beyond the heavy allotment
        shares = half.trace[0].shares
        key = next(iter(shares))
        shares[key] += Fraction(2)
        half.trace[0].shares = shares
        violations = validate_task_schedule(ti, res)
        assert any("resource" in v for v in violations)

    def test_detects_injected_preemption(self, rng):
        ti = make_taskset("light", rng, 8, 4)
        res = schedule_tasks(ti, record_steps=True)
        half = res.light_result
        if len(half.trace) < 3:
            return
        key = next(iter(half.trace[0].shares))
        # re-run the job in the last step after a gap
        last = half.trace[-1]
        last.shares = {**last.shares, key: Fraction(1, 1000)}
        violations = validate_task_schedule(ti, res)
        assert any(
            "preempted" in v or "delivered" in v for v in violations
        )

    def test_detects_share_moved_past_allotment(self):
        """Step totals come from the shares."""
        ti = make_taskset("heavy", random.Random(0), 8, 6)
        res = schedule_tasks(ti, record_steps=True)
        first, second = res.heavy_result.trace[:2]
        a, b = first.shares, second.shares
        key = next(iter(b))  # runs in both steps
        moved = b[key] / 2
        a[key] += moved
        b[key] -= moved
        first.shares, second.shares = a, b
        violations = validate_task_schedule(ti, res)
        assert violations == [
            "heavy step 1: resource overused (13/28 > 3/7)"
        ]

"""Tests for repro.faults.runner: run_with_faults / recover / validation."""

import random
from fractions import Fraction

import pytest

from repro.core.scheduler import schedule_srj
from repro.core.validate import validate_result
from repro.faults import (
    FaultEvent,
    FaultPlan,
    FaultRecoveryError,
    degradation_report,
    recover,
    run_with_faults,
    validate_faulted,
)
from repro.workloads import make_instance


def _inst(m=3, n=10, seed=0, family="uniform"):
    return make_instance(family, random.Random(seed), m, n)


def _plan():
    return FaultPlan.create(
        [
            FaultEvent(3, "crash", processor=0),
            FaultEvent(6, "dip", capacity=Fraction(1, 2)),
            FaultEvent(10, "restore", processor=0),
            FaultEvent(10, "dip", capacity=Fraction(1)),
            FaultEvent(4, "abort", job=2),
        ]
    )


class TestEmptyPlan:
    def test_matches_fault_free_run(self):
        inst = _inst()
        base = schedule_srj(inst)
        res = run_with_faults(inst, FaultPlan.empty())
        assert res.makespan == base.makespan
        assert res.completion_times == base.completion_times
        assert res.degradation == 1
        assert not res.aborted
        assert validate_faulted(res).ok

    def test_single_segment(self):
        res = run_with_faults(_inst(), FaultPlan.empty())
        assert len(res.segments) == 1
        assert res.segments[0].start == 0


class TestFaultedRuns:
    def test_scenario_valid_and_complete(self):
        inst = _inst()
        res = run_with_faults(inst, _plan())
        report = validate_faulted(res)
        assert report.ok, report.violations
        # every non-aborted job completes
        done = set(res.completion_times) | set(res.aborted)
        assert done == set(range(inst.n))
        assert res.aborted == {2: 4}

    def test_observed_events_reach_stats(self):
        res = run_with_faults(_inst(), _plan(), collect_stats=True)
        assert res.stats.counter("faults_total") == len(_plan())
        assert res.stats.counter("faults_kind.crash") == 1

    def test_moot_events_skipped(self):
        plan = FaultPlan.create(
            [
                FaultEvent(0, "crash", processor=99),  # out of range
                FaultEvent(1, "restore", processor=1),  # not down
                FaultEvent(2, "abort", job=9999),  # no such job
            ]
        )
        res = run_with_faults(_inst(), plan)
        assert res.n_applied() == 0
        assert validate_faulted(res).ok

    def test_degradation_report_keys(self):
        rep = degradation_report(run_with_faults(_inst(), _plan()))
        assert rep["makespan"] >= rep["fault_free_makespan"] > 0
        assert rep["events_planned"] == 5
        assert rep["jobs_aborted"] == 1
        assert rep["segments"] >= 1
        import json

        json.dumps(rep)  # the report must be JSON-able as-is

    def test_total_outage_with_recovery_event(self):
        plan = FaultPlan.create(
            [
                FaultEvent(2, "dip", capacity=Fraction(0)),
                FaultEvent(5, "dip", capacity=Fraction(1)),
            ]
        )
        res = run_with_faults(_inst(), plan)
        assert validate_faulted(res).ok
        # the outage segment delivers nothing for 3 steps
        idle = [s for s in res.segments if s.capacity == 0]
        assert idle and idle[0].length == 3 and not idle[0].runs

    def test_stall_without_recovery_raises(self):
        plan = FaultPlan.create([FaultEvent(1, "dip", capacity=Fraction(0))])
        with pytest.raises(FaultRecoveryError):
            run_with_faults(_inst(), plan)

    def test_compare_fault_free_optional(self):
        res = run_with_faults(_inst(), _plan(), compare_fault_free=False)
        assert res.fault_free_makespan is None
        assert res.degradation is None


class TestSeededDefects:
    """``validate_faulted`` reports each defect seeded into the valid
    ``_plan()`` run (``test_scenario_valid_and_complete`` passes it)."""

    @staticmethod
    def _violations(mutate):
        res = run_with_faults(_inst(), _plan())
        mutate(res)
        report = validate_faulted(res)
        assert not report.ok
        return report.violations

    def test_share_raised_by_capacity(self):
        def mutate(res):
            seg = res.segments[0]
            run = seg.runs[0]
            job = min(run.shares)
            run.shares = {**run.shares, job: run.shares[job] + seg.capacity}

        violations = self._violations(mutate)
        assert any("run 0: resource overuse" in v for v in violations)
        assert any("exceeds requirement" in v for v in violations)

    def test_job_on_offline_processor(self):
        def mutate(res):
            seg = next(
                s for s in res.segments
                if s.runs and len(s.processors) < res.instance.m
            )
            down = min(set(range(res.instance.m)) - set(seg.processors))
            run = seg.runs[0]
            run.processors = {**run.processors, min(run.shares): down}

        violations = self._violations(mutate)
        assert any(
            "on offline processor 0" in v for v in violations
        ), violations

    def test_run_count_past_segment(self):
        def mutate(res):
            res.segments[0].runs[0].count += 1

        violations = self._violations(mutate)
        seg = run_with_faults(_inst(), _plan()).segments[0]
        assert (
            f"segment 0 covers {seg.length + 1} steps, length {seg.length}"
            in violations
        )

    def test_dropped_share(self):
        dropped = []

        def mutate(res):
            run = res.segments[-1].runs[0]
            dropped.append(min(run.shares))
            run.shares = {
                j: s for j, s in run.shares.items() if j != dropped[0]
            }

        violations = self._violations(mutate)
        assert any(
            v.startswith(f"job {dropped[0]} delivered") for v in violations
        ), violations

    def test_completion_time_shifted(self):
        shifted = []

        def mutate(res):
            job = min(res.completion_times)
            shifted.append((job, res.completion_times[job]))
            res.completion_times[job] += 3

        violations = self._violations(mutate)
        job, ct = shifted[0]
        assert violations == [
            f"job {job}: recorded completion {ct + 3} != finish step {ct}"
        ]


class TestBackendIdentity:
    def test_fraction_and_int_identical(self):
        inst = _inst(m=4, n=14, seed=5)
        plan = FaultPlan.random(11, m=4, n_jobs=14, events=8)
        a = run_with_faults(inst, plan, backend="fraction")
        b = run_with_faults(inst, plan, backend="int")
        assert a.makespan == b.makespan
        assert a.completion_times == b.completion_times
        assert a.aborted == b.aborted
        assert [s.runs for s in a.segments] == [s.runs for s in b.segments]


class TestCheckpointResume:
    def test_resume_reproduces_tail(self):
        inst = _inst(m=4, n=14, seed=2)
        plan = _plan()
        full = run_with_faults(inst, plan)
        assert len(full.checkpoints) >= 2
        cp = full.checkpoints[1]
        resumed = run_with_faults(inst, plan, from_checkpoint=cp)
        assert resumed.makespan == full.makespan
        assert resumed.completion_times == full.completion_times

    def test_every_resumed_result_validates(self):
        """Each checkpoint of the ``_plan()`` run resumes to a result that
        ``validate_faulted`` accepts, checked from the checkpoint on."""
        inst = _inst(m=4, n=14, seed=2)
        plan = _plan()
        full = run_with_faults(inst, plan)
        assert len(full.checkpoints) == 5
        for cp in full.checkpoints:
            resumed = run_with_faults(inst, plan, from_checkpoint=cp)
            assert resumed.resumed_from is cp
            assert resumed.makespan == full.makespan
            assert resumed.completion_times == full.completion_times
            report = validate_faulted(resumed)
            assert report.ok, (cp.t, report.violations)

    def test_defects_in_a_resumed_tail_are_reported(self):
        inst = _inst(m=4, n=14, seed=2)
        plan = _plan()
        cp = run_with_faults(inst, plan).checkpoints[1]

        def resumed():
            return run_with_faults(inst, plan, from_checkpoint=cp)

        dropped = resumed()
        run = dropped.segments[0].runs[0]
        job = min(run.shares)
        run.shares = {j: s for j, s in run.shares.items() if j != job}
        violations = validate_faulted(dropped).violations
        assert any(
            v.startswith(f"job {job} delivered") for v in violations
        ), violations

        late = resumed()
        late.segments[0].start += 1
        assert (
            f"segment 0 starts at {cp.t + 1}, expected {cp.t}"
            in validate_faulted(late).violations
        )

        rerun = resumed()
        done = min(cp.completed)
        run = rerun.segments[0].runs[0]
        run.shares = {**run.shares, done: Fraction(1, 100)}
        run.processors = {**run.processors, done: 3}
        assert any(
            f"job {done} processed after finishing at step "
            f"{cp.completed[done]}" in v
            for v in validate_faulted(rerun).violations
        )

    def test_resume_empty_plan_equals_straight_through(self):
        """checkpoint -> restore -> run == the run that took the checkpoint.

        Note ``checkpoint_every`` may change the schedule relative to an
        unsegmented run (each boundary re-invokes the approximation on
        residuals — see docs/ROBUSTNESS.md); the identity under test is
        that resuming reproduces the segmented run's own tail exactly.
        """
        inst = _inst(m=3, n=8, seed=7)
        straight = run_with_faults(
            inst, FaultPlan.empty(), checkpoint_every=5
        )
        assert validate_faulted(straight).ok
        cp = straight.checkpoints[0]
        resumed = run_with_faults(
            inst, FaultPlan.empty(), from_checkpoint=cp
        )
        assert resumed.makespan == straight.makespan
        assert resumed.completion_times == straight.completion_times

    def test_checkpoint_every_boundaries(self):
        res = run_with_faults(_inst(), FaultPlan.empty(), checkpoint_every=4)
        times = [cp.t for cp in res.checkpoints]
        # every multiple of 4 inside the run is a boundary
        for t in range(4, res.makespan, 4):
            assert t in times

    def test_checkpoint_json_round_trips_through_resume(self, tmp_path):
        inst = _inst(m=4, n=14, seed=2)
        plan = _plan()
        full = run_with_faults(inst, plan)
        path = tmp_path / "cp.json"
        full.checkpoints[0].save(str(path))
        from repro.faults import Checkpoint

        resumed = run_with_faults(
            inst, plan, from_checkpoint=Checkpoint.load(str(path))
        )
        assert resumed.makespan == full.makespan


class TestRecover:
    def test_tail_passes_validation(self):
        inst = _inst(m=4, n=14, seed=2)
        full = run_with_faults(inst, _plan())
        cp = next(c for c in full.checkpoints if c.residual)
        tail = recover(inst, cp)
        assert validate_result(tail.result).ok
        assert tail.makespan > cp.t
        assert set(tail.completion_times) == set(cp.residual)

    def test_recover_without_residual_raises(self):
        inst = _inst()
        full = run_with_faults(inst, FaultPlan.empty())
        done = full.checkpoints[-1]
        assert not done.residual
        with pytest.raises(FaultRecoveryError):
            recover(inst, done)

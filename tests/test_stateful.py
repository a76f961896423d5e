"""Stateful property test: a random-but-legal adversary drives the engine.

A hypothesis RuleBasedStateMachine plays the scheduler's adversary: at each
step it picks an arbitrary *legal* share assignment (continuing every
started job, never overusing resource or processors) and asserts the state
invariants that the whole library relies on.  This explores state spaces no
fixed algorithm visits — e.g. many concurrently fractured jobs, pathological
start patterns — and pins down that the *model layer* (state, schedule,
validator) is sound independently of any scheduling policy.

Plus tests for the selftest battery.
"""

from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.validate import validate_schedule
from repro.engine.loop import StepDecision

from conftest import exact_state


class EngineAdversary(RuleBasedStateMachine):
    """Drives an exact engine state with arbitrary legal steps."""

    @initialize(
        m=st.integers(min_value=1, max_value=4),
        reqs=st.lists(
            st.builds(
                Fraction,
                st.integers(min_value=1, max_value=16),
                st.integers(min_value=4, max_value=16),
            ),
            min_size=1,
            max_size=6,
        ),
        sizes=st.lists(
            st.integers(min_value=1, max_value=3), min_size=6, max_size=6
        ),
    )
    def setup(self, m, reqs, sizes):
        self.instance = Instance.from_requirements(
            m, reqs, sizes[: len(reqs)]
        )
        self.state = exact_state(self.instance)
        self.schedule = Schedule(instance=self.instance)
        self.steps_taken = 0

    @rule(data=st.data())
    def legal_step(self, data):
        if self.state.unfinished_count == 0 or self.steps_taken > 60:
            return
        # started jobs must continue (non-preemption); then admit a random
        # subset of fresh jobs within processor and resource budgets
        budget = Fraction(1)
        shares = {}
        used = Fraction(0)
        slots = self.instance.m
        started = self.state.started_jobs()
        for idx, j in enumerate(started):
            # reserve an equal slice of the leftover for every remaining
            # started job so that each can legally receive > 0
            slice_cap = (budget - used) / (len(started) - idx)
            cap = min(
                self.instance.requirement(j),
                self.state.remaining[j],
                slice_cap,
            )
            assert cap > 0, "a started job must be continuable"
            num = data.draw(
                st.integers(min_value=1, max_value=16), label=f"cont{j}"
            )
            shares[j] = cap * num / 16
            used += shares[j]
            slots -= 1
        fresh = [
            j for j in self.state.unfinished()
            if not self.state.is_started(j)
        ]
        for j in fresh:
            if slots <= 0 or used >= budget:
                break
            if not data.draw(st.booleans(), label=f"admit{j}"):
                continue
            cap = min(
                self.instance.requirement(j),
                self.state.remaining[j],
                budget - used,
            )
            if cap <= 0:
                continue
            num = data.draw(
                st.integers(min_value=1, max_value=16), label=f"amt{j}"
            )
            share = cap * num / 16
            if share > 0:
                shares[j] = share
                used += share
                slots -= 1
        # drop zero shares for jobs that could not be served (started jobs
        # with zero capacity cannot exist: remaining > 0 while started)
        shares = {j: s for j, s in shares.items() if s > 0}
        if not shares:
            return
        self.state.apply_decision(StepDecision(shares=shares))
        owner = self.state.processor_of
        self.schedule.append_step(
            {j: (owner[j], s) for j, s in shares.items()}
        )
        self.steps_taken += 1

    @invariant()
    def resource_accounting_consistent(self):
        if not hasattr(self, "state"):
            return
        # remaining requirements never negative, finished jobs stay finished
        for j in self.instance.jobs:
            assert self.state.remaining[j.id] >= 0
            if self.state.remaining[j.id] == 0:
                assert j.id not in self.state.unfinished()

    @invariant()
    def processors_never_oversubscribed(self):
        if not hasattr(self, "state"):
            return
        running = self.state.started_jobs()
        assert len(running) <= self.instance.m
        procs = {self.state.processor_of[j] for j in running}
        assert len(procs) == len(running)

    @invariant()
    def partial_schedule_always_validates(self):
        if not hasattr(self, "state"):
            return
        report = validate_schedule(
            self.schedule, require_all_finished=False
        )
        assert report.ok, report.violations[:5]

    @invariant()
    def fractured_consistency(self):
        if not hasattr(self, "state"):
            return
        for j in self.state.unfinished():
            q = self.state.remaining[j] % self.state.req[j]
            if q:  # fractured
                assert 0 < q < self.instance.requirement(j)


EngineAdversaryTest = EngineAdversary.TestCase
EngineAdversaryTest.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)


class TestSelftest:
    def test_battery_passes(self):
        from repro.analysis.selftest import format_selftest, run_selftest

        result = run_selftest(trials=8, seed=3)
        assert result.ok, format_selftest(result)
        assert result.checks > 40

    def test_formatting(self):
        from repro.analysis.selftest import (
            SelfTestResult,
            format_selftest,
        )

        good = SelfTestResult(checks=5)
        assert "OK" in format_selftest(good)
        bad = SelfTestResult(checks=5, failures=["boom"])
        assert "FAILED" in format_selftest(bad)

    def test_cli_selftest(self, capsys):
        from repro.cli import main

        assert main(["selftest", "--trials", "4"]) == 0
        assert "selftest OK" in capsys.readouterr().out

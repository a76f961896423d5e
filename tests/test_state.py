"""Tests for the engine state's bookkeeping (repro.engine.state), stepped
on the engine's one path (``EngineState.apply_decision``), and for the
ledger's ``J(t)`` neighbours (``L_t``/``R_t`` of Definition 3.1)."""

from fractions import Fraction

import pytest

from repro.core.instance import Instance
from repro.core.validate import _srj_ledger
from repro.engine.loop import StepDecision

from conftest import exact_state, take_step

INSTANCE = Instance.from_requirements(
    3,
    [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
    sizes=[2, 1, 2],
)


@pytest.fixture
def state():
    return exact_state(INSTANCE)


def step(state, shares, count=1):
    """Apply *shares* for *count* steps; return the finished keys."""
    return state.apply_decision(StepDecision(shares=shares, count=count))


def fractured(state):
    """The unfinished jobs whose remaining work is not a multiple of r_j."""
    return [j for j in state.unfinished()
            if state.remaining[j] % state.req[j]]


class TestInitialState:
    def test_remaining_initialized(self, state):
        assert state.remaining[0] == Fraction(1, 2)   # 2 * 1/4
        assert state.remaining[1] == Fraction(1, 2)   # 1 * 1/2
        assert state.remaining[2] == Fraction(3, 2)   # 2 * 3/4

    def test_nothing_started_or_fractured(self, state):
        assert state.started_jobs() == []
        assert fractured(state) == []
        assert state.unfinished() == [0, 1, 2]

    def test_all_processors_free(self, state):
        assert state.available_processors() == 3
        assert not state._busy_processors
        assert state.processor_of == {}


class TestTransitions:
    def test_apply_step_partial(self, state):
        finished = step(state, {0: Fraction(1, 4)})
        assert finished == []
        assert state.processor_of == {0: 0}
        assert state.remaining[0] == Fraction(1, 4)
        assert state.is_started(0)
        assert fractured(state) == []  # 1/4 is a multiple of r=1/4

    def test_apply_step_fracturing(self, state):
        step(state, {2: Fraction(1, 2)})
        # remaining 1 = 3/2 - 1/2 is not a multiple of 3/4
        assert fractured(state) == [2]
        assert state.remaining[2] % state.req[2] == Fraction(1, 4)

    def test_apply_step_finish_releases_processor(self, state):
        finished = step(state, {1: Fraction(1, 2)})
        assert finished == [1]
        assert state.processor_of[1] not in state._busy_processors
        assert state.unfinished() == [0, 2]
        assert state.remaining[1] == 0
        assert state.completion_times == {1: 1}

    def test_apply_bulk_matches_repeated_steps(self, state):
        s2 = exact_state(INSTANCE)
        shares = {0: Fraction(1, 4), 2: Fraction(1, 4)}
        for _ in range(2):
            step(state, dict(shares))
        step(s2, dict(shares), count=2)
        assert state.remaining == s2.remaining
        assert state.unfinished() == s2.unfinished()
        assert state.completion_times == s2.completion_times
        assert state.t == s2.t == 2

    def test_negative_share_rejected(self, state):
        with pytest.raises(ValueError):
            step(state, {0: Fraction(-1, 4)})

    def test_processor_assignment_stable(self, state):
        step(state, {0: Fraction(1, 4), 2: Fraction(1, 4)})
        p1 = state.processor_of[2]
        step(state, {2: Fraction(1, 4)})
        assert state.processor_of[2] == p1

    def test_processor_exhaustion_raises(self):
        inst = Instance.from_requirements(
            1, [Fraction(1, 2), Fraction(1, 2)], sizes=[2, 2]
        )
        st = exact_state(inst)
        step(st, {0: Fraction(1, 2)})
        with pytest.raises(RuntimeError):
            step(st, {1: Fraction(1, 2)})


@pytest.fixture
def ledger():
    return _srj_ledger(INSTANCE, [])


class TestWindowSets:
    def test_left_right_of(self, ledger):
        assert ledger.neighbours(1) == (0, 2)
        assert ledger.neighbours(0)[0] is None
        assert ledger.neighbours(2)[1] is None

    def test_empty_window_conventions(self, ledger):
        # L(∅) = ∅ and R(∅) = J(t): an empty window is not right-maximal
        assert ledger.window_faults([], 2, Fraction(1)) == ["f"]

    def test_sets_respect_finished(self, state, ledger):
        take_step(state, {1: Fraction(1, 2)}, ledger)
        assert ledger.neighbours(2)[0] == 0
        assert ledger.neighbours(0)[1] == 2

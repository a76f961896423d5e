"""Tests for scheduler state bookkeeping (repro.core.state)."""

from fractions import Fraction

import pytest

from repro.core.instance import Instance
from repro.core.state import SchedulerState
from repro.core.validate import left_neighbors, right_neighbors


@pytest.fixture
def state():
    inst = Instance.from_requirements(
        3,
        [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
        sizes=[2, 1, 2],
    )
    return SchedulerState(inst)


class TestInitialState:
    def test_remaining_initialized(self, state):
        assert state.remaining[0] == Fraction(1, 2)   # 2 * 1/4
        assert state.remaining[1] == Fraction(1, 2)   # 1 * 1/2
        assert state.remaining[2] == Fraction(3, 2)   # 2 * 3/4

    def test_nothing_started_or_fractured(self, state):
        assert state.started_jobs() == []
        assert state.fractured_jobs() == []
        assert state.unfinished() == [0, 1, 2]

    def test_all_processors_free(self, state):
        assert state.free_processors() == [0, 1, 2]


class TestTransitions:
    def test_apply_step_partial(self, state):
        state.processor_for(0)
        finished = state.apply_step({0: Fraction(1, 4)})
        assert finished == []
        assert state.remaining[0] == Fraction(1, 4)
        assert state.is_started(0)
        assert not state.is_fractured(0)  # 1/4 is a multiple of r=1/4

    def test_apply_step_fracturing(self, state):
        state.apply_step({2: Fraction(1, 2)})
        # remaining 1 = 3/2 - 1/2 is not a multiple of 3/4
        assert state.is_fractured(2)
        assert state.fractured_remainder(2) == Fraction(1, 4)

    def test_apply_step_finish_releases_processor(self, state):
        proc = state.processor_for(1)
        finished = state.apply_step({1: Fraction(1, 2)})
        assert finished == [1]
        assert proc in state.free_processors()
        assert state.unfinished() == [0, 2]
        assert state.is_finished(1)

    def test_apply_bulk_matches_repeated_steps(self, state):
        import copy

        s2 = SchedulerState(state.instance)
        shares = {0: Fraction(1, 4), 2: Fraction(1, 4)}
        for _ in range(2):
            state.apply_step(dict(shares))
        s2.apply_bulk(dict(shares), 2)
        assert state.remaining == s2.remaining
        assert state.unfinished() == s2.unfinished()
        assert state.t == s2.t == 2

    def test_apply_bulk_requires_positive_k(self, state):
        with pytest.raises(ValueError):
            state.apply_bulk({0: Fraction(1, 4)}, 0)

    def test_negative_share_rejected(self, state):
        with pytest.raises(ValueError):
            state.apply_step({0: Fraction(-1, 4)})

    def test_processor_assignment_stable(self, state):
        p1 = state.processor_for(0)
        state.apply_step({0: Fraction(1, 4)})
        p2 = state.processor_for(0)
        assert p1 == p2

    def test_processor_exhaustion_raises(self):
        inst = Instance.from_requirements(
            1, [Fraction(1, 2), Fraction(1, 2)], sizes=[2, 2]
        )
        st = SchedulerState(inst)
        st.processor_for(0)
        st.apply_step({0: Fraction(1, 2)})
        with pytest.raises(RuntimeError):
            st.processor_for(1)


def left_of(state, window):
    """``L_t(W)`` over the state's unfinished jobs."""
    return left_neighbors(state.unfinished(), window)


def right_of(state, window):
    """``R_t(W)`` over the state's unfinished jobs."""
    return right_neighbors(state.unfinished(), window)


class TestWindowSets:
    def test_left_right_of(self, state):
        assert left_of(state, [1]) == [0]
        assert right_of(state, [1]) == [2]
        assert left_of(state, [0, 1]) == []
        assert right_of(state, [2]) == []

    def test_empty_window_conventions(self, state):
        assert left_of(state, []) == []
        assert right_of(state, []) == [0, 1, 2]

    def test_sets_respect_finished(self, state):
        state.apply_step({1: Fraction(1, 2)})
        assert left_of(state, [2]) == [0]
        assert right_of(state, [0]) == [2]

"""Tests for the window machinery (Definition 3.1 / Listing 2).

Listing 2's procedures run inside the engine routine
:func:`repro.engine.policies.window_step`; each per-procedure case calls
the routine with inputs under which the other procedures are no-ops, and
reads the step's window off the returned decision.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core.instance import Instance
from repro.core.state import SchedulerState
from repro.core.validate import (
    is_k_maximal,
    left_neighbors,
    right_neighbors,
    window_requirement,
    window_violations,
)
from repro.engine.policies import window_step

from conftest import srj_instances

ONE = Fraction(1)


def make_state(reqs, m=4, sizes=None):
    inst = Instance.from_requirements(m, reqs, sizes)
    return SchedulerState(inst)


def compute_window(st, previous, size, budget=ONE, enable_move=True):
    """The window Listing 1 processes this step (lines 2-5)."""
    decision, _next = window_step(
        st, previous, st.unfinished(), size, budget, enable_move
    )
    return decision.window


class TestNeighbors:
    def test_left_right_basic(self):
        universe = [0, 1, 2, 3, 4]
        assert left_neighbors(universe, [2, 3]) == [0, 1]
        assert right_neighbors(universe, [2, 3]) == [4]

    def test_empty_window(self):
        universe = [0, 1]
        assert left_neighbors(universe, []) == []
        assert right_neighbors(universe, []) == [0, 1]

    def test_window_at_borders(self):
        universe = [0, 1, 2]
        assert left_neighbors(universe, [0]) == []
        assert right_neighbors(universe, [2]) == []


class TestGrowLeft:
    def test_grows_until_size(self):
        st = make_state([Fraction(1, 10)] * 5, m=4)
        # [4] is at the right border, so neither right growth nor the
        # slide can add a job
        w = compute_window(st, [4], 3)
        assert w == [2, 3, 4]

    def test_respects_budget(self):
        st = make_state(
            [Fraction(2, 5), Fraction(2, 5), Fraction(2, 5)], m=4
        )
        # r(W) reaches 4/5 after one add; adding the next would still be
        # allowed only while r(W) < 1
        w = compute_window(st, [2], 3)
        assert w == [0, 1, 2]  # 2/5+2/5 = 4/5 < 1 allows second add

    def test_stops_at_budget(self):
        st = make_state([Fraction(3, 5), Fraction(3, 5), Fraction(3, 5)], m=4)
        w = compute_window(st, [2], 3)
        # after adding job 1, r = 6/5 >= 1, so job 0 is not added
        assert w == [1, 2]

    def test_noop_for_empty_window(self):
        st = make_state([Fraction(1, 2)] * 3)
        # a zero budget keeps right growth and the slide from adding jobs
        assert compute_window(st, [], 3, budget=0) == []


class TestGrowRight:
    def test_grows_to_budget(self):
        st = make_state([Fraction(2, 5)] * 4, m=4)
        w = compute_window(st, [], 3)
        # adds jobs until r(W) >= 1: 2/5, 4/5, 6/5 -> three jobs
        assert w == [0, 1, 2]

    def test_respects_size(self):
        st = make_state([Fraction(1, 10)] * 6, m=4)
        # MoveWindowRight off: the size-2 window would otherwise slide
        w = compute_window(st, [], 2, enable_move=False)
        assert w == [0, 1]


class TestMoveRight:
    def test_slides_past_unstarted(self):
        st = make_state(
            [Fraction(1, 10), Fraction(1, 10), Fraction(1), Fraction(1)], m=3
        )
        # size 2 = |W| keeps GrowWindowRight from adding a job
        w = compute_window(st, [0, 1], 2)
        # slides right until r(W) >= 1
        assert w == [1, 2] or w == [2, 3]
        assert window_requirement(st, w) >= 1

    def test_blocked_by_started_job(self):
        st = make_state(
            [Fraction(1, 10), Fraction(1, 10), Fraction(1)], m=3
        )
        st.apply_step({0: Fraction(1, 20)})  # start (and fracture) job 0
        w = compute_window(st, [0, 1], 2)
        assert w[0] == 0  # cannot drop the started job

    def test_noop_when_budget_met(self):
        st = make_state([Fraction(1), Fraction(1)], m=2)
        assert compute_window(st, [0], 1) == [0]


class TestComputeWindowAndMaximality:
    def test_initial_window_is_maximal(self):
        st = make_state([Fraction(1, 4)] * 6, m=4)
        w = compute_window(st, [], 3)
        assert is_k_maximal(st, w, 3, ONE)
        # r(any 3 jobs) = 3/4 < 1, so the maximal window hugs the right
        # border (property (f))
        assert w == [3, 4, 5]

    def test_window_after_finishes_is_maximal(self):
        st = make_state([Fraction(1, 4)] * 6, m=4)
        w = compute_window(st, [], 3)
        st.apply_step({0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 4)})
        w2 = compute_window(st, w, 3)
        assert is_k_maximal(st, w2, 3, ONE)

    def test_violations_reported(self):
        st = make_state([Fraction(1, 4)] * 6, m=4)
        # non-contiguous window
        assert "a" in window_violations(st, [0, 2], 3, ONE)
        # too large
        assert "size" in window_violations(st, [0, 1, 2, 3], 3, ONE)
        # not left-maximal
        assert "e" in window_violations(st, [2, 3], 3, ONE)

    def test_property_b_violation(self):
        st = make_state([Fraction(3, 5), Fraction(3, 5), Fraction(3, 5)], m=4)
        # r(W \ {max}) = 6/5 >= 1 violates (b)
        assert "b" in window_violations(st, [0, 1, 2], 3, ONE)

    def test_property_d_violation(self):
        st = make_state([Fraction(1, 4)] * 4, m=4)
        st.apply_step({0: Fraction(1, 8)})
        v = window_violations(st, [1, 2, 3], 3, ONE)
        assert "d" in v

    def test_property_f_for_empty_window(self):
        st = make_state([Fraction(1, 4)] * 2, m=4)
        assert "f" in window_violations(st, [], 3, ONE)

    @given(inst=srj_instances(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_property_initial_window_maximal(self, inst):
        st = SchedulerState(inst)
        size = max(inst.m - 1, 1)
        w = compute_window(st, [], size)
        assert is_k_maximal(st, w, size, ONE), window_violations(
            st, w, size, ONE
        )

"""Tests for the per-step resource assignment (Listing 1 lines 6-20).

The assignment runs inside the engine routine
:func:`repro.engine.policies.window_step`.  Each case passes the window
under test as the previous window, with a window size equal to its length
and inputs under which the window procedures keep it as it is, so the
decision is the assignment of exactly that window.
"""

from fractions import Fraction

import pytest

from repro.core.instance import Instance
from repro.engine.policies import window_step

from conftest import exact_state, take_step

ONE = Fraction(1)


def make_state(reqs, m=4, sizes=None):
    return exact_state(Instance.from_requirements(m, reqs, sizes))


def assign(st, window, enable_move=True):
    """``(decision, next_window)`` of the routine run on *window*."""
    decision, next_window = window_step(
        st, window, st.unfinished(), len(window), ONE, enable_move
    )
    assert decision.window == window
    return decision, next_window


def total(decision):
    return sum(decision.shares.values(), Fraction(0))


def is_fractured(st, j):
    """``s_j(t)`` is positive and not a multiple of ``r_j``."""
    return st.remaining[j] % st.req[j] != 0


def fractured_jobs(st):
    return [j for j in st.unfinished() if is_fractured(st, j)]


def fractured_in(st, decision):
    """F of the step: the window jobs fractured at its start."""
    return [j for j in decision.window if is_fractured(st, j)]


def fully_served(st, decision):
    return [j for j, c in decision.shares.items() if c == st.req[j]]


class TestCase1:
    def test_case1_no_fracture(self):
        # r(W) = 0.4 + 0.4 + 0.4 = 1.2 >= 1, nothing fractured
        st = make_state([Fraction(2, 5)] * 3, m=4, sizes=[2, 2, 2])
        a, _ = assign(st, [0, 1, 2])
        assert a.case == "case1"
        assert a.shares[0] == Fraction(2, 5)
        assert a.shares[1] == Fraction(2, 5)
        # max W gets the remaining 1/5
        assert a.shares[2] == Fraction(1, 5)
        assert a.waste == 0
        assert total(a) == 1

    def test_case1_unfractures_iota(self):
        # r(W \ F) = 1/2 + 3/5 = 11/10 >= 1 with job 0 fractured
        st = make_state(
            [Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)],
            m=4, sizes=[2, 2, 2],
        )
        # fracture job 0: give it 1/5 (remaining 3/5, not a multiple of 2/5)
        take_step(st, {0: Fraction(1, 5)})
        assert is_fractured(st, 0)
        a, _ = assign(st, [0, 1, 2])
        assert a.case == "case1"
        assert fractured_in(st, a) == [0]
        # iota gets exactly its fractional remainder q = 1/5
        assert a.shares[0] == Fraction(1, 5)
        # max W gets the rest: 1 - 1/2 - 1/5 = 3/10
        assert a.shares[2] == Fraction(3, 10)
        take_step(st, a.shares)
        assert not is_fractured(st, 0)
        # ...but max W is now the (single) fractured job
        assert fractured_jobs(st) == [2]

    def test_case1_full_resource_used(self):
        st = make_state(
            [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)], m=4,
            sizes=[2, 2, 2],
        )
        a, _ = assign(st, [0, 1, 2])
        assert total(a) == 1
        assert a.waste == 0


class TestCase2:
    def test_case2_all_full(self):
        # r(W) = 0.6 < 1, everything gets its full requirement
        st = make_state([Fraction(1, 5)] * 3, m=4, sizes=[2, 2, 2])
        a, _ = assign(st, [0, 1, 2])
        assert a.case == "case2"
        for j in (0, 1, 2):
            assert a.shares[j] == Fraction(1, 5)
        assert a.waste == Fraction(2, 5)  # right border, nothing to start

    def test_case2_extra_start_when_iota_finishes(self):
        # window [0,1] with a fractured nearly-done job and work remaining
        # to the right: leftover resource starts the next job
        st = make_state(
            [Fraction(1, 2), Fraction(3, 5), Fraction(7, 10)],
            m=3, sizes=[1, 1, 1],
        )
        # fracture job 0 down to a sliver
        take_step(st, {0: Fraction(2, 5)})  # remaining 1/10
        assert is_fractured(st, 0)
        a, next_window = assign(st, [0, 1])
        assert a.case == "case2"
        # iota finishes (1/10), job 1 gets 3/5 fully, leftover 3/10 starts 2
        assert a.shares[0] == Fraction(1, 10)
        assert a.shares[1] == Fraction(3, 5)
        assert next_window == [0, 1, 2]  # the reserved-processor start
        assert a.shares[2] == Fraction(3, 10)
        assert a.waste == 0

    def test_case2_no_extra_start_when_disallowed(self):
        st = make_state(
            [Fraction(1, 2), Fraction(3, 5), Fraction(7, 10)],
            m=3, sizes=[1, 1, 1],
        )
        take_step(st, {0: Fraction(2, 5)})
        # enable_move=False (ablation E7) disables the reserved start
        a, next_window = assign(st, [0, 1], enable_move=False)
        assert next_window == [0, 1]
        assert a.waste == Fraction(3, 10)

    def test_case2_iota_capped_by_budget_gap(self):
        st = make_state(
            [Fraction(1, 2), Fraction(3, 5)], m=3, sizes=[2, 1],
        )
        take_step(st, {0: Fraction(1, 5)})  # job0 remaining 4/5, fractured
        a, _ = assign(st, [0, 1])
        assert a.case == "case2"
        # iota gets min(1 - 3/5, 4/5, 1/2) = 2/5
        assert a.shares[0] == Fraction(2, 5)
        assert a.shares[1] == Fraction(3, 5)


class TestInvariantEnforcement:
    def test_two_fractured_jobs_rejected(self):
        st = make_state([Fraction(2, 5)] * 2, m=3, sizes=[2, 2])
        take_step(st, {0: Fraction(1, 5), 1: Fraction(1, 5)})
        assert len(fractured_jobs(st)) == 2
        with pytest.raises(RuntimeError):
            assign(st, [0, 1])

    def test_empty_window_wastes_budget(self):
        st = make_state([Fraction(1, 2)], m=2)
        a, _ = assign(st, [])  # size 0: the window stays empty
        assert a.shares == {}
        assert a.waste == ONE

    def test_observation_32_full_requirements(self):
        """Observation 3.2: at least |W| - 1 jobs receive full r_j."""
        st = make_state(
            [Fraction(1, 4), Fraction(2, 5), Fraction(1, 2)], m=4,
            sizes=[2, 2, 2],
        )
        a, _ = assign(st, [0, 1, 2])
        assert len(fully_served(st, a)) >= 2

    def test_every_window_job_gets_positive_share(self):
        st = make_state(
            [Fraction(1, 4), Fraction(2, 5), Fraction(3, 4)], m=4,
            sizes=[2, 2, 2],
        )
        a, _ = assign(st, [0, 1, 2])
        for j in (0, 1, 2):
            assert a.shares.get(j, Fraction(0)) > 0

    def test_oversized_requirement_job(self):
        # r = 3/2 > 1: alone in the window, gets the full budget
        st = make_state([Fraction(3, 2)], m=3, sizes=[2])
        a, _ = assign(st, [0])
        assert a.case == "case1"  # r(W \ F) = 3/2 >= 1
        assert a.shares[0] == 1

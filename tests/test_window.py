"""Tests for the window machinery (Definition 3.1 / Listing 2).

Listing 2's procedures run inside the engine routine
:func:`repro.engine.policies.window_step`; each per-procedure case calls
the routine with inputs under which the other procedures are no-ops, and
reads the step's window off the returned decision.  Definition 3.1 is
checked by the validators' ledger (:meth:`_Ledger.window_faults`), booked
on the same steps as the state.
"""

from fractions import Fraction

from hypothesis import given, settings

from repro.core.instance import Instance
from repro.core.validate import _srj_ledger
from repro.engine.policies import window_step

from conftest import exact_state, srj_instances, take_step

ONE = Fraction(1)


def make_state(reqs, m=4, sizes=None):
    return exact_state(Instance.from_requirements(m, reqs, sizes))


def make_pair(reqs, m=4, sizes=None):
    """An exact state and a ledger over the same instance."""
    inst = Instance.from_requirements(m, reqs, sizes)
    return exact_state(inst), _srj_ledger(inst, [])


def compute_window(st, previous, size, budget=ONE, enable_move=True):
    """The window Listing 1 processes this step (lines 2-5)."""
    decision, _next = window_step(
        st, previous, st.unfinished(), size, budget, enable_move
    )
    return decision.window


class TestNeighbors:
    """``L_t(W)`` and ``R_t(W)`` as the ledger reads them: the jobs of
    ``J(t)`` next to ``min W`` and ``max W``."""

    def test_left_right_basic(self):
        _st, ledger = make_pair([Fraction(1, 10)] * 5)
        # W = [2, 3]: L = [0, 1], R = [4]
        assert ledger.neighbours(2) == (1, 3)
        assert ledger.neighbours(3) == (2, 4)
        faults = ledger.window_faults([2, 3], 3, ONE)
        assert "e" in faults and "f" in faults

    def test_empty_window(self):
        _st, ledger = make_pair([Fraction(1, 10)] * 2)
        # L(∅) = ∅ never fails (e); R(∅) = J(t) = [0, 1] fails (f)
        assert ledger.window_faults([], 3, ONE) == ["f"]

    def test_window_at_borders(self):
        _st, ledger = make_pair([Fraction(1, 2)] * 3)
        assert ledger.neighbours(0)[0] is None
        assert ledger.neighbours(2)[1] is None
        assert "e" not in ledger.window_faults([0], 3, ONE)
        assert "f" not in ledger.window_faults([2], 3, ONE)


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
        assert sum(st.req[j] for j in w) >= 1

    def test_blocked_by_started_job(self):
        st = make_state(
            [Fraction(1, 10), Fraction(1, 10), Fraction(1)], m=3
        )
        take_step(st, {0: Fraction(1, 20)})  # start (and fracture) job 0
        w = compute_window(st, [0, 1], 2)
        assert w[0] == 0  # cannot drop the started job

    def test_noop_when_budget_met(self):
        st = make_state([Fraction(1), Fraction(1)], m=2)
        assert compute_window(st, [0], 1) == [0]


class TestComputeWindowAndMaximality:
    def test_initial_window_is_maximal(self):
        st, ledger = make_pair([Fraction(1, 4)] * 6, m=4)
        w = compute_window(st, [], 3)
        assert ledger.window_faults(w, 3, ONE) == []
        # r(any 3 jobs) = 3/4 < 1, so the maximal window hugs the right
        # border (property (f))
        assert w == [3, 4, 5]

    def test_window_after_finishes_is_maximal(self):
        st, ledger = make_pair([Fraction(1, 4)] * 6, m=4)
        w = compute_window(st, [], 3)
        take_step(
            st, {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 4)},
            ledger,
        )
        w2 = compute_window(st, w, 3)
        assert ledger.window_faults(w2, 3, ONE) == []

    def test_violations_reported(self):
        _st, ledger = make_pair([Fraction(1, 4)] * 6, m=4)
        # non-contiguous window
        assert "a" in ledger.window_faults([0, 2], 3, ONE)
        # too large
        assert "size" in ledger.window_faults([0, 1, 2, 3], 3, ONE)
        # not left-maximal
        assert "e" in ledger.window_faults([2, 3], 3, ONE)

    def test_property_b_violation(self):
        _st, ledger = make_pair(
            [Fraction(3, 5), Fraction(3, 5), Fraction(3, 5)], m=4
        )
        # r(W \ {max}) = 6/5 >= 1 violates (b)
        assert "b" in ledger.window_faults([0, 1, 2], 3, ONE)

    def test_property_c_violation(self):
        st, ledger = make_pair([Fraction(2, 5)] * 3, m=4, sizes=[2, 2, 2])
        take_step(st, {0: Fraction(1, 5), 1: Fraction(1, 5)}, ledger)
        # jobs 0 and 1 both owe 3/5, not a multiple of r = 2/5
        assert "c" in ledger.window_faults([0, 1, 2], 3, ONE)
        assert "c" not in ledger.window_faults([1, 2], 3, ONE)

    def test_property_d_violation(self):
        st, ledger = make_pair([Fraction(1, 4)] * 4, m=4)
        take_step(st, {0: Fraction(1, 8)}, ledger)
        v = ledger.window_faults([1, 2, 3], 3, ONE)
        assert "d" in v

    def test_property_f_for_empty_window(self):
        _st, ledger = make_pair([Fraction(1, 4)] * 2, m=4)
        assert "f" in ledger.window_faults([], 3, ONE)

    def test_finished_member_breaks_contiguity(self):
        st, ledger = make_pair([Fraction(1, 4)] * 4, m=4)
        take_step(st, {1: Fraction(1, 4)}, ledger)  # job 1 finishes
        assert ledger.window_faults([0, 2, 3], 3, ONE) == []
        assert "a" in ledger.window_faults([0, 1, 2], 3, ONE)

    @given(inst=srj_instances(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_property_initial_window_maximal(self, inst):
        st, ledger = exact_state(inst), _srj_ledger(inst, [])
        size = max(inst.m - 1, 1)
        w = compute_window(st, [], size)
        assert ledger.window_faults(w, size, ONE) == []

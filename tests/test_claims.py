"""Direct tests of the paper's Claims 3.4-3.6 and Lemmas 3.7-3.8.

Each claim from the analysis of Section 3 gets its own property test that
replays the exact inductive situation the claim covers (with the
GrowWindowLeft repair documented in DESIGN.md §2), on the windows of the
engine routine :func:`repro.engine.policies.window_step` that every
Listing-1 path runs.
"""

from fractions import Fraction

from hypothesis import given, settings

from repro.core.instance import Instance
from repro.core.state import SchedulerState
from repro.core.validate import (
    is_k_maximal,
    window_requirement_without_max,
    window_violations,
)
from repro.engine.api import solve_srj
from repro.engine.policies import window_step

from conftest import srj_instances

ONE = Fraction(1)


def _step(state, window, size, enable_move=True):
    """One Listing-1 decision: ``(decision, next_window)``."""
    return window_step(
        state, window, state.unfinished(), size, ONE, enable_move
    )


def _run_to_step(inst, steps):
    """Advance the algorithm *steps* steps; return (state, window)."""
    state = SchedulerState(inst)
    window = []
    size = max(inst.m - 1, 1)
    for _ in range(steps):
        if state.n_unfinished() == 0:
            break
        decision, window = _step(state, window, size)
        state.apply_step(decision.shares)
    return state, window


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=50, deadline=None)
def test_claim_34_properties_a_to_d_preserved(inst):
    """Claim 3.4: if (a)-(d) hold before the auxiliary procedures, they
    hold after them — checked on the routine's window with the slide off
    (after both Grow procedures) and on (after MoveWindowRight)."""
    size = inst.m - 1
    state, window = _run_to_step(inst, 3)
    if state.n_unfinished() == 0:
        return
    universe = state.unfinished()
    alive = set(universe)
    w = [j for j in window if j in alive]

    def no_abcd_violation(win):
        v = window_violations(state, win, size, ONE, universe)
        return not ({"a", "b", "c", "d"} & set(v))

    assert no_abcd_violation(w)
    grown, _ = _step(state, w, size, enable_move=False)
    assert no_abcd_violation(grown.window), "after GrowWindowLeft/Right"
    moved, _ = _step(state, w, size)
    assert no_abcd_violation(moved.window), "after MoveWindowRight"


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=50, deadline=None)
def test_claim_35_empty_start_gives_maximal_window(inst):
    """Claim 3.5: from W = ∅ with no started jobs the procedures yield an
    (m-1)-maximal window."""
    state = SchedulerState(inst)
    size = inst.m - 1
    decision, _ = _step(state, [], size)
    assert is_k_maximal(state, decision.window, size, ONE)


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=50, deadline=None)
def test_claim_36_inductive_maximality(inst):
    """Claim 3.6 (repaired): from a maximal previous window, the next
    window is maximal again — tested over the first 6 steps."""
    size = inst.m - 1
    state = SchedulerState(inst)
    window = []
    for _ in range(6):
        if state.n_unfinished() == 0:
            return
        decision, window = _step(state, window, size)
        assert is_k_maximal(
            state, decision.window, size, ONE
        ), window_violations(state, decision.window, size, ONE)
        state.apply_step(decision.shares)


def test_lemma_37_counterexample_under_printed_pseudocode():
    """The instance from DESIGN.md §2 that breaks the *printed*
    GrowWindowLeft (gated on r(W) < R): the engine's repaired version must
    re-admit job 0 after step 1 and keep property (e) — checked on the
    step-2 window that ``solve_srj`` records, on both backends."""
    inst = Instance.from_requirements(
        3, [Fraction(1, 8), Fraction(1, 8), Fraction(1)]
    )
    size = 2
    for backend in ("fraction", "int"):
        trace = solve_srj(inst, backend=backend, accelerate=False).trace
        state = SchedulerState(inst)
        state.apply_step(trace[0].shares)
        # job 2 (r = 1) is fractured with remaining 1/8; jobs 0/1: one
        # finished
        w2 = trace[1].window
        assert is_k_maximal(state, w2, size, ONE), window_violations(
            state, w2, size, ONE
        )
        # the repair admits the small job; the printed code would leave {2}
        assert len(w2) == 2


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=40, deadline=None)
def test_grow_left_preserves_property_b_explicitly(inst):
    """The repaired GrowWindowLeft's defining invariant: after any number
    of adds, r(W \\ {max W}) < R — on the routine's window with and
    without the slide (right growth and the slide keep it by Claim 3.4)."""
    state, window = _run_to_step(inst, 2)
    if state.n_unfinished() == 0:
        return
    for enable_move in (False, True):
        decision, _ = _step(state, window, inst.m - 1, enable_move)
        w = decision.window
        if w:
            assert window_requirement_without_max(state, sorted(w)) < ONE


@given(inst=srj_instances(min_m=3, max_m=6, max_n=8))
@settings(max_examples=40, deadline=None)
def test_lemma_38_left_border_absorbing_stepwise(inst):
    """Lemma 3.8(a) step-local form: if the processed window touches the
    left border, the next one does too."""
    size = inst.m - 1
    state = SchedulerState(inst)
    window = []
    at_left = False
    for _ in range(30):
        if state.n_unfinished() == 0:
            return
        decision, window = _step(state, window, size)
        processed = decision.window
        universe = state.unfinished()
        touches_left = not processed or processed[0] == universe[0]
        if at_left:
            assert touches_left, "left border lost"
        at_left = at_left or touches_left
        state.apply_step(decision.shares)

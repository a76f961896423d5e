"""Direct tests of the paper's Claims 3.4-3.6 and Lemmas 3.7-3.8.

Each claim from the analysis of Section 3 (with the GrowWindowLeft repair
documented in DESIGN.md §2) is checked as a property of the trace
``solve_srj`` produced, on both backends and with the Theorem 3.3 bulk
horizon on and off: the validators' ledger walks the trace and checks
each Listing-1 window against ``J(t-1)`` (Definition 3.1).  Claim 3.4 and
the (b) invariant of the repaired GrowWindowLeft are about windows that
no trace records (the slide is off there); those tests call the engine
routine :func:`repro.engine.policies.window_step` on a hand-built exact
state and check its window with a ledger walked on the same decisions.
"""

import copy
from fractions import Fraction

from hypothesis import given, settings

from repro.core.instance import Instance
from repro.core.validate import _srj_ledger
from repro.engine.api import solve_srj
from repro.engine.policies import window_step

from conftest import (
    RUNS,
    exact_state,
    srj_instances,
    take_step,
    walk_trace,
    window_faults,
)

ONE = Fraction(1)


def _step(state, window, size, enable_move=True):
    """One Listing-1 decision: ``(decision, next_window)``."""
    return window_step(
        state, window, state.unfinished(), size, ONE, enable_move
    )


def _run_to_step(inst, steps):
    """Advance the algorithm *steps* steps; return (state, ledger, window)
    with the ledger booked on the same decisions."""
    state, ledger = exact_state(inst), _srj_ledger(inst, [])
    window = []
    size = max(inst.m - 1, 1)
    for _ in range(steps):
        if state.unfinished_count == 0:
            break
        decision, window = _step(state, window, size)
        take_step(state, decision.shares, ledger)
    return state, ledger, window


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=50, deadline=None)
def test_claim_34_properties_a_to_d_preserved(inst):
    """Claim 3.4: if (a)-(d) hold before the auxiliary procedures, they
    hold after them — checked on the routine's window with the slide off
    (after both Grow procedures) and on (after MoveWindowRight)."""
    size = inst.m - 1
    state, ledger, window = _run_to_step(inst, 3)
    if state.unfinished_count == 0:
        return
    alive = set(state.unfinished())
    w = [j for j in window if j in alive]

    def no_abcd_violation(win):
        faults = ledger.window_faults(win, size, ONE)
        return not ({"a", "b", "c", "d"} & set(faults))

    assert no_abcd_violation(w)
    grown, _ = _step(state, w, size, enable_move=False)
    assert no_abcd_violation(grown.window), "after GrowWindowLeft/Right"
    moved, _ = _step(state, w, size)
    assert no_abcd_violation(moved.window), "after MoveWindowRight"


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=50, deadline=None)
def test_claim_35_empty_start_gives_maximal_window(inst):
    """Claim 3.5: from W = ∅ with no started jobs the procedures yield an
    (m-1)-maximal window — the first window of every trace."""
    for backend, accelerate in RUNS:
        trace = solve_srj(inst, backend=backend, accelerate=accelerate).trace
        assert window_faults(inst, trace[:1]) == [], (backend, accelerate)


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=50, deadline=None)
def test_claim_36_inductive_maximality(inst):
    """Claim 3.6 (repaired): from a maximal previous window, the next
    window is maximal again — every window of the trace, in order."""
    for backend, accelerate in RUNS:
        trace = solve_srj(inst, backend=backend, accelerate=accelerate).trace
        assert window_faults(inst, trace) == [], (backend, accelerate)


def test_lemma_37_counterexample_under_printed_pseudocode():
    """The instance from DESIGN.md §2 that breaks the *printed*
    GrowWindowLeft (gated on r(W) < R): after step 1 job 1 has finished
    and job 2 (r = 1) is fractured with 1/8 left.  The printed code keeps
    W = {2} with job 0 to its left, which the check reports as (e); the
    repaired routine re-admits job 0, and every window ``solve_srj``
    records is maximal, on both backends."""
    inst = Instance.from_requirements(
        3, [Fraction(1, 8), Fraction(1, 8), Fraction(1)]
    )
    for backend, accelerate in RUNS:
        trace = solve_srj(inst, backend=backend, accelerate=accelerate).trace
        assert window_faults(inst, trace) == [], (backend, accelerate)
        assert trace[1].window == [0, 2]
        printed = copy.copy(trace[1])
        printed.window = [2]
        assert window_faults(inst, [trace[0], printed]) == [(1, 2, ["e"])]


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=40, deadline=None)
def test_grow_left_preserves_property_b_explicitly(inst):
    """The repaired GrowWindowLeft's defining invariant: after any number
    of adds, r(W \\ {max W}) < R — on the routine's window with and
    without the slide (right growth and the slide keep it by Claim 3.4)."""
    state, ledger, window = _run_to_step(inst, 2)
    if state.unfinished_count == 0:
        return
    for enable_move in (False, True):
        decision, _ = _step(state, window, inst.m - 1, enable_move)
        w = decision.window
        if w:
            assert "b" not in ledger.window_faults(w, inst.m - 1, ONE)


@given(inst=srj_instances(min_m=3, max_m=6, max_n=8))
@settings(max_examples=40, deadline=None)
def test_lemma_38_left_border_absorbing_stepwise(inst):
    """Lemma 3.8(a) step-local form: if the processed window touches the
    left border (no job of J(t-1) left of min W), the next one does too."""
    for backend, accelerate in RUNS:
        trace = solve_srj(inst, backend=backend, accelerate=accelerate).trace
        at_left = False
        for _i, run, ledger in walk_trace(inst, trace):
            w = run.window
            touches_left = not w or ledger.neighbours(w[0])[0] is None
            if at_left:
                assert touches_left, ("left border lost", backend, accelerate)
            at_left = at_left or touches_left

"""Cross-module property-based invariants — the deep checks of DESIGN.md §7.

These hypothesis tests exercise the whole pipeline (windows → assignment →
state → schedule → validation) on random instances and assert the paper's
structural invariants, not just end results.
"""

from hypothesis import given, settings

from repro.core.bounds import makespan_lower_bound
from repro.core.scheduler import schedule_srj
from repro.core.unit import schedule_unit
from repro.engine.api import solve_srj

from conftest import RUNS, srj_instances, walk_trace, window_faults


@given(inst=srj_instances(min_m=3, max_m=8, max_n=10))
@settings(max_examples=60, deadline=None)
def test_window_maximality_every_step(inst):
    """Lemma 3.7: the processed window is (m-1)-maximal in EVERY step of
    the trace (step by step with the bulk horizon off)."""
    for backend, accelerate in RUNS:
        res = solve_srj(inst, backend=backend, accelerate=accelerate)
        assert window_faults(inst, res.trace) == [], (backend, accelerate)
        assert len(res.completion_times) == inst.n


@given(inst=srj_instances(min_m=2, max_m=8, max_n=10))
@settings(max_examples=60, deadline=None)
def test_at_most_one_fractured_job_always(inst):
    """The fracture discipline: never more than one fractured job.  A
    fractured job has started, so it lies in the window (d), which holds
    at most one (c)."""
    for backend, accelerate in RUNS:
        res = solve_srj(inst, backend=backend, accelerate=accelerate)
        for _i, _t, faults in window_faults(inst, res.trace):
            assert not {"c", "d"} & set(faults), (backend, accelerate)


@given(inst=srj_instances(min_m=3, max_m=8, max_n=10))
@settings(max_examples=50, deadline=None)
def test_theorem_33_dichotomy_before_drain(inst):
    """Up to time T (both borders reached), every step serves >= m-2 jobs
    fully, uses the full resource, or finishes a job — the accounting
    behind Theorem 3.3 (finishing steps are the ``⌈p⌉`` term)."""
    from repro.numeric import frac_sum

    res = schedule_srj(inst)
    m = inst.m
    remaining = {j.id: j.total_requirement for j in inst.jobs}
    drained = False
    for run in res.trace:
        r_w = frac_sum(inst.requirement(j) for j in run.window)
        if len(run.window) < m - 1 and r_w < 1:
            drained = True
        finishes = any(
            remaining[j] <= run.count * share
            for j, share in run.shares.items()
        )
        for j, share in run.shares.items():
            remaining[j] -= run.count * share
        if drained:
            continue
        full_served = sum(
            1
            for j, share in run.shares.items()
            if share == inst.requirement(j)
        )
        total = frac_sum(run.shares.values())
        assert full_served >= m - 2 or total >= 1 or finishes, (
            run.window, dict(run.shares),
        )


@given(inst=srj_instances(min_m=2, max_m=8, max_n=10))
@settings(max_examples=50, deadline=None)
def test_window_borders_are_absorbing(inst):
    """Lemma 3.8: once the window touches the left (right) border it stays
    there, read off the neighbours of min W and max W in J(t-1)."""
    res = schedule_srj(inst)
    left_border_seen = False
    right_border_seen = False
    for _i, run, ledger in walk_trace(inst, res.trace):
        if not run.window:
            continue
        alive_left = ledger.neighbours(run.window[0])[0] is not None
        # the reserved-processor start may momentarily extend the window
        last = max(run.window + list(run.shares))
        alive_right = ledger.neighbours(last)[1] is not None
        if left_border_seen:
            assert not alive_left, "left border was lost"
        if right_border_seen:
            assert not alive_right, "right border was lost"
        left_border_seen = left_border_seen or not alive_left
        right_border_seen = right_border_seen or not alive_right


@given(inst=srj_instances(min_m=2, max_m=6, max_n=8, unit=True))
@settings(max_examples=50, deadline=None)
def test_unit_beats_or_ties_base_on_unit_instances(inst):
    """The m-maximal unit variant should usually not lose to the reserved-
    processor base algorithm; assert it never loses by more than one step
    per window round (a safe structural envelope)."""
    unit_res = schedule_unit(inst)
    base_res = schedule_srj(inst)
    lb = makespan_lower_bound(inst)
    assert unit_res.makespan <= base_res.makespan + lb


@given(inst=srj_instances(min_m=2, max_m=6, max_n=8))
@settings(max_examples=40, deadline=None)
def test_move_disabled_still_correct_but_no_guarantee(inst):
    """Ablation sanity: disabling MoveWindowRight must still produce a
    feasible complete schedule (only the ratio guarantee is lost)."""
    from repro.core.validate import assert_valid

    res = solve_srj(inst, backend="fraction", enable_move=False)
    assert_valid(res.schedule(max_steps=100_000))


@given(inst=srj_instances(min_m=2, max_m=6, max_n=8))
@settings(max_examples=40, deadline=None)
def test_completion_times_match_schedule(inst):
    """The scheduler's reported completion times must equal those read off
    the expanded schedule."""
    res = schedule_srj(inst)
    sched = res.schedule(max_steps=100_000)
    from_schedule = sched.completion_times()
    for j, t in res.completion_times.items():
        assert from_schedule[j] == t

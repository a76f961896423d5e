"""Definition 3.1 on the windows ``solve_srj`` produced, not on a twin.

Each trace run records the window its share vector came from.  Replaying
the trace over a fresh state puts the state back at ``J(t-1)`` for every
run, so the recorded window can be checked against the state it was
computed for: Lemma 3.7 (with the DESIGN.md §2 repair) says it is
(m-1)-maximal at every step, on both backends and with or without the
Theorem 3.3 bulk horizon.
"""

from fractions import Fraction

from hypothesis import given, settings

from repro.core.instance import Instance
from repro.core.state import SchedulerState
from repro.core.validate import window_violations
from repro.engine.api import solve_srj
from repro.engine.trace import TraceRun

from conftest import srj_instances

ONE = Fraction(1)


def replayed_violations(inst, trace):
    """``(run index, step, violated properties)`` of every trace run whose
    recorded window is not (m-1)-maximal against the replayed state."""
    state = SchedulerState(inst)
    size = inst.m - 1
    found = []
    for i, run in enumerate(trace):
        violated = window_violations(state, run.window, size, ONE)
        if violated:
            found.append((i, state.t + 1, violated))
        state.apply_bulk(run.shares, run.count)
    assert state.n_unfinished() == 0
    return found


@given(inst=srj_instances(min_m=2, max_m=8, max_n=12))
@settings(max_examples=60, deadline=None)
def test_recorded_windows_are_maximal(inst):
    for backend in ("fraction", "int"):
        for accelerate in (True, False):
            res = solve_srj(inst, backend=backend, accelerate=accelerate)
            assert replayed_violations(inst, res.trace) == [], (
                backend, accelerate,
            )


def test_corrupted_window_is_reported():
    """Dropping ``min W`` from a full window leaves a left neighbour
    behind a size-deficient window: property (e) fails at that run."""
    inst = Instance.from_requirements(
        4,
        [Fraction(k, 12) for k in (1, 2, 2, 3, 4, 5, 7, 9)],
        sizes=[3, 1, 2, 2, 4, 1, 3, 2],
    )
    for backend in ("fraction", "int"):
        trace = solve_srj(inst, backend=backend).trace
        assert replayed_violations(inst, trace) == []
        target = next(
            i for i, run in enumerate(trace)
            if len(run.window) == inst.m - 1
        )
        run = trace[target]
        corrupted = list(trace)
        corrupted[target] = TraceRun(
            shares=run.shares,
            processors=run.processors,
            count=run.count,
            case=run.case,
            window=run.window[1:],
        )
        found = replayed_violations(inst, corrupted)
        assert [i for i, _t, _v in found] == [target]
        assert "e" in found[0][2]

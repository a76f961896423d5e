"""Definition 3.1 on the windows ``solve_srj`` produced, not on a twin.

Each trace run records the window its share vector came from.  The
validators' ledger walks the trace run by run, so each Listing-1 run's
window is checked against ``J(t-1)`` of the run's first step: Lemma 3.7
(with the DESIGN.md §2 repair) says it is (m-1)-maximal at every step, on
both backends and with or without the Theorem 3.3 bulk horizon.
"""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core.instance import Instance
from repro.engine.api import solve_srj
from repro.workloads import make_instance

from conftest import RUNS, srj_instances, window_faults


@given(inst=srj_instances(min_m=2, max_m=8, max_n=12))
@settings(max_examples=60, deadline=None)
def test_recorded_windows_are_maximal(inst):
    for backend, accelerate in RUNS:
        res = solve_srj(inst, backend=backend, accelerate=accelerate)
        assert window_faults(inst, res.trace) == [], (backend, accelerate)


#: m = 4; its step-exact trace's windows are [3, 4, 5], [3, 4, 6],
#: [2, 4, 6] twice, [1, 6, 7], [0, 6, 7], [0, 6] and [0]
SEEDED = Instance.from_requirements(
    4,
    [Fraction(k, 12) for k in (1, 2, 2, 3, 4, 5, 7, 9)],
    sizes=[3, 1, 2, 2, 4, 1, 3, 2],
)


def _replace(trace, index, **fields):
    run = copy.copy(trace[index])
    for name, value in fields.items():
        setattr(run, name, value)
    return trace[:index] + [run] + trace[index + 1:]


def test_corrupted_window_is_reported():
    """Dropping ``min W`` from a full window leaves a left neighbour
    behind a size-deficient window: property (e) fails at that run."""
    for backend in ("fraction", "int"):
        trace = solve_srj(SEEDED, backend=backend).trace
        assert window_faults(SEEDED, trace) == []
        target = next(
            i for i, run in enumerate(trace)
            if len(run.window) == SEEDED.m - 1
        )
        corrupted = _replace(trace, target, window=trace[target].window[1:])
        found = window_faults(SEEDED, corrupted)
        assert [i for i, _t, _v in found] == [target]
        assert "e" in found[0][2]


@pytest.mark.parametrize("prop, run, window, shares", [
    # a gap: job 4 of J(0) lies between two members
    ("a", 0, [3, 5], None),
    # r({3, 4, 5}) = 1 reaches the budget without max W = 6
    ("b", 0, [3, 4, 5, 6], None),
    # job 4 served 1/6 instead of r_4 = 1/3 in step 3 is fractured at
    # step 4, next to the fractured job 6
    ("c", 3, None, (2, {2: Fraction(1, 6), 4: Fraction(1, 6),
                        6: Fraction(1, 2)})),
    # the started job 3 is left out of the step-2 window
    ("d", 1, [4, 6], None),
    ("size", 0, [2, 3, 4, 5], None),
    ("e", 0, [4, 5], None),
    # r({0, 1, 2}) = 5/12 with jobs 3.. to the right
    ("f", 0, [0, 1, 2], None),
])
def test_seeded_defect_is_reported_at_its_run(prop, run, window, shares):
    for backend in ("fraction", "int"):
        trace = solve_srj(SEEDED, backend=backend, accelerate=False).trace
        assert window_faults(SEEDED, trace) == []
        if window is not None:
            trace = _replace(trace, run, window=window)
        else:
            trace = _replace(trace, shares[0], shares=shares[1])
        found = window_faults(SEEDED, trace)
        assert found and found[0][:2] == (run, run + 1), found
        assert prop in found[0][2], found


@pytest.mark.parametrize("m", [8, 32])
def test_srj_solve_sized_traces_are_certified(m):
    """Two ``srj_solve``-shaped runs (n = 3000): every window of the
    produced trace is (m-1)-maximal."""
    inst = make_instance("uniform", random.Random(m), m, 3000)
    res = solve_srj(inst, backend="int")
    assert window_faults(inst, res.trace) == []

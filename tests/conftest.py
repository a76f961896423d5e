"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.validate import _srj_ledger, exact_run
from repro.engine.api import _srj_state
from repro.engine.loop import StepDecision

ONE = Fraction(1)
#: the (backend, accelerate) pairs a trace property is checked on
RUNS = [(backend, accelerate) for backend in ("fraction", "int")
        for accelerate in (True, False)]


# ---------------------------------------------------------------------------
# Exact states and the Definition 3.1 check
# ---------------------------------------------------------------------------


def exact_state(inst):
    """The exact-rational engine state a ``backend="fraction"`` solve of
    *inst* starts from."""
    return _srj_state("fraction", inst, ONE)[1]


def take_step(state, shares, ledger=None):
    """Apply one step of *shares* to *state* on the engine's path, and
    book the same step on *ledger* when one is given."""
    state.apply_decision(StepDecision(shares=dict(shares)))
    if ledger is not None:
        ledger.walk([exact_run(shares, None)], ONE, range(state.m))


def walk_trace(inst, trace):
    """Yield ``(index, run, ledger)`` for each run of *trace*, the
    validators' ledger at the run's first step (``J(t-1)``), then book the
    run on it; the trace must keep the model rules."""
    ledger = _srj_ledger(inst, [])
    online = range(inst.m)
    for i, run in enumerate(trace):
        yield i, run, ledger
        ledger.walk([(run.units, run.scale, run.processors, run.count)],
                    ONE, online)
    assert not ledger.violations, ledger.violations[:3]


def window_faults(inst, trace, size=None):
    """``(run index, step, violated properties)`` of every Listing-1 run
    (``case1``/``case2``) of *trace* whose recorded window is not a
    *size*-maximal job window (Definition 3.1; default m - 1) at the run's
    first step."""
    size = inst.m - 1 if size is None else size
    found = []
    for i, run, ledger in walk_trace(inst, trace):
        if run.case in ("case1", "case2"):
            faults = ledger.window_faults(run.window, size, ONE)
            if faults:
                found.append((i, ledger.t + 1, faults))
    return found


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

#: a resource requirement: positive fraction with a bounded denominator,
#: allowed to exceed 1 (jobs that can never use the full resource)
requirements = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=8, max_value=24),
)

#: a small positive job size
sizes = st.integers(min_value=1, max_value=5)


@st.composite
def srj_instances(draw, min_m=2, max_m=8, min_n=1, max_n=12, unit=False):
    """Random SRJ instances with exact-fraction requirements."""
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    reqs = draw(
        st.lists(requirements, min_size=n, max_size=n)
    )
    if unit:
        szs = [1] * n
    else:
        szs = draw(st.lists(sizes, min_size=n, max_size=n))
    return Instance.from_requirements(m, reqs, szs)


@st.composite
def item_size_lists(draw, min_n=0, max_n=15):
    """Random splittable-item size lists (sizes may exceed 1)."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return draw(st.lists(requirements, min_size=n, max_size=n))


@st.composite
def task_requirement_lists(draw, min_k=1, max_k=6):
    """Random per-task requirement lists for SRT instances."""
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    return [
        draw(
            st.lists(
                st.builds(
                    Fraction,
                    st.integers(min_value=1, max_value=30),
                    st.integers(min_value=10, max_value=30),
                ),
                min_size=1,
                max_size=8,
            )
        )
        for _ in range(k)
    ]


# ---------------------------------------------------------------------------
# Plain fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def rng():
    """Deterministic RNG for generator-based tests."""
    return random.Random(12345)


@pytest.fixture
def small_instance():
    """A fixed small general-size instance used across tests."""
    return Instance.from_requirements(
        m=4,
        requirements=[
            Fraction(1, 5), Fraction(2, 5), Fraction(1, 2),
            Fraction(7, 10), Fraction(6, 5),
        ],
        sizes=[3, 2, 1, 2, 4],
    )


@pytest.fixture
def unit_instance_fixture():
    """A fixed unit-size instance."""
    return Instance.from_requirements(
        m=3,
        requirements=[
            Fraction(1, 10), Fraction(1, 3), Fraction(2, 5),
            Fraction(1, 2), Fraction(3, 4), Fraction(5, 4),
        ],
    )

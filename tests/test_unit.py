"""Tests for the unit-size modified algorithm (repro.core.unit)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binpacking import (
    cardinality_lower_bound,
    make_items,
    pack_sliding_window,
    volume_lower_bound,
)
from repro.core.bounds import makespan_lower_bound
from repro.core.instance import Instance
from repro.core.unit import UnitSizeScheduler, schedule_unit, unit_guarantee
from repro.core.validate import assert_valid
from repro.engine.api import unit_makespan
from repro.workloads import bimodal_fractions

from conftest import srj_instances


class TestBasics:
    def test_rejects_general_sizes(self):
        inst = Instance.from_requirements(3, [Fraction(1, 2)], sizes=[2])
        with pytest.raises(ValueError):
            UnitSizeScheduler(inst)

    def test_single_small_job(self):
        inst = Instance.from_requirements(3, [Fraction(1, 2)])
        res = schedule_unit(inst)
        assert res.makespan == 1
        assert res.completion_times == {0: 1}

    def test_single_oversized_job(self):
        # r = 5/2 > 1: needs 3 steps alone
        inst = Instance.from_requirements(3, [Fraction(5, 2)])
        res = schedule_unit(inst)
        assert res.makespan == 3
        assert_valid(res.schedule())

    def test_perfect_packing(self):
        # 4 jobs of r=1/2 on m=2: two per step, 2 steps
        inst = Instance.from_requirements(2, [Fraction(1, 2)] * 4)
        res = schedule_unit(inst)
        assert res.makespan == 2

    def test_m_jobs_per_step_possible(self):
        # unlike the general algorithm, the unit variant uses all m slots
        inst = Instance.from_requirements(3, [Fraction(1, 3)] * 3)
        res = schedule_unit(inst)
        assert res.makespan == 1

    def test_empty(self):
        inst = Instance.from_requirements(3, [])
        res = schedule_unit(inst)
        assert res.makespan == 0


class TestGuarantees:
    def test_unit_guarantee_formula(self):
        assert unit_guarantee(4, 9) == 13  # floor(36/3)+1
        assert unit_guarantee(2, 5) == 11
        assert unit_guarantee(1, 5) == 5

    @given(inst=srj_instances(min_m=2, max_m=10, max_n=16, unit=True))
    @settings(max_examples=100, deadline=None)
    def test_property_guarantee(self, inst):
        res = schedule_unit(inst)
        lb = makespan_lower_bound(inst)
        assert res.makespan <= unit_guarantee(inst.m, lb)

    @given(inst=srj_instances(min_m=2, max_m=8, max_n=14, unit=True))
    @settings(max_examples=80, deadline=None)
    def test_property_schedule_feasible(self, inst):
        res = schedule_unit(inst)
        assert_valid(res.schedule(max_steps=100_000))

    @given(inst=srj_instances(min_m=2, max_m=8, max_n=14, unit=True))
    @settings(max_examples=60, deadline=None)
    def test_property_at_most_one_started(self, inst):
        """The unit algorithm's core invariant: at most one started job."""
        res = schedule_unit(inst)
        sched = res.schedule(max_steps=100_000)
        remaining = {
            j.id: j.total_requirement for j in inst.jobs
        }
        for step in sched.steps:
            started_before = [
                j.id
                for j in inst.jobs
                if 0 < remaining[j.id] < j.total_requirement
            ]
            assert len(started_before) <= 1
            for piece in step.pieces:
                remaining[piece.job_id] -= min(
                    piece.share, inst.requirement(piece.job_id)
                )

    @given(inst=srj_instances(min_m=3, max_m=8, max_n=14, unit=True))
    @settings(max_examples=60, deadline=None)
    def test_property_never_worse_than_base_guarantee(self, inst):
        """The m-maximal variant should beat the reserved-processor bound."""
        from repro.core.scheduler import schedule_srj

        unit_res = schedule_unit(inst)
        base_res = schedule_srj(inst)
        lb = makespan_lower_bound(inst)
        # both respect their guarantees; the unit bound is the tighter one
        assert unit_res.makespan <= unit_guarantee(inst.m, lb)
        assert base_res.makespan <= (1 + 2 / (inst.m - 2)) * lb + 1 + 1e-9


class TestBulkPath:
    def test_oversized_job_trace_compressed(self):
        inst = Instance.from_requirements(2, [Fraction(500)])
        res = schedule_unit(inst)
        assert res.makespan == 500
        assert len(res.trace) <= 2

    def test_started_job_keeps_processor(self):
        inst = Instance.from_requirements(
            2, [Fraction(1, 3), Fraction(1, 3), Fraction(3, 2)]
        )
        res = schedule_unit(inst)
        procs = {}
        for run in res.trace:
            for j, p in run.processors.items():
                if j in procs:
                    assert procs[j] == p
                procs[j] = p


def _makespans(reqs, m):
    """The unit makespan of *reqs* on every entry point and backend."""
    inst = Instance.from_requirements(m, reqs)
    return {
        schedule_unit(inst, backend="fraction").makespan,
        schedule_unit(inst, backend="int").makespan,
        unit_makespan(reqs, m, Fraction(1), backend="fraction"),
        unit_makespan(reqs, m, Fraction(1), backend="int"),
    }


class TestUnitMakespan:
    """The bare-requirements entry points (Cor. 3.9 bin counts)."""

    def test_empty(self):
        assert unit_makespan([], 3, Fraction(1), backend="int") == 0
        assert unit_makespan([], 3, Fraction(1)) == 0

    def test_single(self):
        assert _makespans([Fraction(1, 2)], 3) == {1}

    def test_oversized(self):
        assert _makespans([Fraction(5, 2)], 3) == {3}

    def test_validation(self):
        with pytest.raises(ValueError):
            unit_makespan([Fraction(1, 2)], 0, Fraction(1), backend="int")
        with pytest.raises(ValueError):
            unit_makespan([Fraction(0)], 2, Fraction(1), backend="int")
        with pytest.raises(ValueError):
            unit_makespan([Fraction(1, 2)], 2, 0, backend="int")

    def test_perfect_packing(self):
        assert _makespans([Fraction(1, 2)] * 4, 2) == {2}

    def test_cardinality_cap(self):
        assert _makespans([Fraction(1, 100)] * 9, 3) == {3}

    def test_non_dyadic_inputs(self):
        # inputs on which a float mirror of this loop lost exactness and
        # failed its own assignment check
        reqs = [Fraction(101, 120), Fraction(13, 30), Fraction(1),
                Fraction(29, 40)]
        assert _makespans(reqs, 3) == {3}
        reqs = bimodal_fractions(random.Random(4), 200)
        assert _makespans(reqs, 16) == {56}


#: dyadic requirements (denominator 128)
dyadic = st.builds(
    Fraction, st.integers(min_value=1, max_value=128), st.just(128)
)

#: fine dyadics down to 2^-45, one shared denominator per example: the
#: int backend's LCM scaling must stay exact at 45-bit granularity
fine_dyadic_lists = st.builds(
    lambda k, nums: [Fraction(num, 2**k) for num in nums],
    st.sampled_from([1, 3, 10, 20, 30, 35, 40, 45]),
    st.lists(
        st.integers(min_value=1, max_value=2**43), min_size=1, max_size=15
    ),
)


class TestBackendAgreement:
    """Every entry point and backend gives the same unit makespan."""

    @given(
        m=st.integers(min_value=2, max_value=10),
        reqs=st.lists(dyadic, min_size=1, max_size=25),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_exact_scheduler(self, m, reqs):
        assert len(_makespans(reqs, m)) == 1

    @given(
        m=st.integers(min_value=2, max_value=8),
        reqs=fine_dyadic_lists,
    )
    @settings(max_examples=100, deadline=None)
    def test_property_fine_dyadics(self, m, reqs):
        assert len(_makespans(reqs, m)) == 1

    def test_sub_epsilon_sliver_not_dropped(self):
        # each unit job leaves a 2^-35 remainder that must be carried:
        # dropping it under-counts the makespan (2 instead of 3)
        reqs = [Fraction(1, 2**35), Fraction(1), Fraction(1)]
        assert _makespans(reqs, 2) == {3}

    def test_seeded_random_corpus(self):
        rng = random.Random(0xF457F10A7)
        for _ in range(150):
            m = rng.randint(2, 8)
            n = rng.randint(1, 12)
            reqs = [
                Fraction(rng.randint(1, 2 ** (k + 1)), 2**k)
                for k in (rng.choice([2, 7, 16, 33, 40]) for _ in range(n))
            ]
            assert len(_makespans(reqs, m)) == 1, (m, reqs)

    def test_large_instance_sane(self):
        rng = random.Random(1)
        reqs = [Fraction(rng.randint(1, 64), 64) for _ in range(5000)]
        makespan = unit_makespan(reqs, 16, Fraction(1), backend="int")
        total = sum(reqs)
        assert makespan >= total - 1  # resource lower bound
        # Corollary 3.9 guarantee envelope
        assert makespan <= Fraction(16, 15) * (total + 1) + 2


class TestPackBins:
    def test_info_bounds(self):
        items = make_items([Fraction(3, 5)] * 3)
        bins = pack_sliding_window(items, 2, backend="int").num_bins
        assert bins >= volume_lower_bound(items) == 2
        assert cardinality_lower_bound(items, 2) == 2

    def test_empty(self):
        assert pack_sliding_window([], 4, backend="int").num_bins == 0
        assert cardinality_lower_bound([], 4) == 0

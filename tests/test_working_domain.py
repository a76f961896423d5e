"""Property tests for the working domain: an instance keeps its
requirements as integers at ``L`` (the LCM of their denominators), both
backends leave their traces as integer shares at the run's scale, and
exact Fractions are built only when a trace is read."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.unit import schedule_unit
from repro.core.validate import validate_result
from repro.engine.api import solve_srj
from repro.engine.trace import TraceRun
from repro.io import schedule_to_dict

from conftest import srj_instances

#: denominators mixing small ones with large primes, so that some
#: requirement sets have L > 2**64
DENOMINATORS = (1, 2, 3, 8, 12, 24, 2**31 - 1, 2**61 - 1, 998244353)

#: primes none of the requirement strategies' denominators has as a factor
FOREIGN_PRIMES = (29, 31, 37, 41, 43, 47)


@st.composite
def requirement_lists(draw, min_n=0, max_n=14):
    """Positive requirements drawn from a small pool, so ties are common."""
    pool = draw(st.lists(
        st.builds(
            Fraction,
            st.integers(min_value=1, max_value=3 * 2**61),
            st.sampled_from(DENOMINATORS),
        ),
        min_size=1, max_size=6,
    ))
    return draw(st.lists(st.sampled_from(pool), min_size=min_n,
                         max_size=max_n))


def _stable_order(reqs):
    """The reference: a stable sort on the Fraction keys."""
    return sorted(range(len(reqs)), key=reqs.__getitem__)


def _check_working_form(inst):
    """``scale`` is L and ``units`` are the integers ``r_j·L``."""
    assert inst.scale == math.lcm(
        *(job.requirement.denominator for job in inst.jobs))
    assert inst.units == tuple(
        job.requirement * inst.scale for job in inst.jobs)


class TestCanonicalOrder:
    @given(reqs=requirement_lists(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_from_requirements(self, reqs, data):
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=len(reqs),
                                   max_size=len(reqs)))
        inst = Instance.from_requirements(3, reqs, sizes)
        order = _stable_order(reqs)
        assert list(inst.original_ids) == order
        assert [(job.size, job.requirement) for job in inst.jobs] == [
            (sizes[i], reqs[i]) for i in order
        ]
        _check_working_form(inst)

    @given(reqs=requirement_lists(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_from_real_sizes(self, reqs, data):
        sizes = data.draw(st.lists(
            st.builds(Fraction, st.integers(1, 40), st.integers(1, 7)),
            min_size=len(reqs), max_size=len(reqs),
        ))
        inst = Instance.from_real_sizes(2, reqs, sizes)
        p_ints = [-(-p.numerator // p.denominator) for p in sizes]
        scaled = [r * p / q for r, p, q in zip(reqs, sizes, p_ints)]
        order = _stable_order(scaled)
        assert list(inst.original_ids) == order
        assert [(job.size, job.requirement) for job in inst.jobs] == [
            (p_ints[i], scaled[i]) for i in order
        ]
        _check_working_form(inst)

    @given(reqs=requirement_lists(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_create(self, reqs, data):
        ids = data.draw(st.permutations(range(100, 100 + len(reqs))))
        inst = Instance.create(4, [
            Job(id=i, size=1, requirement=r) for i, r in zip(ids, reqs)
        ])
        # create takes the jobs in id order, so ties keep id order
        by_id = sorted(zip(ids, reqs))
        order = _stable_order([r for _i, r in by_id])
        assert list(inst.original_ids) == [by_id[k][0] for k in order]
        assert [job.requirement for job in inst.jobs] == [
            by_id[k][1] for k in order
        ]
        _check_working_form(inst)

    def test_scale_beyond_64_bits(self):
        reqs = [Fraction(1, 2**61 - 1), Fraction(1, 2**31 - 1),
                Fraction(2, 2**61 - 1), Fraction(1, 2**31 - 1)]
        inst = Instance.from_requirements(2, reqs)
        assert inst.scale.bit_length() > 64
        assert list(inst.original_ids) == _stable_order(reqs) == [0, 2, 1, 3]
        _check_working_form(inst)
        assert solve_srj(inst, backend="int") == solve_srj(
            inst, backend="fraction")


class TestResultsAcrossBackends:
    @given(inst=srj_instances(min_m=1, max_m=6, max_n=10), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_equal_pickled_and_serialized_alike(self, inst, data):
        budget = data.draw(st.sampled_from(
            [Fraction(1), Fraction(2, 3), Fraction(7, 5)]))
        results = [solve_srj(inst, backend=backend, budget=budget)
                   for backend in ("int", "fraction")]
        if inst.is_unit_size:
            results += [schedule_unit(inst, backend=backend)
                        for backend in ("int", "fraction")]
        for a, b in zip(results[::2], results[1::2]):
            assert a == b
            delivered = {}
            for run in a.trace:
                for j, share in run.shares.items():
                    delivered[j] = delivered.get(j, 0) + run.count * share
            assert delivered == {
                job.id: job.total_requirement for job in inst.jobs}
            assert [run.shares for run in a.trace] == [
                run.shares for run in b.trace]
            for result in (a, b):
                again = pickle.loads(pickle.dumps(result))
                assert again == result
                assert [run.shares for run in again.trace] == [
                    run.shares for run in result.trace]
            assert schedule_to_dict(a.schedule()) == schedule_to_dict(
                b.schedule())


class TestSharesReplaced:
    @given(inst=srj_instances(max_m=6, max_n=10), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_new_denominator_is_still_reported(self, inst, data):
        """A share lowered by an amount whose denominator is a prime
        outside L leaves its job short of s_j, and the walk books it."""
        result = solve_srj(inst, backend=data.draw(st.sampled_from(
            ["int", "fraction"])))
        run = result.trace[data.draw(st.integers(0, len(result.trace) - 1))]
        job = data.draw(st.sampled_from(sorted(run.shares)))
        prime = next(p for p in FOREIGN_PRIMES if inst.scale % p)
        delta = Fraction(data.draw(st.integers(1, prime - 1)), prime)
        run.shares = {**run.shares, job: run.shares[job] - delta}
        assert run.scale % prime == 0
        violations = validate_result(result).violations
        assert any(f"job {job}" in v for v in violations), violations


class TestTraceRun:
    def test_exact_map_in_constructor_and_assignment(self):
        run = TraceRun(shares={3: Fraction(1, 4), 5: Fraction(2, 3)},
                       processors={3: 0, 5: 1}, count=2, case="case1",
                       window=[3, 5])
        assert (run.units, run.scale) == ({3: 3, 5: 8}, 12)
        assert run.shares == {3: Fraction(1, 4), 5: Fraction(2, 3)}
        run.shares = {3: Fraction(1, 5)}
        assert (run.units, run.scale) == ({3: 1}, 5)

    def test_equal_across_scales(self):
        a = TraceRun.at_scale({0: 6, 1: 0}, 24, {0: 0, 1: 1}, 1, "unit",
                              [0, 1])
        b = TraceRun(shares={0: Fraction(1, 4), 1: Fraction(0)},
                     processors={0: 0, 1: 1}, count=1, case="unit",
                     window=[0, 1])
        assert a == b
        b.count = 2
        assert a != b
        c = TraceRun.at_scale({0: 7, 1: 0}, 24, {0: 0, 1: 1}, 1, "unit",
                              [0, 1])
        assert a != c
        with pytest.raises(TypeError):
            hash(a)

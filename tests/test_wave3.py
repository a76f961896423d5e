"""Tests for the wave-3 additions: grouped packer, SRT exact solver,
worst-case prober."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.analysis.worstcase import WorstCase, anneal_worst_case, run_e14
from repro.binpacking import (
    make_items,
    pack_grouped,
    packing_lower_bound,
)
from repro.exact.milp import ExactSolverError
from repro.tasks import (
    TaskInstance,
    schedule_tasks,
    solve_srt_exact,
    srt_lower_bound,
)

from conftest import item_size_lists


class TestGroupedPacker:
    def test_empty(self):
        assert pack_grouped([], 3).num_bins == 0

    def test_validation(self):
        items = make_items([Fraction(1, 2)])
        with pytest.raises(ValueError):
            pack_grouped(items, 0)
        with pytest.raises(ValueError):
            pack_grouped(items, 2, epsilon=Fraction(2))

    def test_all_small_items(self):
        items = make_items([Fraction(1, 100)] * 12)
        p = pack_grouped(items, 4, epsilon=Fraction(1, 10))
        p.assert_valid()
        assert p.num_bins >= packing_lower_bound(items, 4)

    def test_all_large_items(self):
        items = make_items([Fraction(3, 4), Fraction(2, 3), Fraction(5, 4)])
        p = pack_grouped(items, 3)
        p.assert_valid()

    @given(sizes=item_size_lists(min_n=1))
    @settings(max_examples=50, deadline=None)
    def test_property_always_valid_and_bounded(self, sizes):
        items = make_items(sizes)
        for k in (2, 6):
            p = pack_grouped(items, k)
            p.assert_valid()
            lb = packing_lower_bound(items, k)
            # rounding inflates sizes by < (1+eps)-ish; generous envelope
            assert p.num_bins <= 3 * lb + 3

    def test_rounding_cost_small(self, rng):
        items = make_items(
            [Fraction(rng.randint(1, 60), 50) for _ in range(120)]
        )
        grouped = pack_grouped(items, 8).num_bins
        lb = packing_lower_bound(items, 8)
        assert grouped <= lb * 1.3 + 2


class TestSrtExact:
    def test_single_task_single_job(self):
        ti = TaskInstance.create(4, [[Fraction(1, 2)]])
        assert solve_srt_exact(ti) == 1

    def test_two_tasks_ordering(self):
        # a short and a long task: OPT finishes the short one first
        ti = TaskInstance.create(
            4, [[Fraction(1)] * 2, [Fraction(1, 2)]]
        )
        opt = solve_srt_exact(ti)
        # short task at step 1 (cost 1) + long task needs 2 steps of full
        # resource (cost 3): but step 1 is partially used by the short one;
        # LB sanity only:
        assert opt >= srt_lower_bound(ti)

    def test_empty(self):
        assert solve_srt_exact(TaskInstance(m=4, tasks=())) == 0

    def test_guards(self):
        big = TaskInstance.create(4, [[Fraction(1, 2)] * 11])
        with pytest.raises(ExactSolverError):
            solve_srt_exact(big)

    def test_sandwich_small_random(self, rng):
        solved = 0
        for _ in range(10):
            m = rng.randint(3, 5)
            k = rng.randint(1, 3)
            lists = [
                [
                    Fraction(rng.randint(1, 10), 10)
                    for _ in range(rng.randint(1, 3))
                ]
                for _ in range(k)
            ]
            ti = TaskInstance.create(m, lists)
            try:
                opt = solve_srt_exact(ti)
            except ExactSolverError:
                continue
            solved += 1
            lb = srt_lower_bound(ti)
            alg = schedule_tasks(ti).sum_completion_times()
            assert lb <= opt <= alg
        assert solved >= 3  # the guard must not eat everything


class TestWorstCaseProber:
    def test_returns_consistent_record(self):
        best = anneal_worst_case(4, 6, iterations=40, seed=1)
        assert isinstance(best, WorstCase)
        assert best.ratio >= 1.0
        assert len(best.requirements) == 6

    def test_respects_guarantee(self):
        for m in (3, 4, 6):
            best = anneal_worst_case(m, 2 * m, iterations=60, seed=2)
            assert best.ratio <= 2 + 1 / (m - 2) + 1e-9

    def test_unit_mode(self):
        best = anneal_worst_case(3, 9, iterations=40, seed=3, unit_sizes=True)
        assert all(s == 1 for s in best.sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            anneal_worst_case(1, 5)

    def test_e14_table(self):
        table = run_e14(scale="small", seed=0)
        assert table.id == "E14"
        for row in table.rows:
            assert row[3] <= row[4] + 1e-9  # found <= guarantee
            assert row[5] >= -1e-9          # gap non-negative

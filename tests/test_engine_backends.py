"""Cross-backend equivalence for every scheduler layer routed through
``repro.engine``.

The engine refactor's central claim (mirroring
``tests/test_perf_backends.py`` for the general SRJ kernel): the
LCM-rescaled integer backend is *exact* — for SRT sequential runs, the
unit-size scheduler, the online schedulers and the fixed-assignment
policies, ``backend="int"`` produces bit-identical makespans, completion
times, traces/steps and utilizations to the ``backend="fraction"``
reference.  The Lemma 4.1/4.2 completion-time bounds are asserted on both
backends.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from repro.assigned import POLICIES, AssignedInstance, schedule_assigned
from repro.core.instance import Instance
from repro.core.unit import UnitSizeScheduler, schedule_unit
from repro.engine import BACKENDS, resolve_backend
from repro.online import OnlineInstance, schedule_online, schedule_online_list
from repro.tasks import (
    heavy_completion_bound,
    light_completion_bound,
    run_sequential,
    schedule_tasks,
    solve_srt,
)
from repro.workloads import (
    heavy_taskset,
    light_taskset,
    make_taskset,
)


REPO_ROOT = Path(__file__).resolve().parent.parent


def _random_online(rng, m=None, n=None):
    m = m if m is not None else rng.randint(2, 6)
    n = n if n is not None else rng.randint(1, 12)
    entries = [
        (
            rng.randint(1, 8),
            rng.randint(1, 3),
            Fraction(rng.randint(1, 24), rng.randint(8, 24)),
        )
        for _ in range(n)
    ]
    return OnlineInstance.create(m, entries)


def _random_assigned(rng):
    m = rng.randint(1, 4)
    queues = []
    for _ in range(m):
        queues.append(
            [
                (rng.randint(1, 3), Fraction(rng.randint(1, 12), 12))
                for _ in range(rng.randint(0, 3))
            ]
        )
    if not any(queues):
        queues[0] = [(1, Fraction(1, 2))]
    return AssignedInstance.create(queues)


class TestBackendResolution:
    def test_known_backends(self):
        assert BACKENDS == ("auto", "fraction", "int")
        assert resolve_backend("auto") == "int"
        assert resolve_backend("fraction") == "fraction"

    def test_unknown_backend_rejected_everywhere(self):
        rng = random.Random(0)
        ti = make_taskset("mixed", rng, 6, 4)
        with pytest.raises(ValueError):
            schedule_tasks(ti, backend="float")
        with pytest.raises(ValueError):
            schedule_online(_random_online(rng), backend="float")
        with pytest.raises(ValueError):
            schedule_assigned(_random_assigned(rng), backend="float")
        inst = Instance.from_requirements(3, [Fraction(1, 2)] * 4)
        with pytest.raises(ValueError):
            schedule_unit(inst, backend="float")


class TestSequentialSRT:
    """run_sequential / schedule_tasks / solve_srt: int ≡ fraction."""

    def test_run_sequential_bit_identical(self):
        rng = random.Random(0xE16)
        for i in range(25):
            family = ["mixed", "heavy", "light"][i % 3]
            ti = make_taskset(family, rng, rng.randint(3, 8), rng.randint(1, 6))
            ordered = sorted(
                ti.tasks, key=lambda t: (t.total_requirement(), t.id)
            )
            frac = run_sequential(
                ordered, ti.m, Fraction(1), backend="fraction"
            )
            fast = run_sequential(ordered, ti.m, Fraction(1), backend="int")
            assert frac.makespan == fast.makespan
            assert frac.completion_times == fast.completion_times
            assert len(frac.trace) == len(fast.trace)
            for a, b in zip(frac.trace, fast.trace):
                assert a.shares == b.shares
                assert a.window == b.window

    def test_run_sequential_fractional_budget(self):
        rng = random.Random(3)
        ti = make_taskset("mixed", rng, 6, 4)
        ordered = sorted(ti.tasks, key=lambda t: (t.n_jobs, t.id))
        for budget in (Fraction(1, 2), Fraction(3, 7), Fraction(5, 6)):
            frac = run_sequential(ordered, 3, budget, backend="fraction")
            fast = run_sequential(ordered, 3, budget, backend="int")
            assert frac.makespan == fast.makespan
            assert frac.completion_times == fast.completion_times
            assert [s.shares for s in frac.trace] == [
                s.shares for s in fast.trace
            ]

    def test_schedule_tasks_and_solve_srt(self):
        rng = random.Random(11)
        for _ in range(12):
            ti = make_taskset(
                "mixed", rng, rng.randint(3, 10), rng.randint(1, 8)
            )
            frac = schedule_tasks(ti, backend="fraction")
            fast = schedule_tasks(ti, backend="int")
            assert frac.makespan == fast.makespan
            assert frac.completion_times == fast.completion_times
            assert frac.algorithm == fast.algorithm
            via_solve = solve_srt(ti, backend="auto")
            assert via_solve.completion_times == frac.completion_times
            assert via_solve.makespan == frac.makespan

    def test_lemma_41_heavy_bound_both_backends(self):
        rng = random.Random(41)
        for _ in range(10):
            m = rng.randint(3, 10)
            ti = heavy_taskset(rng, m, rng.randint(1, 6))
            ordered = sorted(
                ti.tasks, key=lambda t: (t.total_requirement(), t.id)
            )
            bounds = heavy_completion_bound(ordered, Fraction(1))
            for backend in ("fraction", "int"):
                res = run_sequential(
                    ordered, m, Fraction(1), backend=backend
                )
                for task, b in zip(ordered, bounds):
                    assert res.completion_times[task.id] <= b, backend

    def test_lemma_42_light_bound_both_backends(self):
        rng = random.Random(42)
        for _ in range(10):
            m = rng.randint(3, 10)
            ti = light_taskset(rng, m, rng.randint(1, 6))
            ordered = sorted(ti.tasks, key=lambda t: (t.n_jobs, t.id))
            bounds = light_completion_bound(ordered, m)
            for backend in ("fraction", "int"):
                res = run_sequential(
                    ordered, m, Fraction(1), backend=backend
                )
                for task, b in zip(ordered, bounds):
                    assert res.completion_times[task.id] <= b, backend


def _unit_steps(result):
    return [dict(step) for step in result.iter_steps()]


class TestUnitBackends:
    """schedule_unit: int ≡ fraction, traces included."""

    def test_bit_identical_on_random_instances(self):
        rng = random.Random(0x117)
        for _ in range(40):
            m = rng.randint(2, 8)
            n = rng.randint(1, 15)
            den = rng.choice([7, 24, 50, 120, 128])
            reqs = [
                Fraction(rng.randint(1, 2 * den), den) for _ in range(n)
            ]
            inst = Instance.from_requirements(m, reqs)
            frac = schedule_unit(inst, backend="fraction")
            fast = schedule_unit(inst, backend="int")
            assert frac.makespan == fast.makespan
            assert frac.completion_times == fast.completion_times
            assert _unit_steps(frac) == _unit_steps(fast)
            assert frac.steps_full_jobs == fast.steps_full_jobs
            assert frac.steps_full_resource == fast.steps_full_resource

    def test_scheduler_class_accepts_backend(self):
        inst = Instance.from_requirements(
            3, [Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)]
        )
        a = UnitSizeScheduler(inst, backend="int").run()
        b = UnitSizeScheduler(inst).run()
        assert a.makespan == b.makespan
        assert a.completion_times == b.completion_times


class TestOnlineBackends:
    """schedule_online / schedule_online_list: int ≡ fraction."""

    def test_window_bit_identical(self):
        rng = random.Random(0x0511)
        for _ in range(25):
            inst = _random_online(rng)
            frac = schedule_online(inst, backend="fraction")
            fast = schedule_online(inst, backend="int")
            assert frac.makespan == fast.makespan
            assert frac.completion_times == fast.completion_times
            assert frac.utilization == fast.utilization

    def test_list_bit_identical(self):
        rng = random.Random(0x1157)
        for _ in range(25):
            inst = _random_online(rng)
            frac = schedule_online_list(inst, backend="fraction")
            fast = schedule_online_list(inst, backend="int")
            assert frac.makespan == fast.makespan
            assert frac.completion_times == fast.completion_times
            assert frac.utilization == fast.utilization


class TestAssignedBackends:
    """schedule_assigned: int ≡ fraction for every policy.

    ``proportional`` needs true division, so the engine silently runs it
    on the exact-rational context for any requested backend — the test
    still must see identical results.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bit_identical(self, policy):
        rng = random.Random(hash(policy) & 0xFFFF)
        for _ in range(20):
            inst = _random_assigned(rng)
            frac = schedule_assigned(inst, policy=policy, backend="fraction")
            fast = schedule_assigned(inst, policy=policy, backend="int")
            assert frac.makespan == fast.makespan
            assert frac.completion_times == fast.completion_times
            assert frac.utilization == fast.utilization
            assert frac.total_waste() == fast.total_waste()

    def test_fractional_budget(self):
        rng = random.Random(77)
        inst = _random_assigned(rng)
        for budget in (Fraction(1, 2), Fraction(2, 3)):
            frac = schedule_assigned(
                inst, policy="smallest_first", budget=budget,
                backend="fraction",
            )
            fast = schedule_assigned(
                inst, policy="smallest_first", budget=budget, backend="int"
            )
            assert frac.makespan == fast.makespan
            assert frac.completion_times == fast.completion_times


class TestBenchArtifact:
    def test_repo_bench2_artifact_if_present(self):
        """When BENCH_2.json exists, it must meet the SRT speedup target
        and its large-task int series the near-linear scaling target."""
        artifact = REPO_ROOT / "BENCH_2.json"
        if not artifact.exists():
            pytest.skip("BENCH_2.json not generated in this checkout")
        report = json.loads(artifact.read_text())
        assert report["bench"].startswith("SRT runtime")
        assert report["summary"]["speedup_at_largest_k"] >= 5.0
        tasks = [r for r in report["rows"] if r["sweep"] == "tasks"]
        assert {r["n"] for r in tasks} >= {250, 4000}
        assert report["summary"]["power_law_exponent_tasks"] <= 1.3

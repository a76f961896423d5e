"""Tests for the repro.perf subsystem: the exact scaled-integer kernel,
backend equivalence, the parallel sweep runner, and the bench harness.

The central claims under test (ISSUE: exact integer kernel):

* ``accelerate=True`` and ``accelerate=False`` produce the *same schedule*
  (makespan, completion times, per-step shares) — the bulk-stepping fast
  path is a pure optimization;
* the scaled-integer backend of :func:`repro.perf.solve_srj` is *exact*:
  identical makespans, completion times and traces to the Fraction
  reference, not merely approximately equal.

Both are checked on a shared corpus of ≥ 50 random instances spanning all
workload families.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.binpacking import (
    cardinality_lower_bound,
    make_items,
    pack_sliding_window,
    volume_lower_bound,
)
from repro.core.instance import Instance
from repro.core.scheduler import schedule_srj
from repro.core.unit import schedule_unit
from repro.core.validate import validate_result
from repro.engine.api import unit_makespan
from repro.engine.backends.integer import lcm_denominator
from repro.perf import auto_workers, bench, parallel_map, seed_for, solve_srj
from repro.sweep.registry import run_report
from repro.workloads import FAMILIES, make_instance

REPO_ROOT = Path(__file__).resolve().parent.parent


def _corpus(n_instances=60, seed=0xC0FFEE):
    """Random instances across all families; ≥ 50 per the coverage spec."""
    rng = random.Random(seed)
    families = sorted(FAMILIES)
    out = []
    for i in range(n_instances):
        m = rng.randint(2, 6)
        n = rng.randint(3, 14)
        out.append(make_instance(families[i % len(families)], rng, m, n))
    return out


CORPUS = _corpus()


def _steps(result):
    """Expanded (processor, share) step list for cross-mode comparison."""
    return [dict(step) for step in result.iter_steps()]


class TestAccelerateEquivalence:
    """accelerate=True is bit-identical to the step-exact mode."""

    def test_corpus_size(self):
        assert len(CORPUS) >= 50

    def test_equivalence_on_corpus(self):
        for inst in CORPUS:
            fast = solve_srj(inst, backend="fraction", accelerate=True)
            slow = solve_srj(inst, backend="fraction", accelerate=False)
            assert fast.makespan == slow.makespan, inst
            assert fast.completion_times == slow.completion_times, inst
            assert _steps(fast) == _steps(slow), inst


class TestIntBackendExactness:
    """backend="int" equals backend="fraction" bit for bit."""

    def test_makespan_and_completions_on_corpus(self):
        for inst in CORPUS:
            frac = solve_srj(inst, backend="fraction")
            fast = solve_srj(inst, backend="int")
            assert frac.makespan == fast.makespan, inst
            assert frac.completion_times == fast.completion_times, inst
            assert _steps(frac) == _steps(fast), inst
            assert frac.total_waste == fast.total_waste, inst
            assert frac.steps_full_jobs == fast.steps_full_jobs, inst
            assert frac.steps_full_resource == fast.steps_full_resource

    def test_int_results_are_feasible(self):
        for inst in CORPUS[:10]:
            report = validate_result(solve_srj(inst, backend="int"))
            assert report.ok, report.violations

    def test_mode_combinations(self):
        rng = random.Random(7)
        for _ in range(8):
            inst = make_instance("uniform", rng, rng.randint(2, 5), 10)
            for kwargs in (
                {"accelerate": False},
                {"enable_move": False},
                {"window_size": 2},
                {"accelerate": False, "enable_move": False},
            ):
                frac = solve_srj(inst, backend="fraction", **kwargs)
                fast = solve_srj(inst, backend="int", **kwargs)
                assert frac.makespan == fast.makespan, (inst, kwargs)
                assert frac.completion_times == fast.completion_times

    def test_auto_selects_int(self):
        inst = CORPUS[0]
        assert (
            solve_srj(inst, backend="auto").makespan
            == solve_srj(inst, backend="fraction").makespan
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            solve_srj(CORPUS[0], backend="float")

    def test_common_denominator_clears_all(self):
        inst = Instance.from_requirements(
            3, [Fraction(1, 3), Fraction(2, 7), Fraction(5, 6)]
        )
        d = lcm_denominator(
            Fraction(1), (job.requirement for job in inst.jobs)
        )
        assert d % 3 == 0 and d % 7 == 0 and d % 6 == 0
        for job in inst.jobs:
            assert (job.requirement * d).denominator == 1


class TestIterSteps:
    def test_streams_makespan_steps(self):
        inst = CORPUS[1]
        res = schedule_srj(inst)
        steps = list(res.iter_steps())
        assert len(steps) == res.makespan
        # matches the materialized schedule step by step
        sched = res.schedule()
        for step, mat in zip(steps, sched.steps):
            assert step == {
                p.job_id: (p.processor, p.share) for p in mat.pieces
            }

    def test_validate_result_matches_validate_schedule(self):
        from repro.core.validate import validate_schedule

        inst = CORPUS[2]
        res = schedule_srj(inst)
        assert validate_result(res).ok == validate_schedule(res.schedule()).ok


class TestUnitIntKernel:
    def test_matches_exact_unit_scheduler(self):
        rng = random.Random(99)
        for _ in range(60):
            m = rng.randint(2, 8)
            n = rng.randint(1, 15)
            den = rng.choice([7, 24, 50, 120, 128])
            reqs = [
                Fraction(rng.randint(1, 2 * den), den) for _ in range(n)
            ]
            inst = Instance.from_requirements(m, reqs)
            assert unit_makespan(
                reqs, m, Fraction(1), backend="int"
            ) == schedule_unit(inst).makespan

    def test_pack_matches_sliding_window(self):
        rng = random.Random(5)
        for _ in range(20):
            k = rng.randint(2, 8)
            sizes = [
                Fraction(rng.randint(1, 60), 50)
                for _ in range(rng.randint(1, 20))
            ]
            items = make_items(sizes)
            bins = unit_makespan(sizes, k, Fraction(1), backend="int")
            assert bins == pack_sliding_window(items, k).num_bins
            assert bins >= volume_lower_bound(items)
            assert bins >= cardinality_lower_bound(items, k)


def _square(x):
    return x * x


def _seeded_value(task):
    idx, s = task
    return (idx, random.Random(s).randint(0, 10**9))


class TestParallelRunner:
    def test_ordered_results(self):
        items = list(range(37))
        assert parallel_map(_square, items, workers=4) == [
            x * x for x in items
        ]

    def test_serial_fallback_matches(self):
        items = list(range(23))
        assert parallel_map(_square, items, workers=1) == parallel_map(
            _square, items, workers=3
        )

    def test_small_input_stays_serial(self):
        assert parallel_map(_square, [1, 2], workers=8) == [1, 4]

    def test_seed_for_is_deterministic_and_distinct(self):
        seeds = [seed_for(42, i) for i in range(200)]
        assert seeds == [seed_for(42, i) for i in range(200)]
        assert len(set(seeds)) == 200
        assert seeds != [seed_for(43, i) for i in range(200)]

    def test_worker_count_invariance_with_seeding(self):
        tasks = [(i, seed_for(11, i)) for i in range(16)]
        assert parallel_map(_seeded_value, tasks, workers=1) == parallel_map(
            _seeded_value, tasks, workers=4
        )

    def test_auto_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert auto_workers() == 3
        assert auto_workers(2) == 2  # explicit beats env
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            auto_workers()


class TestBenchHarness:
    def test_peak_rss_positive(self):
        assert bench.peak_rss_kb() > 0

    def test_tiny_bench_run(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            bench,
            "scale_grid",
            lambda kind, scale: {
                "ns": [10, 20], "ms": [2, 3],
                "n_fixed": [10], "m_fixed": [2], "reps": [1],
                "unit_ns": [], "unit_families": [], "unit_k": [],
            },
        )
        report = run_report("bench", "small", 0)
        assert report["schema"] == bench.SCHEMA
        assert len(report["rows"]) == 4
        for row in report["rows"]:
            assert row["speedup"] > 0
            assert row["makespan"] > 0
        out = tmp_path / "BENCH_1.json"
        bench.write_report(report, out)
        assert json.loads(out.read_text())["summary"] == report["summary"]

    def test_tiny_unit_series(self, monkeypatch):
        from repro.workloads import bimodal_fractions, uniform_fractions

        monkeypatch.setattr(
            bench,
            "scale_grid",
            lambda kind, scale: {
                "ns": [10, 20], "ms": [], "n_fixed": [10], "m_fixed": [2],
                "reps": [1], "unit_ns": [200, 400],
                "unit_families": ["uniform", "bimodal"], "unit_k": [4],
            },
        )
        report = run_report("bench", "small", 0)
        unit = [r for r in report["rows"] if r["sweep"] == "unit"]
        assert [(r["family"], r["n"]) for r in unit] == [
            ("uniform", 200), ("uniform", 400),
            ("bimodal", 200), ("bimodal", 400),
        ]
        spec = bench.bench_spec(scale="small", seed=0)
        for row, point in zip(unit, spec.points[2:]):
            rng = random.Random(point.params["seed"])
            if row["family"] == "uniform":
                reqs = uniform_fractions(rng, row["n"], hi=Fraction(6, 5))
            else:
                reqs = bimodal_fractions(rng, row["n"])
            inst = Instance.from_requirements(row["m"], reqs)
            assert row["makespan"] == schedule_unit(inst).makespan
            assert row["makespan"] == unit_makespan(
                reqs, row["m"], Fraction(1), backend="fraction"
            )
            assert row["int_s"] > 0
        exponents = report["summary"]["power_law_exponent_unit"]
        assert set(exponents) == {"uniform", "bimodal"}

    def test_tiny_task_series(self, monkeypatch):
        from repro.tasks import TaskInstance, solve_srt

        monkeypatch.setattr(
            bench,
            "scale_grid",
            lambda kind, scale: {
                "ks": [4, 6], "ms": [], "k_fixed": [4], "m_fixed": [4],
                "reps": [1], "task_ns": [30, 60], "task_k": [3],
                "task_m": [4],
            },
        )
        report = run_report("bench-srt", "small", 0)
        tasks = [r for r in report["rows"] if r["sweep"] == "tasks"]
        assert [(r["k"], r["n"], r["n_jobs"]) for r in tasks] == [
            (3, 30, 90), (3, 60, 180),
        ]
        spec = bench.bench_srt_spec(scale="small", seed=0)
        for row, point in zip(tasks, spec.points[2:]):
            rng = random.Random(point.params["seed"])
            ti = TaskInstance.create(row["m"], [
                [Fraction(rng.randint(1, 240), 240) for _ in range(row["n"])]
                for _ in range(row["k"])
            ])
            res = solve_srt(ti, backend="fraction")
            assert row["makespan"] == res.makespan
            assert row["sum_completion"] == res.sum_completion_times()
            assert row["int_s"] > 0
            assert "speedup" not in row
        assert "power_law_exponent_tasks" in report["summary"]

    def test_repo_bench_artifact_if_present(self):
        """When BENCH_1.json exists, it must meet the speedup target and
        its unit-size int series the near-linear scaling target."""
        artifact = REPO_ROOT / "BENCH_1.json"
        if not artifact.exists():
            pytest.skip("BENCH_1.json not generated in this checkout")
        report = json.loads(artifact.read_text())
        assert report["summary"]["speedup_at_largest_n"] >= 10.0
        unit = [r for r in report["rows"] if r["sweep"] == "unit"]
        assert {r["n"] for r in unit} >= {10_000, 100_000}
        exponents = report["summary"]["power_law_exponent_unit"]
        assert set(exponents) == {"uniform", "bimodal"}
        for family, exponent in exponents.items():
            assert exponent <= 1.3, (family, exponent)


class TestProfilingGate:
    def test_module_gate_passes(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.analysis.profiling",
                "--n", "150",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK: int backend under" in proc.stdout

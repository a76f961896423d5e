"""E4 — running-time scaling (the ``O((m+n)·n)`` claim of Theorem 3.3).

The table sweeps n (fixed m) and m (fixed n), fits power-law exponents, and
the micro-benchmarks below give pytest-benchmark's statistically robust
timings at three sizes — the "series" behind the scaling figure.  Each size
is benchmarked on both the Fraction reference backend and the exact
scaled-integer kernel, so a regression in either shows up here.

``bench_e4_regression_report`` additionally builds the ``BENCH_1.json``
report (the ``bench`` sweep of :mod:`repro.sweep.registry`: per-point
wall-clock, speedup and peak RSS) into pytest's temporary directory; the
committed artifact is regenerated only by ``repro-sched sweep run bench``
(``make bench`` / ``make bench-incremental``).  The smoke invocation is::

    REPRO_BENCH_SCALE=small pytest benchmarks/bench_e4_runtime.py -q
"""

import random

from repro.analysis import run_e4
from repro.core.scheduler import schedule_srj
from repro.perf import solve_srj
from repro.sweep.registry import run_report
from repro.workloads import make_instance

from conftest import SCALE, run_table


def bench_e4_table(benchmark, capsys):
    run_table(benchmark, capsys, run_e4)


def _inst(n, m=8, seed=42):
    return make_instance("uniform", random.Random(seed), m, n)


def bench_srj_n100(benchmark):
    inst = _inst(100)
    benchmark(schedule_srj, inst)


def bench_srj_n400(benchmark):
    inst = _inst(400)
    benchmark(schedule_srj, inst)


def bench_srj_n1600(benchmark):
    inst = _inst(1600)
    benchmark(schedule_srj, inst)


def bench_srj_m64_n400(benchmark):
    inst = _inst(400, m=64)
    benchmark(schedule_srj, inst)


def bench_srj_int_n400(benchmark):
    inst = _inst(400)
    benchmark(solve_srj, inst, backend="int")


def bench_srj_int_n1600(benchmark):
    inst = _inst(1600)
    benchmark(solve_srj, inst, backend="int")


def bench_srj_int_m64_n400(benchmark):
    inst = _inst(400, m=64)
    benchmark(solve_srj, inst, backend="int")


def bench_e4_regression_report(benchmark, capsys, tmp_path):
    """Build the BENCH_1.json report once under the benchmark timer."""
    out = tmp_path / "BENCH_1.json"
    report = benchmark.pedantic(
        lambda: run_report("bench", SCALE, 0, out=out),
        rounds=1, iterations=1,
    )
    with capsys.disabled():
        s = report["summary"]
        print()
        print(
            f"BENCH_1.json written to {out} — speedup at n="
            f"{s['largest_n']}: {s['speedup_at_largest_n']}x "
            f"(min {s['min_speedup']}x, max {s['max_speedup']}x)"
        )
    assert report["rows"], "bench harness produced no rows"
    assert s["speedup_at_largest_n"] >= 1.0

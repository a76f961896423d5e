"""SRT runtime on both engine backends — the ``BENCH_2.json`` harness.

Companion to ``bench_e4_runtime.py`` (which covers the general SRJ kernel
and ``BENCH_1.json``): micro-benchmarks the Theorem-4.8 SRT scheduler on
the exact-rational and scaled-integer engine backends, then builds the
``BENCH_2.json`` report (the ``bench-srt`` sweep) into pytest's temporary
directory; the committed artifact is regenerated only by
``repro-sched sweep run bench-srt``.  The smoke invocation is::

    REPRO_BENCH_SCALE=small pytest benchmarks/bench_srt_runtime.py -q
"""

import random

from repro.sweep.registry import run_report
from repro.tasks import solve_srt
from repro.workloads import make_taskset

from conftest import SCALE


def _taskset(k, m=8, seed=42):
    return make_taskset("mixed", random.Random(seed), m, k)


def bench_srt_fraction_k40(benchmark):
    ti = _taskset(40)
    benchmark(solve_srt, ti, backend="fraction")


def bench_srt_int_k40(benchmark):
    ti = _taskset(40)
    benchmark(solve_srt, ti, backend="int")


def bench_srt_int_k80(benchmark):
    ti = _taskset(80)
    benchmark(solve_srt, ti, backend="int")


def bench_srt_regression_report(benchmark, capsys, tmp_path):
    """Build the BENCH_2.json report once under the benchmark timer."""
    out = tmp_path / "BENCH_2.json"
    report = benchmark.pedantic(
        lambda: run_report("bench-srt", SCALE, 0, out=out),
        rounds=1, iterations=1,
    )
    with capsys.disabled():
        s = report["summary"]
        print()
        print(
            f"BENCH_2.json written to {out} — speedup at k="
            f"{s['largest_k']} ({s['largest_n_jobs']} jobs): "
            f"{s['speedup_at_largest_k']}x "
            f"(min {s['min_speedup']}x, max {s['max_speedup']}x)"
        )
    assert report["rows"], "SRT bench harness produced no rows"
    assert s["speedup_at_largest_k"] >= 1.0

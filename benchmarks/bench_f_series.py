"""F1–F3 — figure series: ratio-vs-m curves, runtime scaling, o(1) decay.

Also micro-benchmarks the unit-size scheduler on the exact Fraction
backend against the scaled-integer backend (the bin-packing path).
"""

import random
from fractions import Fraction

from repro.analysis import run_f1, run_f2, run_f3
from repro.core.unit import schedule_unit
from repro.engine.api import unit_makespan
from repro.workloads import unit_instance

from conftest import run_table


def bench_f1_ratio_curves(benchmark, capsys):
    table = run_table(benchmark, capsys, run_f1)
    for row in table.rows:
        for ratio in row[1:-1]:
            assert ratio <= row[-1] + 1e-9


def bench_f2_runtime_series(benchmark, capsys):
    run_table(benchmark, capsys, run_f2)


def bench_f3_srt_decay(benchmark, capsys):
    run_table(benchmark, capsys, run_f3)


def _unit_reqs(n=2000):
    rng = random.Random(42)
    return [Fraction(rng.randint(1, 64), 64) for _ in range(n)]


def bench_unit_exact_n2000(benchmark):
    inst = unit_instance(random.Random(42), 8, 2000)
    benchmark.pedantic(
        lambda: schedule_unit(inst), rounds=3, iterations=1
    )


def bench_unit_int_n2000(benchmark):
    reqs = _unit_reqs(2000)
    result = benchmark(unit_makespan, reqs, 8, Fraction(1), backend="int")
    assert result > 0


def bench_unit_int_n20000(benchmark):
    reqs = _unit_reqs(20000)
    result = benchmark.pedantic(
        lambda: unit_makespan(reqs, 16, Fraction(1), backend="int"),
        rounds=3,
        iterations=1,
    )
    assert result > 0

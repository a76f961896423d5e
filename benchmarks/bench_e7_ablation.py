"""E7 — design-choice ablations (MoveWindowRight, fracture discipline)."""

import random

from repro.analysis import run_e7
from repro.engine.api import solve_srj
from repro.workloads import make_instance

from conftest import run_table


def bench_e7_table(benchmark, capsys):
    run_table(benchmark, capsys, run_e7)


def bench_srj_no_move_m8_n200(benchmark, uniform_instance_m8_n200):
    result = benchmark.pedantic(
        lambda: solve_srj(
            uniform_instance_m8_n200, backend="fraction", enable_move=False
        ),
        rounds=3,
        iterations=1,
    )
    assert result.makespan > 0

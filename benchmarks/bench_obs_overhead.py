"""Observer overhead on the SRJ kernel — the ``BENCH_3.json`` harness.

Companion to ``bench_e4_runtime.py`` (``BENCH_1.json``) and
``bench_srt_runtime.py`` (``BENCH_2.json``): micro-benchmarks the engine
in its three instrumentation modes and builds the ``BENCH_3.json`` report
(the ``bench-obs`` sweep) into pytest's temporary directory; the
committed artifact is regenerated only by ``repro-sched sweep run
bench-obs``.  The gates — an installed no-op observer within 5% of the bare
loop, full stats collection within 30% — are asserted here, so a
regression in the observer hot path fails the benchmark suite.  The
smoke invocation is::

    REPRO_BENCH_SCALE=small pytest benchmarks/bench_obs_overhead.py -q
"""

import random

from repro.engine.api import solve_srj
from repro.obs import NULL_OBSERVER
from repro.perf import bench
from repro.sweep.registry import run_report
from repro.workloads import make_instance

from conftest import SCALE


def _instance(m=8, n=300, seed=42):
    return make_instance("uniform", random.Random(seed), m, n)


def bench_srj_int_bare(benchmark):
    inst = _instance()
    benchmark(solve_srj, inst, backend="int")


def bench_srj_int_noop_observer(benchmark):
    inst = _instance()
    benchmark(solve_srj, inst, backend="int", observer=NULL_OBSERVER)


def bench_srj_int_collect_stats(benchmark):
    inst = _instance()
    benchmark(solve_srj, inst, backend="int", collect_stats=True)


def bench_obs_overhead_report(benchmark, capsys, tmp_path):
    """Build the BENCH_3.json gate report once under the benchmark timer."""
    out = tmp_path / "BENCH_3.json"
    report = benchmark.pedantic(
        lambda: run_report("bench-obs", SCALE, 0, out=out),
        rounds=1, iterations=1,
    )
    s = report["summary"]
    with capsys.disabled():
        print()
        print(
            f"BENCH_3.json written to {out} — no-op observer "
            f"{s['max_noop_overhead']:+.2%} (gate {bench.GATE_NOOP:.0%}), "
            f"full stats {s['max_stats_overhead']:+.2%} "
            f"(gate {bench.GATE_STATS:.0%})"
        )
    assert report["rows"], "observer overhead harness produced no rows"
    assert s["max_noop_overhead"] <= bench.GATE_NOOP, (
        f"no-op observer overhead {s['max_noop_overhead']:+.2%} exceeds "
        f"the {bench.GATE_NOOP:.0%} gate"
    )
    assert s["max_stats_overhead"] <= bench.GATE_STATS, (
        f"stats collection overhead {s['max_stats_overhead']:+.2%} exceeds "
        f"the {bench.GATE_STATS:.0%} gate"
    )

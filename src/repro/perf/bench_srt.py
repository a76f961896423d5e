"""Bench-regression harness for SRT: both backends → ``BENCH_2.json``.

Companion to :mod:`repro.perf.bench` (which sweeps the general SRJ kernel
into ``BENCH_1.json``): runs the Theorem-4.8 SRT scheduler
(:func:`repro.tasks.solve_srt`) on generated task sets with the exact
rational backend and the engine's LCM-rescaled integer backend,
cross-checks that both produce identical completion times, and records

* per-point wall-clock (median of ``reps``, mean alongside) for both
  backends and the speedup,
* the power-law exponents of time vs the number of tasks,
* the integer backend's time on 8 large tasks of 250 … 4000 unit jobs
  each (m = 8) and its power-law exponent vs the jobs per task
  (``power_law_exponent_tasks``),
* peak RSS of the process,

into a JSON file so subsequent PRs have a perf trajectory to diff against.

Like every sweep, this runs on the experiment fabric (:mod:`repro.sweep`):
``--cache-dir`` makes repeated runs incremental, ``--shard i/k`` splits
the grid across a shared cache, and timing points execute serially so the
wall clock stays undistorted.

Usage::

    python -m repro.perf.bench_srt              # small scale, BENCH_2.json
    python -m repro.perf.bench_srt --scale full -o BENCH_2.json

or from code / the benchmark harness::

    from repro.perf.bench_srt import run_bench_srt
    report = run_bench_srt(scale="small")
"""

from __future__ import annotations

import argparse
import platform
import statistics
import time
from typing import Dict, List, Optional, Tuple

from ..sweep import SweepSpec, run_sweep, scale_grid
from .bench import add_sweep_flags, parse_shard, peak_rss_kb, write_report
from .parallel import BACKOFF_BASE, seed_for

__all__ = ["run_bench_srt", "bench_srt_spec", "write_report"]

#: schema version of the emitted JSON (bump on incompatible change);
#: 2 = timing columns are median-of-reps with ``*_mean_s`` alongside
SCHEMA = 2


def _sweep_points(scale: str) -> Dict[str, List[int]]:
    """The SRT grid (now shared via :func:`repro.sweep.scale_grid`)."""
    return scale_grid("srt", scale)


def _time_backend(ti, backend: str, reps: int) -> tuple:
    from ..tasks import solve_srt

    times: List[float] = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = solve_srt(ti, backend=backend)
        times.append(time.perf_counter() - t0)
    return times, result


def _tasks_point(params: Dict) -> Dict[str, object]:
    """Time the int backend on ``k`` tasks of ``n`` unit jobs each
    (requirements ``i/240``)."""
    import random
    from fractions import Fraction

    from ..tasks import TaskInstance

    m, k, n, reps = params["m"], params["k"], params["n"], params["reps"]
    rng = random.Random(params["seed"])
    ti = TaskInstance.create(m, [
        [Fraction(rng.randint(1, 240), 240) for _ in range(n)]
        for _ in range(k)
    ])
    times, result = _time_backend(ti, "int", reps)
    return {
        "sweep": "tasks", "m": m, "k": k, "n": n, "n_jobs": ti.n_jobs,
        "makespan": result.makespan,
        "sum_completion": result.sum_completion_times(),
        "int_s": round(statistics.median(times), 6),
        "int_mean_s": round(sum(times) / len(times), 6),
    }


def _bench_srt_point(params: Dict) -> Dict[str, object]:
    """Solve-and-time one SRT grid point (pure function of *params*)."""
    import random

    from ..workloads import make_taskset

    if params["sweep"] == "tasks":
        return _tasks_point(params)
    m, k, reps = params["m"], params["k"], params["reps"]
    rng = random.Random(params["seed"])
    ti = make_taskset("mixed", rng, m, k)
    t_frac, res_frac = _time_backend(ti, "fraction", reps)
    t_int, res_int = _time_backend(ti, "int", reps)
    if res_frac.completion_times != res_int.completion_times:
        raise AssertionError(
            f"backend mismatch at (m={m}, k={k}): completion times "
            "differ between fraction and int"
        )
    med_frac, med_int = statistics.median(t_frac), statistics.median(t_int)
    return {
        "sweep": params["sweep"], "m": m, "k": k, "n_jobs": ti.n_jobs,
        "makespan": res_frac.makespan,
        "sum_completion": res_frac.sum_completion_times(),
        "fraction_s": round(med_frac, 6), "int_s": round(med_int, 6),
        "speedup": round(med_frac / med_int, 2) if med_int > 0
        else float("inf"),
        "fraction_mean_s": round(sum(t_frac) / len(t_frac), 6),
        "int_mean_s": round(sum(t_int) / len(t_int), 6),
    }


def bench_srt_spec(
    scale: str = "small", seed: int = 0, reps: Optional[int] = None
) -> SweepSpec:
    """The SRT runtime sweep as a fabric spec (k-sweep, m-sweep, then the
    large-task series)."""
    p = _sweep_points(scale)
    reps = reps if reps is not None else p["reps"][0]
    m_fixed, k_fixed = p["m_fixed"][0], p["k_fixed"][0]
    params: List[Dict] = []
    idx = 0
    for k in p["ks"]:
        params.append({"sweep": "k", "m": m_fixed, "k": k,
                       "seed": seed_for(seed, idx), "reps": reps})
        idx += 1
    for m in p["ms"]:
        params.append({"sweep": "m", "m": m, "k": k_fixed,
                       "seed": seed_for(seed, idx), "reps": reps})
        idx += 1
    for m in p["task_m"]:
        for k in p["task_k"]:
            for n in p["task_ns"]:
                params.append({"sweep": "tasks", "m": m, "k": k, "n": n,
                               "seed": seed_for(seed, idx), "reps": reps})
                idx += 1
    return SweepSpec.from_points(
        "bench-srt", _bench_srt_point, params, version=f"v{SCHEMA}",
        serial=True,
    )


def run_bench_srt(
    scale: str = "small",
    seed: int = 0,
    out: Optional[str] = None,
    reps: Optional[int] = None,
    cache_dir: Optional[str] = None,
    workers: Optional[int] = None,
    shard: Optional[Tuple[int, int]] = None,
    spans: bool = False,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = BACKOFF_BASE,
) -> Dict[str, object]:
    """Run the two-backend SRT sweep; return (and optionally write) a report."""
    spec = bench_srt_spec(scale=scale, seed=seed, reps=reps)
    sweep = run_sweep(
        spec, cache_dir=cache_dir, workers=workers, shard=shard, spans=spans,
        timeout=timeout, retries=retries, backoff=backoff,
    )
    rows = sweep.rows
    report: Dict[str, object] = {
        "schema": SCHEMA,
        "bench": "SRT runtime, fraction vs int backend",
        "scale": scale,
        "seed": seed,
        "reps": spec.points[0].params["reps"] if spec.points else reps,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cache": {"hits": sweep.cache_hits, "solved": sweep.solved},
        "rows": rows,
    }
    if sweep.complete:
        both_rows = [r for r in rows if r["sweep"] != "tasks"]
        task_rows = [r for r in rows if r["sweep"] == "tasks"]
        k_rows = [r for r in rows if r["sweep"] == "k"]
        largest = max(k_rows, key=lambda r: r["k"])
        from ..analysis.stats import fit_power_law

        exp_frac, _ = fit_power_law(
            [float(r["k"]) for r in k_rows],
            [max(r["fraction_s"], 1e-9) for r in k_rows],
        )
        exp_int, _ = fit_power_law(
            [float(r["k"]) for r in k_rows],
            [max(r["int_s"], 1e-9) for r in k_rows],
        )
        exp_tasks, _ = fit_power_law(
            [float(r["n"]) for r in task_rows],
            [max(r["int_s"], 1e-9) for r in task_rows],
        )
        report["summary"] = {
            "largest_k": largest["k"],
            "largest_n_jobs": largest["n_jobs"],
            "speedup_at_largest_k": largest["speedup"],
            "max_speedup": max(r["speedup"] for r in both_rows),
            "min_speedup": min(r["speedup"] for r in both_rows),
            "power_law_exponent_fraction": round(exp_frac, 3),
            "power_law_exponent_int": round(exp_int, 3),
            "power_law_exponent_tasks": round(exp_tasks, 3),
            "peak_rss_kb": peak_rss_kb(),
        }
    else:
        report["partial"] = True
    if out:
        write_report(report, out)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench_srt",
        description="two-backend SRT runtime bench; emits BENCH_2.json",
    )
    parser.add_argument("--scale", choices=("small", "full"), default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--out", default="BENCH_2.json")
    add_sweep_flags(parser)
    args = parser.parse_args(argv)
    report = run_bench_srt(
        scale=args.scale, seed=args.seed, out=args.out,
        cache_dir=args.cache_dir, shard=parse_shard(args.shard),
        workers=args.workers, timeout=args.timeout, retries=args.retries,
        backoff=args.backoff,
    )
    print(f"wrote {args.out}")
    if "summary" in report:
        s = report["summary"]
        print(
            f"speedup at k={s['largest_k']} ({s['largest_n_jobs']} jobs): "
            f"{s['speedup_at_largest_k']}x "
            f"(max {s['max_speedup']}x, min {s['min_speedup']}x); "
            f"large-task int exponent {s['power_law_exponent_tasks']}; "
            f"peak RSS {s['peak_rss_kb']} KiB"
        )
    else:
        c = report["cache"]
        print(
            f"partial (shard {args.shard}): {len(report['rows'])} rows, "
            f"{c['hits']} cached, {c['solved']} solved"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())

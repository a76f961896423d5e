"""The BENCH report sweeps: point functions, specs and summaries.

Three timing sweeps back the committed BENCH artifacts; each is a
fabric spec (:mod:`repro.sweep`) plus a summary over its rows, and
:mod:`repro.sweep.registry` turns them into reports (``repro-sched sweep
run bench|bench-srt|bench-obs``):

* ``BENCH_1.json`` — the E4 runtime sweep (uniform family, n-sweep at
  fixed m plus an m-sweep at fixed n) on the Fraction reference backend
  and the scaled-integer kernel, cross-checked for identical makespans,
  then the unit-size kernel (Corollary 3.9 packing) on the int backend
  from n = 10⁴ to 10⁵ (uniform and bimodal items, k = 8).  The summary
  gives the speedups and the power-law exponents of time vs n (the
  Theorem 3.3 scaling claim; ``power_law_exponent_unit`` per item family).
* ``BENCH_2.json`` — the Theorem 4.8 SRT scheduler
  (:func:`repro.tasks.solve_srt`) on generated task sets, both backends,
  cross-checked for identical completion times, plus the int backend on
  8 large tasks of 250 … 4000 unit jobs (m = 8) and its exponent vs the
  jobs per task (``power_law_exponent_tasks``).
* ``BENCH_3.json`` — the SRJ int kernel in three instrumentation modes:
  ``base`` (``observer=None``, the bare loop), ``noop``
  (``observer=NULL_OBSERVER``, pure dispatch overhead) and ``stats``
  (``collect_stats=True``).  The summary gates the relative overheads,
  each the median of the per-rep ratios to ``base``: ``noop`` within
  :data:`GATE_NOOP` (5%) and ``stats`` within :data:`GATE_STATS` (30%).

Timing columns ``*_s`` are the **median** of ``reps`` samples, with the
mean alongside as ``*_mean_s``; every summary records the process's peak
RSS.  Timing points declare ``serial=True``, so concurrent workers never
distort the measured wall clock.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.api import solve_srj
from ..sweep import SweepSpec, scale_grid
from .parallel import BACKOFF_BASE, seed_for

__all__ = [
    "SCHEMA", "GATE_NOOP", "GATE_STATS",
    "bench_spec", "bench_srt_spec", "bench_obs_spec",
    "summarize_bench", "summarize_srt", "summarize_obs",
    "peak_rss_kb", "write_report", "parse_shard", "add_sweep_flags",
]

#: schema version of the emitted JSON (bump on incompatible change);
#: 2 = timing columns are median-of-reps with ``*_mean_s`` alongside
SCHEMA = 2

#: maximum tolerated relative overhead of an installed no-op observer
GATE_NOOP = 0.05

#: maximum tolerated relative overhead of full stats collection
GATE_STATS = 0.30

MODES = ("base", "noop", "stats")

#: code-version salt of the observer-overhead points, apart from SCHEMA:
#: the overheads became paired medians, so no point timed before is reused
OBS_VERSION = f"v{SCHEMA}-paired"

#: solves per timed observer-mode sample — a single small-scale solve is
#: only a few ms, where OS jitter alone swings samples by ±5%; batching
#: stretches each sample past ~10 ms so the ratio is decided by the kernels
INNER = 5


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalize to KiB.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        rss //= 1024
    return int(rss)


# ---------------------------------------------------------------------------
# Timing columns
# ---------------------------------------------------------------------------


def _timed(
    solve: Callable[[], object], reps: int
) -> Tuple[List[float], object]:
    """Wall clock of *reps* calls of *solve*, and the last result."""
    times: List[float] = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = solve()
        times.append(time.perf_counter() - t0)
    return times, result


def _int_columns(times: List[float]) -> Dict[str, float]:
    return {
        "int_s": round(statistics.median(times), 6),
        "int_mean_s": round(sum(times) / len(times), 6),
    }


def _backend_columns(
    t_frac: List[float], t_int: List[float]
) -> Dict[str, float]:
    """Both backends' median and mean columns and the median speedup."""
    med_frac, med_int = statistics.median(t_frac), statistics.median(t_int)
    return {
        "fraction_s": round(med_frac, 6), "int_s": round(med_int, 6),
        "speedup": round(med_frac / med_int, 2) if med_int > 0
        else float("inf"),
        "fraction_mean_s": round(sum(t_frac) / len(t_frac), 6),
        "int_mean_s": round(sum(t_int) / len(t_int), 6),
    }


def _power_law(rows: List[Dict], x: str, y: str) -> float:
    """The fitted exponent of ``row[y]`` vs ``row[x]`` (3 decimals; times
    are floored at 1 ns so a zero reading cannot break the log fit)."""
    from ..analysis.stats import fit_power_law

    exponent, _ = fit_power_law(
        [float(r[x]) for r in rows], [max(r[y], 1e-9) for r in rows]
    )
    return round(exponent, 3)


# ---------------------------------------------------------------------------
# BENCH_1: general SRJ kernel, both backends, plus the unit-size series
# ---------------------------------------------------------------------------


def _unit_point(params: Dict) -> Dict[str, object]:
    """Time the unit-size int kernel on one item list (a bin count)."""
    from ..engine.api import unit_makespan
    from ..workloads import bimodal_fractions, uniform_fractions

    k, n = params["m"], params["n"]
    rng = random.Random(params["seed"])
    if params["family"] == "uniform":
        reqs = uniform_fractions(rng, n, hi=Fraction(6, 5))
    else:
        reqs = bimodal_fractions(rng, n)
    times, makespan = _timed(
        lambda: unit_makespan(reqs, k, Fraction(1), backend="int"),
        params["reps"],
    )
    return {
        "sweep": "unit", "family": params["family"], "m": k, "n": n,
        "makespan": makespan, **_int_columns(times),
    }


def _bench_point(params: Dict) -> Dict[str, object]:
    """Solve-and-time one grid point (pure function of *params*)."""
    from ..workloads import make_instance

    if params["sweep"] == "unit":
        return _unit_point(params)
    m, n, reps = params["m"], params["n"], params["reps"]
    inst = make_instance("uniform", random.Random(params["seed"]), m, n)
    t_frac, res_frac = _timed(
        lambda: solve_srj(inst, backend="fraction"), reps
    )
    t_int, res_int = _timed(lambda: solve_srj(inst, backend="int"), reps)
    if res_frac.makespan != res_int.makespan:
        raise AssertionError(
            f"backend mismatch at (m={m}, n={n}): fraction makespan "
            f"{res_frac.makespan} != int makespan {res_int.makespan}"
        )
    return {
        "sweep": params["sweep"], "m": m, "n": n,
        "makespan": res_frac.makespan, **_backend_columns(t_frac, t_int),
    }


def bench_spec(
    scale: str = "small", seed: int = 0, reps: Optional[int] = None
) -> SweepSpec:
    """The E4 runtime sweep as a fabric spec (n-sweep, m-sweep, then the
    unit-size series)."""
    p = scale_grid("srj", scale)
    reps = reps if reps is not None else p["reps"][0]
    m_fixed, n_fixed = p["m_fixed"][0], p["n_fixed"][0]
    params: List[Dict] = []
    for n in p["ns"]:
        params.append({"sweep": "n", "m": m_fixed, "n": n})
    for m in p["ms"]:
        params.append({"sweep": "m", "m": m, "n": n_fixed})
    for family in p["unit_families"]:
        for k in p["unit_k"]:
            for n in p["unit_ns"]:
                params.append(
                    {"sweep": "unit", "family": family, "m": k, "n": n}
                )
    return _timing_spec("bench-srj", _bench_point, params, seed, reps)


def summarize_bench(rows: List[Dict]) -> Dict[str, object]:
    """BENCH_1's summary: speedups and the power-law exponents."""
    srj_rows = [r for r in rows if r["sweep"] != "unit"]
    unit_rows = [r for r in rows if r["sweep"] == "unit"]
    n_rows = [r for r in rows if r["sweep"] == "n"]
    largest = max(n_rows, key=lambda r: r["n"])
    return {
        "largest_n": largest["n"],
        "speedup_at_largest_n": largest["speedup"],
        "max_speedup": max(r["speedup"] for r in srj_rows),
        "min_speedup": min(r["speedup"] for r in srj_rows),
        "power_law_exponent_fraction": _power_law(n_rows, "n", "fraction_s"),
        "power_law_exponent_int": _power_law(n_rows, "n", "int_s"),
        "power_law_exponent_unit": {
            family: _power_law(
                [r for r in unit_rows if r["family"] == family], "n", "int_s"
            )
            for family in sorted({r["family"] for r in unit_rows})
        },
        "peak_rss_kb": peak_rss_kb(),
    }


# ---------------------------------------------------------------------------
# BENCH_2: SRT scheduler, both backends, plus the large-task series
# ---------------------------------------------------------------------------


def _tasks_point(params: Dict) -> Dict[str, object]:
    """Time the int backend on ``k`` tasks of ``n`` unit jobs each
    (requirements ``i/240``)."""
    from ..tasks import TaskInstance, solve_srt

    m, k, n = params["m"], params["k"], params["n"]
    rng = random.Random(params["seed"])
    ti = TaskInstance.create(m, [
        [Fraction(rng.randint(1, 240), 240) for _ in range(n)]
        for _ in range(k)
    ])
    times, result = _timed(
        lambda: solve_srt(ti, backend="int"), params["reps"]
    )
    return {
        "sweep": "tasks", "m": m, "k": k, "n": n, "n_jobs": ti.n_jobs,
        "makespan": result.makespan,
        "sum_completion": result.sum_completion_times(),
        **_int_columns(times),
    }


def _bench_srt_point(params: Dict) -> Dict[str, object]:
    """Solve-and-time one SRT grid point (pure function of *params*)."""
    from ..tasks import solve_srt
    from ..workloads import make_taskset

    if params["sweep"] == "tasks":
        return _tasks_point(params)
    m, k, reps = params["m"], params["k"], params["reps"]
    ti = make_taskset("mixed", random.Random(params["seed"]), m, k)
    t_frac, res_frac = _timed(
        lambda: solve_srt(ti, backend="fraction"), reps
    )
    t_int, res_int = _timed(lambda: solve_srt(ti, backend="int"), reps)
    if res_frac.completion_times != res_int.completion_times:
        raise AssertionError(
            f"backend mismatch at (m={m}, k={k}): completion times "
            "differ between fraction and int"
        )
    return {
        "sweep": params["sweep"], "m": m, "k": k, "n_jobs": ti.n_jobs,
        "makespan": res_frac.makespan,
        "sum_completion": res_frac.sum_completion_times(),
        **_backend_columns(t_frac, t_int),
    }


def bench_srt_spec(
    scale: str = "small", seed: int = 0, reps: Optional[int] = None
) -> SweepSpec:
    """The SRT runtime sweep as a fabric spec (k-sweep, m-sweep, then the
    large-task series)."""
    p = scale_grid("srt", scale)
    reps = reps if reps is not None else p["reps"][0]
    m_fixed, k_fixed = p["m_fixed"][0], p["k_fixed"][0]
    params: List[Dict] = []
    for k in p["ks"]:
        params.append({"sweep": "k", "m": m_fixed, "k": k})
    for m in p["ms"]:
        params.append({"sweep": "m", "m": m, "k": k_fixed})
    for m in p["task_m"]:
        for k in p["task_k"]:
            for n in p["task_ns"]:
                params.append({"sweep": "tasks", "m": m, "k": k, "n": n})
    return _timing_spec("bench-srt", _bench_srt_point, params, seed, reps)


def summarize_srt(rows: List[Dict]) -> Dict[str, object]:
    """BENCH_2's summary: speedups and the power-law exponents."""
    both_rows = [r for r in rows if r["sweep"] != "tasks"]
    task_rows = [r for r in rows if r["sweep"] == "tasks"]
    k_rows = [r for r in rows if r["sweep"] == "k"]
    largest = max(k_rows, key=lambda r: r["k"])
    return {
        "largest_k": largest["k"],
        "largest_n_jobs": largest["n_jobs"],
        "speedup_at_largest_k": largest["speedup"],
        "max_speedup": max(r["speedup"] for r in both_rows),
        "min_speedup": min(r["speedup"] for r in both_rows),
        "power_law_exponent_fraction": _power_law(k_rows, "k", "fraction_s"),
        "power_law_exponent_int": _power_law(k_rows, "k", "int_s"),
        "power_law_exponent_tasks": _power_law(task_rows, "n", "int_s"),
        "peak_rss_kb": peak_rss_kb(),
    }


# ---------------------------------------------------------------------------
# BENCH_3: observer overhead, gated
# ---------------------------------------------------------------------------


def _observed_solve(inst, mode: str):
    from ..obs import NULL_OBSERVER

    if mode == "base":
        return solve_srj(inst, backend="int")
    if mode == "noop":
        return solve_srj(inst, backend="int", observer=NULL_OBSERVER)
    return solve_srj(inst, backend="int", collect_stats=True)


def _bench_obs_point(params: Dict) -> Dict[str, object]:
    """Time the three instrumentation modes on one shape (pure in *params*)."""
    from ..workloads import make_instance

    m, n, reps = params["m"], params["n"], params["reps"]
    inst = make_instance("uniform", random.Random(params["seed"]), m, n)
    # warm-up round: JIT-free Python still benefits (allocator, caches)
    # and it cross-checks that instrumentation never changes the result
    makespans = {mode: _observed_solve(inst, mode).makespan for mode in MODES}
    if len(set(makespans.values())) != 1:
        raise AssertionError(
            f"observer changed the schedule at (m={m}, n={n}): "
            f"{makespans}"
        )
    times: Dict[str, List[float]] = {mode: [] for mode in MODES}
    for _ in range(reps):
        for mode in MODES:  # interleaved: noise hits all modes alike
            t0 = time.perf_counter()
            for _ in range(INNER):
                _observed_solve(inst, mode)
            times[mode].append((time.perf_counter() - t0) / INNER)
    med = {mode: statistics.median(times[mode]) for mode in MODES}
    mean = {mode: sum(times[mode]) / reps for mode in MODES}
    # the gate ratio is the median of the per-rep ratios: one rep times the
    # three modes back to back, so a drift of the host's speed cancels in
    # its ratio, and the median drops the reps a burst of load hit (a ratio
    # of per-mode minima moves with one lucky sample by more than a gate)
    paired = {mode: statistics.median(
        t / b for t, b in zip(times[mode], times["base"])
    ) for mode in ("noop", "stats")}
    return {
        "m": m, "n": n, "makespan": makespans["base"],
        "base_s": round(med["base"], 6),
        "noop_s": round(med["noop"], 6),
        "stats_s": round(med["stats"], 6),
        "noop_overhead": round(paired["noop"] - 1.0, 4),
        "stats_overhead": round(paired["stats"] - 1.0, 4),
        "base_mean_s": round(mean["base"], 6),
        "noop_mean_s": round(mean["noop"], 6),
        "stats_mean_s": round(mean["stats"], 6),
    }


def bench_obs_spec(
    scale: str = "small", seed: int = 0, reps: Optional[int] = None
) -> SweepSpec:
    """The observer-overhead sweep as a fabric spec (one point per shape)."""
    p = scale_grid("obs", scale)
    reps = reps if reps is not None else p["reps"][0]
    params = [{"m": m, "n": n} for m, n in p["shapes"]]
    return _timing_spec(
        "bench-obs", _bench_obs_point, params, seed, reps, OBS_VERSION
    )


def summarize_obs(rows: List[Dict]) -> Dict[str, object]:
    """BENCH_3's summary: the worst overheads against the two gates."""
    max_noop = max(r["noop_overhead"] for r in rows)
    max_stats = max(r["stats_overhead"] for r in rows)
    return {
        "max_noop_overhead": max_noop,
        "max_stats_overhead": max_stats,
        "gate_noop": GATE_NOOP,
        "gate_stats": GATE_STATS,
        "passed": max_noop <= GATE_NOOP and max_stats <= GATE_STATS,
        "peak_rss_kb": peak_rss_kb(),
    }


# ---------------------------------------------------------------------------
# Shared spec, artifact and CLI helpers
# ---------------------------------------------------------------------------


def _timing_spec(
    name: str, run_point, params: List[Dict], seed: int, reps: int,
    version: str = f"v{SCHEMA}",
) -> SweepSpec:
    """A serial timing spec: point *i* gets ``seed_for(seed, i)`` and
    *reps* after its grid parameters."""
    points = [
        {**p, "seed": seed_for(seed, i), "reps": reps}
        for i, p in enumerate(params)
    ]
    return SweepSpec.from_points(
        name, run_point, points, version=version, serial=True
    )


def write_report(report: Dict[str, object], path: str) -> None:
    """Write *report* as pretty-printed JSON to *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def parse_shard(text: Optional[str]) -> Optional[Tuple[int, int]]:
    """Parse an ``i/k`` shard flag (e.g. ``0/4``) into a tuple."""
    if text is None:
        return None
    try:
        i_text, k_text = text.split("/", 1)
        i, k = int(i_text), int(k_text)
    except ValueError:
        raise ValueError(f"invalid shard {text!r}: expected i/k") from None
    if k < 1 or not (0 <= i < k):
        raise ValueError(f"invalid shard {text!r}: need 0 <= i < k")
    return (i, k)


def add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """The fabric flags shared by every sweep CLI."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache; repeated runs only solve "
        "new points (see docs/SCALING.md)",
    )
    parser.add_argument(
        "--shard", default=None, metavar="I/K",
        help="run only points with index %% K == I into the shared cache",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock bound enforced by the hardened runner "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-runs for points lost to a crashed worker or a timeout "
        "(default: 2)",
    )
    parser.add_argument(
        "--backoff", type=float, default=BACKOFF_BASE, metavar="SECONDS",
        help="base delay between retry rounds, doubled each round "
        f"(default: {BACKOFF_BASE})",
    )

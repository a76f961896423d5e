"""Bench-regression harness: E4 runtime on both backends → ``BENCH_1.json``.

Runs the E4-style runtime sweep (uniform family, n-sweep at fixed m plus an
m-sweep at fixed n) on the Fraction reference backend and the scaled-integer
kernel, cross-checks that both produce identical makespans, then times the
unit-size kernel (Corollary 3.9 packing) on the integer backend from
n = 10⁴ to 10⁵ (uniform and bimodal items, k = 8), and records

* per-point wall-clock (median of ``reps``, with the mean alongside for
  continuity) for both backends and the speedup,
* the power-law exponents of time vs n (the Theorem 3.3 scaling claim, and
  ``power_law_exponent_unit`` per item family for the unit series),
* peak RSS of the process (``resource.getrusage``, portable — no psutil),

into a JSON file so subsequent PRs have a perf trajectory to diff against.

The sweep itself runs on the experiment fabric (:mod:`repro.sweep`):
points are content-addressed, so ``--cache-dir`` makes repeated runs
incremental (only points whose parameters changed are re-timed — the
``make bench-incremental`` path), and ``--shard i/k`` splits the grid
across processes/machines sharing one cache.  Timing points always
execute serially in-process (``serial=True``) so concurrent workers never
distort the measured wall clock.

Usage::

    python -m repro.perf.bench                # small scale, writes BENCH_1.json
    python -m repro.perf.bench --scale full -o BENCH_1.json

or from code / the benchmark harness::

    from repro.perf import run_bench
    report = run_bench(scale="small")
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..sweep import SweepSpec, run_sweep, scale_grid
from ..engine.api import solve_srj
from .parallel import BACKOFF_BASE, seed_for

__all__ = ["run_bench", "bench_spec", "peak_rss_kb", "write_report"]

#: schema version of the emitted JSON (bump on incompatible change);
#: 2 = timing columns are median-of-reps with ``*_mean_s`` alongside
SCHEMA = 2


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalize to KiB.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        rss //= 1024
    return int(rss)


def _sweep_points(scale: str) -> Dict[str, List[int]]:
    """The E4 grid (now shared via :func:`repro.sweep.scale_grid`)."""
    return scale_grid("srj", scale)


def _time_backend(inst, backend: str, reps: int) -> Tuple[List[float], int]:
    times: List[float] = []
    makespan = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        res = solve_srj(inst, backend=backend)
        times.append(time.perf_counter() - t0)
        makespan = res.makespan
    return times, makespan


def _unit_point(params: Dict) -> Dict[str, object]:
    """Time the unit-size int kernel on one item list (a bin count)."""
    from ..engine.api import unit_makespan
    from ..workloads import bimodal_fractions, uniform_fractions

    k, n, reps = params["m"], params["n"], params["reps"]
    rng = random.Random(params["seed"])
    if params["family"] == "uniform":
        reqs = uniform_fractions(rng, n, hi=Fraction(6, 5))
    else:
        reqs = bimodal_fractions(rng, n)
    times: List[float] = []
    for _ in range(reps):
        t0 = time.perf_counter()
        makespan = unit_makespan(reqs, k, Fraction(1), backend="int")
        times.append(time.perf_counter() - t0)
    return {
        "sweep": "unit", "family": params["family"], "m": k, "n": n,
        "makespan": makespan,
        "int_s": round(statistics.median(times), 6),
        "int_mean_s": round(sum(times) / len(times), 6),
    }


def _bench_point(params: Dict) -> Dict[str, object]:
    """Solve-and-time one grid point (pure function of *params*)."""
    from ..workloads import make_instance

    if params["sweep"] == "unit":
        return _unit_point(params)
    m, n, reps = params["m"], params["n"], params["reps"]
    rng = random.Random(params["seed"])
    inst = make_instance("uniform", rng, m, n)
    t_frac, mk_frac = _time_backend(inst, "fraction", reps)
    t_int, mk_int = _time_backend(inst, "int", reps)
    if mk_frac != mk_int:
        raise AssertionError(
            f"backend mismatch at (m={m}, n={n}): "
            f"fraction makespan {mk_frac} != int makespan {mk_int}"
        )
    med_frac, med_int = statistics.median(t_frac), statistics.median(t_int)
    return {
        "sweep": params["sweep"], "m": m, "n": n, "makespan": mk_frac,
        "fraction_s": round(med_frac, 6), "int_s": round(med_int, 6),
        "speedup": round(med_frac / med_int, 2) if med_int > 0
        else float("inf"),
        "fraction_mean_s": round(sum(t_frac) / len(t_frac), 6),
        "int_mean_s": round(sum(t_int) / len(t_int), 6),
    }


def bench_spec(
    scale: str = "small", seed: int = 0, reps: Optional[int] = None
) -> SweepSpec:
    """The E4 runtime sweep as a fabric spec (n-sweep, m-sweep, then the
    unit-size series)."""
    p = _sweep_points(scale)
    reps = reps if reps is not None else p["reps"][0]
    m_fixed, n_fixed = p["m_fixed"][0], p["n_fixed"][0]
    params: List[Dict] = []
    idx = 0
    for n in p["ns"]:
        params.append({"sweep": "n", "m": m_fixed, "n": n,
                       "seed": seed_for(seed, idx), "reps": reps})
        idx += 1
    for m in p["ms"]:
        params.append({"sweep": "m", "m": m, "n": n_fixed,
                       "seed": seed_for(seed, idx), "reps": reps})
        idx += 1
    for family in p["unit_families"]:
        for k in p["unit_k"]:
            for n in p["unit_ns"]:
                params.append({"sweep": "unit", "family": family, "m": k,
                               "n": n, "seed": seed_for(seed, idx),
                               "reps": reps})
                idx += 1
    return SweepSpec.from_points(
        "bench-srj", _bench_point, params, version=f"v{SCHEMA}", serial=True
    )


def run_bench(
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
    """Run the two-backend E4 sweep; return (and optionally write) a report.

    With *cache_dir*, previously solved points are reused (their recorded
    timings included) and only new points are timed; with *shard* only the
    ``index % k == i`` slice runs and the summary is omitted (``partial``)
    until an unsharded merge run assembles the full report from cache.
    *spans* (requires *cache_dir*) emits the hierarchical span trace.
    *timeout*/*retries*/*backoff* are the hardened-runner knobs (the
    ``--timeout/--retries/--backoff`` CLI flags).
    """
    spec = bench_spec(scale=scale, seed=seed, reps=reps)
    sweep = run_sweep(
        spec, cache_dir=cache_dir, workers=workers, shard=shard, spans=spans,
        timeout=timeout, retries=retries, backoff=backoff,
    )
    rows = sweep.rows
    report: Dict[str, object] = {
        "schema": SCHEMA,
        "bench": "E4 runtime, fraction vs int backend",
        "scale": scale,
        "seed": seed,
        "reps": spec.points[0].params["reps"] if spec.points else reps,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cache": {"hits": sweep.cache_hits, "solved": sweep.solved},
        "rows": rows,
    }
    if sweep.complete:
        srj_rows = [r for r in rows if r["sweep"] != "unit"]
        unit_rows = [r for r in rows if r["sweep"] == "unit"]
        n_rows = [r for r in rows if r["sweep"] == "n"]
        largest = max(n_rows, key=lambda r: r["n"])
        from ..analysis.stats import fit_power_law

        exp_frac, _ = fit_power_law(
            [float(r["n"]) for r in n_rows],
            [max(r["fraction_s"], 1e-9) for r in n_rows],
        )
        exp_int, _ = fit_power_law(
            [float(r["n"]) for r in n_rows],
            [max(r["int_s"], 1e-9) for r in n_rows],
        )
        exp_unit = {}
        for family in sorted({r["family"] for r in unit_rows}):
            series = [r for r in unit_rows if r["family"] == family]
            exp_unit[family] = round(fit_power_law(
                [float(r["n"]) for r in series],
                [max(r["int_s"], 1e-9) for r in series],
            )[0], 3)
        report["summary"] = {
            "largest_n": largest["n"],
            "speedup_at_largest_n": largest["speedup"],
            "max_speedup": max(r["speedup"] for r in srj_rows),
            "min_speedup": min(r["speedup"] for r in srj_rows),
            "power_law_exponent_fraction": round(exp_frac, 3),
            "power_law_exponent_int": round(exp_int, 3),
            "power_law_exponent_unit": exp_unit,
            "peak_rss_kb": peak_rss_kb(),
        }
    else:
        report["partial"] = True
    if out:
        write_report(report, out)
    return report


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
    """The fabric flags shared by every bench CLI."""
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="two-backend E4 runtime bench; emits BENCH_1.json",
    )
    parser.add_argument("--scale", choices=("small", "full"), default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--out", default="BENCH_1.json")
    add_sweep_flags(parser)
    args = parser.parse_args(argv)
    report = run_bench(
        scale=args.scale, seed=args.seed, out=args.out,
        cache_dir=args.cache_dir, shard=parse_shard(args.shard),
        workers=args.workers, timeout=args.timeout, retries=args.retries,
        backoff=args.backoff,
    )
    print(f"wrote {args.out}")
    if "summary" in report:
        s = report["summary"]
        print(
            f"speedup at n={s['largest_n']}: {s['speedup_at_largest_n']}x "
            f"(max {s['max_speedup']}x, min {s['min_speedup']}x); "
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

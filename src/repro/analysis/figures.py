"""Figure-series experiments — the data behind the reproduction's plots.

The paper has no figures; these series are the natural visualizations of
its claims (DESIGN.md §5).  Each function returns an
:class:`~repro.analysis.tables.ExperimentTable` whose rows are the (x, y…)
points of one figure:

* **F1** — approximation ratio vs m, one series per workload family, with
  the ``2 + 1/(m-2)`` guarantee curve;
* **F2** — wall-clock vs n at fixed m (log-log straight line ⇒ power law),
  on both the Fraction and the exact scaled-integer backend;
* **F3** — SRT ratio vs number of tasks k: the ``o(1)`` term's decay.

F1 and F3 run on the experiment fabric (:mod:`repro.sweep`): their grid
cells become :class:`~repro.sweep.SweepSpec` points with deterministic
per-cell seeds, fanned out across CPU cores (and optionally cached via
``cache_dir=``).  F2 is a timing series and stays serial on purpose
(concurrent workers would contend for cores and distort the measured
wall clock).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from ..core.bounds import makespan_lower_bound
from ..perf import seed_for, solve_srj
from ..sweep import SweepSpec, run_sweep
from ..tasks import schedule_tasks, srt_guarantee_factor, srt_lower_bound
from ..workloads import make_instance, make_taskset
from .ratios import theoretical_ratio
from .stats import Summary
from .tables import ExperimentTable


def _f1_cell(params: Dict) -> float:
    """Mean empirical ratio for one (m, family) cell (picklable worker)."""
    m, family = params["m"], params["family"]
    rng = random.Random(params["seed"])
    ratios = []
    for _ in range(params["trials"]):
        inst = make_instance(family, rng, m, params["n"])
        ratios.append(
            solve_srj(inst).makespan / makespan_lower_bound(inst)
        )
    return Summary.of(ratios).mean


def run_f1(
    scale: str = "small",
    seed: int = 0,
    workers: int | None = None,
    cache_dir: Optional[str] = None,
) -> ExperimentTable:
    """Ratio-vs-m curves (series: one column per family + the guarantee)."""
    trials = 4 if scale == "small" else 15
    n = 60 if scale == "small" else 200
    families = ("uniform", "bimodal", "heavy_tail", "correlated")
    ms = (3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64)
    table = ExperimentTable(
        id="F1",
        title="Series: empirical ratio vs m (per family) and the guarantee",
        headers=["m"] + [f"ratio({f})" for f in families] + ["2+1/(m-2)"],
    )
    cells = [(m, family) for m in ms for family in families]
    spec = SweepSpec.from_points(
        "f1-ratio",
        _f1_cell,
        [
            {"m": m, "family": family, "n": n, "trials": trials,
             "seed": seed_for(seed, ci)}
            for ci, (m, family) in enumerate(cells)
        ],
        version="v1",
    )
    means = run_sweep(spec, workers=workers, cache_dir=cache_dir).rows
    per_m = {m: [] for m in ms}
    for (m, _family), mean in zip(cells, means):
        per_m[m].append(mean)
    for m in ms:
        row: List[object] = [m]
        row.extend(round(v, 4) for v in per_m[m])
        row.append(round(theoretical_ratio(m), 4))
        table.add_row(*row)
    return table


def run_f2(scale: str = "small", seed: int = 0) -> ExperimentTable:
    """Wall-clock vs n series at fixed m (three repetitions, best-of).

    Times both scheduler backends; the two must agree on the makespan
    (the int kernel is exact), so the speedup column is apples-to-apples.
    """
    ns = [50, 100, 200, 400, 800] if scale == "small" else [
        100, 200, 400, 800, 1600, 3200, 6400,
    ]
    m = 8
    reps = 3
    table = ExperimentTable(
        id="F2",
        title=f"Series: scheduler seconds vs n (m={m}), per backend",
        headers=["n", "fraction s", "int s", "speedup", "int µs/job"],
    )
    rng = random.Random(seed)
    for n in ns:
        inst = make_instance("uniform", rng, m, n)
        best = {"fraction": float("inf"), "int": float("inf")}
        spans = {}
        for backend in ("fraction", "int"):
            for _ in range(reps):
                t0 = time.perf_counter()
                res = solve_srj(inst, backend=backend)
                best[backend] = min(
                    best[backend], time.perf_counter() - t0
                )
            spans[backend] = res.makespan
        assert spans["fraction"] == spans["int"], n
        table.add_row(
            n, round(best["fraction"], 5), round(best["int"], 5),
            round(best["fraction"] / best["int"], 2),
            round(best["int"] / n * 1e6, 3),
        )
    table.notes.append("last column in microseconds per job (int backend)")
    table.notes.append("serial timing loop: parallel workers would distort it")
    return table


def _f3_cell(params: Dict) -> float:
    """Mean SRT ratio for one (k, family) cell (picklable worker)."""
    m, k, family = params["m"], params["k"], params["family"]
    rng = random.Random(params["seed"])
    ratios = []
    for _ in range(params["trials"]):
        ti = make_taskset(family, rng, m, k)
        lb = srt_lower_bound(ti)
        if lb:
            ratios.append(schedule_tasks(ti).sum_completion_times() / lb)
    return Summary.of(ratios).mean


def run_f3(
    scale: str = "small",
    seed: int = 0,
    workers: int | None = None,
    cache_dir: Optional[str] = None,
) -> ExperimentTable:
    """SRT ratio vs k — the o(1) additive term must decay as k grows."""
    ks = [4, 8, 16, 32, 64] if scale == "small" else [
        4, 8, 16, 32, 64, 128, 256,
    ]
    m = 10
    trials = 3 if scale == "small" else 8
    table = ExperimentTable(
        id="F3",
        title=f"Series: SRT ratio vs number of tasks k (m={m})",
        headers=["k", "mixed", "cloud", "guarantee factor"],
        notes=["Theorem 4.8: ratio -> 2+4/(m-3) as k -> inf (o(1) decay)"],
    )
    factor = round(float(srt_guarantee_factor(m)), 4)
    families = ("mixed", "cloud")
    cells = [(k, family) for k in ks for family in families]
    spec = SweepSpec.from_points(
        "f3-srt-ratio",
        _f3_cell,
        [
            {"m": m, "k": k, "family": family, "trials": trials,
             "seed": seed_for(seed, ci)}
            for ci, (k, family) in enumerate(cells)
        ],
        version="v1",
    )
    means = run_sweep(spec, workers=workers, cache_dir=cache_dir).rows
    for ki, k in enumerate(ks):
        row: List[object] = [k]
        row.extend(
            round(means[ki * len(families) + fi], 4)
            for fi in range(len(families))
        )
        row.append(factor)
        table.add_row(*row)
    return table


ALL_FIGURES: Dict[str, object] = {
    "f1": run_f1,
    "f2": run_f2,
    "f3": run_f3,
}

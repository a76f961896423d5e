"""The experiment harness — one function per experiment of DESIGN.md §5.

The paper is pure theory (no tables/figures), so these experiments validate
its quantitative claims empirically; EXPERIMENTS.md records the outcomes.
Every function returns an :class:`~repro.analysis.tables.ExperimentTable`
and takes a ``scale`` knob (``"small"`` for CI-fast runs, ``"full"`` for the
benchmark harness).

The heavy sweeps (E1, E4, E5 — and the F-series in :mod:`.figures`) run
on the experiment fabric (:mod:`repro.sweep`): each becomes a
:class:`~repro.sweep.SweepSpec` whose grid points carry their own
:func:`repro.perf.seed_for`-derived seed, fanned out across CPU cores via
:func:`repro.sweep.run_sweep` on the hardened
:class:`repro.perf.WorkerPool`.  The tables are bit-identical regardless
of the worker count (pass ``workers=1`` to force serial execution, or set
``REPRO_WORKERS``), and passing ``cache_dir=`` makes repeated sweeps
incremental — already-solved grid points come from the content-addressed
store.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..perf import seed_for, solve_srj
from ..sweep import SweepSpec, run_sweep

from ..baselines import BASELINES
from ..binpacking import (
    make_items,
    pack_first_fit_unsplit,
    pack_next_fit,
    pack_next_fit_decreasing,
    pack_sliding_window,
    packing_lower_bound,
)
from ..core.bounds import makespan_lower_bound
from ..core.instance import Instance
from ..core.scheduler import schedule_srj
from ..core.unit import schedule_unit
from ..exact import solve_exact
from ..tasks import (
    heavy_allotment,
    heavy_completion_bound,
    light_allotment,
    light_completion_bound,
    run_sequential,
    schedule_tasks,
    schedule_tasks_fifo,
    schedule_tasks_job_level,
    srt_guarantee_factor,
    srt_lower_bound,
)
from ..workloads import (
    make_instance,
    make_taskset,
    next_fit_adversarial_items,
    planted_instance,
    sawtooth_instance,
    three_partition_instance,
    uniform_fractions,
    unit_instance,
)
from .ratios import theoretical_ratio, theoretical_unit_ratio
from .stats import Summary, fit_power_law
from .tables import ExperimentTable


def _scale_params(scale: str) -> Dict[str, int]:
    if scale == "small":
        return {"trials": 4, "n": 40, "k": 8}
    if scale == "full":
        return {"trials": 12, "n": 150, "k": 30}
    raise ValueError(f"unknown scale {scale!r}")


# ---------------------------------------------------------------------------
# E1 — Theorem 3.3 ratio for general jobs
# ---------------------------------------------------------------------------


def _e1_family_trial(params: Dict) -> float:
    """One E1 grid-point trial (module-level so it pickles to workers)."""
    rng = random.Random(params["seed"])
    inst = make_instance(params["family"], rng, params["m"], params["n"])
    res = solve_srj(inst)
    return res.makespan / makespan_lower_bound(inst)


def _e1_planted_trial(params: Dict) -> float:
    rng = random.Random(params["seed"])
    inst, opt = planted_instance(rng, params["m"], horizon=params["horizon"])
    return solve_srj(inst).makespan / opt


def run_e1(
    scale: str = "small",
    seed: int = 0,
    workers: int | None = None,
    cache_dir: Optional[str] = None,
) -> ExperimentTable:
    """Empirical ratio of Listing 1 vs the Eq.(1) lower bound, per m and
    workload family; the theoretical bound ``2 + 1/(m-2)`` must dominate.

    Trials fan out across *workers* processes; every trial gets its own
    :func:`~repro.perf.seed_for`-derived seed, so the table is identical
    for any worker count.
    """
    p = _scale_params(scale)
    table = ExperimentTable(
        id="E1",
        title="SRJ approximation ratio (Listing 1) vs Eq.(1) lower bound",
        headers=[
            "m", "family", "trials", "mean ratio", "max ratio",
            "bound 2+1/(m-2)",
        ],
        notes=["ratio = makespan / max{⌈Σs_j⌉, ⌈Σ⌈s_j/r_j⌉/m⌉}",
               "per-trial deterministic seeding (worker-count independent)"],
    )
    trials = p["trials"]
    cells = [
        (m, family)
        for m in (3, 4, 6, 8, 16, 32, 64)
        for family in ("uniform", "bimodal", "heavy_tail", "correlated")
    ]
    spec = SweepSpec.from_points(
        "e1-family",
        _e1_family_trial,
        [
            {"family": family, "m": m, "n": p["n"],
             "seed": seed_for(seed, ci * trials + t)}
            for ci, (m, family) in enumerate(cells)
            for t in range(trials)
        ],
        version="v1",
    )
    ratios = run_sweep(spec, workers=workers, cache_dir=cache_dir).rows
    for ci, (m, family) in enumerate(cells):
        s = Summary.of(ratios[ci * trials : (ci + 1) * trials])
        table.add_row(
            m, family, s.n, round(s.mean, 4), round(s.maximum, 4),
            round(theoretical_ratio(m), 4),
        )
    # planted-optimum rows: ratio vs the *true* OPT, not just the bound
    planted_ms = (4, 8, 16)
    planted_spec = SweepSpec.from_points(
        "e1-planted",
        _e1_planted_trial,
        [
            {"m": m, "horizon": p["n"] // 2,
             "seed": seed_for(seed, 10_000 + mi * trials + t)}
            for mi, m in enumerate(planted_ms)
            for t in range(trials)
        ],
        version="v1",
    )
    planted = run_sweep(
        planted_spec, workers=workers, cache_dir=cache_dir
    ).rows
    for mi, m in enumerate(planted_ms):
        s = Summary.of(planted[mi * trials : (mi + 1) * trials])
        table.add_row(
            m, "planted(OPT known)", s.n, round(s.mean, 4),
            round(s.maximum, 4), round(theoretical_ratio(m), 4),
        )
    return table


# ---------------------------------------------------------------------------
# E2 — unit-size guarantees
# ---------------------------------------------------------------------------


def run_e2(scale: str = "small", seed: int = 0) -> ExperimentTable:
    """Unit-size jobs: modified algorithm (m-maximal windows) vs the
    asymptotic ``1 + 1/(m-1)``, and the base algorithm's
    ``(1+2/(m-2))·OPT + 1`` bound."""
    p = _scale_params(scale)
    table = ExperimentTable(
        id="E2",
        title="Unit-size SRJ: modified algorithm vs 1+1/(m-1)",
        headers=[
            "m", "family", "mean ratio(unit alg)", "max ratio(unit alg)",
            "asympt 1+1/(m-1)", "mean ratio(base alg)", "base bound ok",
        ],
    )
    rng = random.Random(seed)
    for m in (2, 3, 4, 8, 16, 32, 64):
        for family in ("uniform", "heavy_tail"):
            unit_ratios = []
            base_ratios = []
            base_ok = True
            for _ in range(p["trials"]):
                inst = unit_instance(rng, m, p["n"], family=family)
                lb = makespan_lower_bound(inst)
                ru = schedule_unit(inst)
                unit_ratios.append(ru.makespan / lb)
                rb = schedule_srj(inst)
                base_ratios.append(rb.makespan / lb)
                if m >= 3 and rb.makespan > (1 + 2 / (m - 2)) * lb + 1:
                    base_ok = False
            su = Summary.of(unit_ratios)
            sb = Summary.of(base_ratios)
            table.add_row(
                m, family, round(su.mean, 4), round(su.maximum, 4),
                round(theoretical_unit_ratio(m), 4), round(sb.mean, 4),
                base_ok,
            )
    return table


# ---------------------------------------------------------------------------
# E3 — bin packing (Corollary 3.9)
# ---------------------------------------------------------------------------


def run_e3(scale: str = "small", seed: int = 0) -> ExperimentTable:
    """Bin packing with splittable items: sliding window vs NextFit-style
    baselines, sweeping the cardinality constraint k."""
    p = _scale_params(scale)
    table = ExperimentTable(
        id="E3",
        title="Bin packing w/ cardinality k: bins / lower bound",
        headers=[
            "k", "items", "family", "sliding", "next_fit", "next_fit_dec",
            "first_fit_unsplit", "bound 1+1/(k-1)",
        ],
        notes=["cells are (number of bins) / (volume & cardinality LB), "
               "averaged over trials"],
    )
    rng = random.Random(seed)
    families = {
        "uniform(0,1.2]": lambda n: [
            Fraction(rng.randint(1, 60), 50) for _ in range(n)
        ],
        "small(0,0.4]": lambda n: [
            Fraction(rng.randint(1, 20), 50) for _ in range(n)
        ],
    }
    for k in (2, 3, 4, 8, 16, 32, 64):
        for fam_name, gen in families.items():
            accum = {"sw": [], "nf": [], "nfd": [], "ff": []}
            for _ in range(p["trials"]):
                items = make_items(gen(p["n"]))
                lb = packing_lower_bound(items, k)
                accum["sw"].append(pack_sliding_window(items, k).num_bins / lb)
                accum["nf"].append(pack_next_fit(items, k).num_bins / lb)
                accum["nfd"].append(
                    pack_next_fit_decreasing(items, k).num_bins / lb
                )
                accum["ff"].append(
                    pack_first_fit_unsplit(items, k).num_bins / lb
                )
            table.add_row(
                k, p["n"], fam_name,
                round(Summary.of(accum["sw"]).mean, 4),
                round(Summary.of(accum["nf"]).mean, 4),
                round(Summary.of(accum["nfd"]).mean, 4),
                round(Summary.of(accum["ff"]).mean, 4),
                round(1 + 1 / (k - 1), 4),
            )
    # adversarial family: NextFit approaches 2 - 1/k, the window stays ~1
    for k in (2, 4, 8, 16):
        items = next_fit_adversarial_items(p["n"] // 4, k=k)
        lb = packing_lower_bound(items, k)
        table.add_row(
            k, len(items), "nf-adversarial",
            round(pack_sliding_window(items, k).num_bins / lb, 4),
            round(pack_next_fit(items, k).num_bins / lb, 4),
            round(pack_next_fit_decreasing(items, k).num_bins / lb, 4),
            round(pack_first_fit_unsplit(items, k).num_bins / lb, 4),
            round(1 + 1 / (k - 1), 4),
        )
    return table


# ---------------------------------------------------------------------------
# E4 — running time O((m+n)·n)
# ---------------------------------------------------------------------------


def _e4_point(params: Dict) -> Tuple[float, float, int]:
    """Time one E4 sweep point on both backends (best-of-*reps* each).

    Returns ``(fraction_seconds, int_seconds, makespan)``; the two backends
    must agree on the makespan (the int kernel is exact, not approximate).
    """
    label, value = params["label"], params["value"]
    m, n, reps = params["m"], params["n"], params["reps"]
    rng = random.Random(params["seed"])
    inst = make_instance("uniform", rng, m, n)
    best: Dict[str, float] = {}
    spans: Dict[str, int] = {}
    for backend in ("fraction", "int"):
        b = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            res = solve_srj(inst, backend=backend)
            b = min(b, time.perf_counter() - t0)
        best[backend] = b
        spans[backend] = res.makespan
    if spans["fraction"] != spans["int"]:
        raise AssertionError(
            f"backend mismatch at {label}={value}: "
            f"fraction={spans['fraction']} int={spans['int']}"
        )
    return best["fraction"], best["int"], spans["int"]


def run_e4(
    scale: str = "small",
    seed: int = 0,
    workers: int | None = None,
    cache_dir: Optional[str] = None,
) -> ExperimentTable:
    """Wall-clock scaling of the accelerated scheduler; a power-law fit of
    time vs n should have exponent ≈ 2 or below (the O((m+n)n) claim).

    Every sweep point is timed on both the Fraction reference backend and
    the exact scaled-integer kernel (:func:`repro.perf.solve_srj`); the
    speedup column quantifies what exact integer arithmetic buys.  Points
    fan out across *workers* processes with deterministic per-point seeds.
    """
    if scale == "small":
        ns = [50, 100, 200, 400]
        ms = [4, 8, 16, 32]
        n_fixed, m_fixed = 200, 8
        reps = 2
    else:
        ns = [100, 200, 400, 800, 1600, 3200]
        ms = [4, 8, 16, 32, 64, 128]
        n_fixed, m_fixed = 800, 8
        reps = 3
    table = ExperimentTable(
        id="E4",
        title="Scheduler wall-clock scaling: Fraction vs exact int backend",
        headers=["sweep", "value", "fraction s", "int s", "speedup", "steps"],
        notes=["power-law exponents appended as notes",
               "both backends produce identical schedules (asserted)"],
    )
    params_list = [
        {"label": "n (m=%d)" % m_fixed, "value": n, "m": m_fixed, "n": n,
         "seed": seed_for(seed, i), "reps": reps}
        for i, n in enumerate(ns)
    ] + [
        {"label": "m (n=%d)" % n_fixed, "value": m, "m": m, "n": n_fixed,
         "seed": seed_for(seed, 100 + i), "reps": reps}
        for i, m in enumerate(ms)
    ]
    spec = SweepSpec.from_points(
        "e4-runtime", _e4_point, params_list, version="v1"
    )
    results = run_sweep(spec, workers=workers, cache_dir=cache_dir).rows
    times_frac_n, times_int_n, times_int_m = [], [], []
    for p, (frac_s, int_s, steps) in zip(params_list, results):
        label, value = p["label"], p["value"]
        speedup = frac_s / int_s if int_s > 0 else float("inf")
        table.add_row(
            label, value, round(frac_s, 5), round(int_s, 5),
            round(speedup, 2), steps,
        )
        if label.startswith("n "):
            times_frac_n.append(frac_s)
            times_int_n.append(int_s)
        else:
            times_int_m.append(int_s)
    e_n, _ = fit_power_law([float(x) for x in ns], times_int_n)
    e_fn, _ = fit_power_law([float(x) for x in ns], times_frac_n)
    e_m, _ = fit_power_law([float(x) for x in ms], times_int_m)
    table.notes.append(f"int time ~ n^{e_n:.2f} at fixed m (claim: <= ~2)")
    table.notes.append(f"fraction time ~ n^{e_fn:.2f} at fixed m")
    table.notes.append(f"int time ~ m^{e_m:.2f} at fixed n (claim: ~linear)")
    return table


# ---------------------------------------------------------------------------
# E5 — SRT (Theorem 4.8)
# ---------------------------------------------------------------------------


def _e5_cell(
    params: Dict,
) -> Tuple[List[float], List[float], List[float]]:
    """Run all trials of one E5 grid cell (picklable worker)."""
    m, k, family = params["m"], params["k"], params["family"]
    trials = params["trials"]
    rng = random.Random(params["seed"])
    r_split: List[float] = []
    r_fifo: List[float] = []
    r_job: List[float] = []
    for _ in range(trials):
        ti = make_taskset(family, rng, m, k)
        lb = srt_lower_bound(ti)
        if lb == 0:
            continue
        r_split.append(schedule_tasks(ti).sum_completion_times() / lb)
        r_fifo.append(schedule_tasks_fifo(ti).sum_completion_times() / lb)
        r_job.append(
            schedule_tasks_job_level(ti).sum_completion_times() / lb
        )
    return r_split, r_fifo, r_job


def run_e5(
    scale: str = "small",
    seed: int = 0,
    workers: int | None = None,
    cache_dir: Optional[str] = None,
) -> ExperimentTable:
    """SRT sum of completion times vs the Lemma 4.3 lower bound, sweeping
    the number of tasks k; the o(1) term should shrink with k.

    Grid cells fan out across *workers* processes with deterministic
    per-cell seeds (worker-count independent)."""
    p = _scale_params(scale)
    table = ExperimentTable(
        id="E5",
        title="SRT: sum of task completion times / Lemma 4.3 LB",
        headers=[
            "m", "k", "family", "split alg", "fifo", "job-level",
            "factor 2+4/(m-3)",
        ],
    )
    ks = [4, 8, 16, 32] if scale == "small" else [4, 8, 16, 32, 64, 128]
    trials = max(p["trials"] // 2, 2)
    cells = [
        (m, k, family)
        for m in (6, 10, 20)
        for k in ks
        for family in ("mixed", "cloud")
    ]
    spec = SweepSpec.from_points(
        "e5-srt",
        _e5_cell,
        [
            {"m": m, "k": k, "family": family, "trials": trials,
             "seed": seed_for(seed, ci)}
            for ci, (m, k, family) in enumerate(cells)
        ],
        version="v1",
    )
    results = run_sweep(spec, workers=workers, cache_dir=cache_dir).rows
    for (m, k, family), (r_split, r_fifo, r_job) in zip(cells, results):
        table.add_row(
            m, k, family,
            round(Summary.of(r_split).mean, 4),
            round(Summary.of(r_fifo).mean, 4),
            round(Summary.of(r_job).mean, 4),
            round(float(srt_guarantee_factor(m)), 4),
        )
    return table


# ---------------------------------------------------------------------------
# E6 — true optima via MILP
# ---------------------------------------------------------------------------


def run_e6(scale: str = "small", seed: int = 0) -> ExperimentTable:
    """Small instances solved exactly: the algorithm's ratio vs true OPT,
    and the Eq.(1) LB's gap to OPT."""
    trials = 6 if scale == "small" else 20
    table = ExperimentTable(
        id="E6",
        title="Algorithm vs exact OPT (MILP) on small instances",
        headers=[
            "family", "m", "trials", "mean ALG/OPT", "max ALG/OPT",
            "mean OPT/LB",
        ],
    )
    rng = random.Random(seed)
    configs = [
        ("unit-uniform", 2), ("unit-uniform", 3), ("unit-uniform", 4),
        ("general", 3), ("general", 4),
    ]
    for family, m in configs:
        alg_opt, opt_lb = [], []
        for _ in range(trials):
            n = rng.randint(3, 6)
            if family == "unit-uniform":
                reqs = uniform_fractions(rng, n, denominator=24)
                inst = Instance.from_requirements(m, reqs)
            else:
                reqs = uniform_fractions(rng, n, denominator=24)
                sizes = [rng.randint(1, 2) for _ in range(n)]
                inst = Instance.from_requirements(m, reqs, sizes)
            res = schedule_srj(inst)
            try:
                ex = solve_exact(inst, upper_bound=res.makespan)
            except Exception:
                continue
            alg_opt.append(res.makespan / ex.makespan)
            opt_lb.append(ex.makespan / ex.lower_bound)
        sa, so = Summary.of(alg_opt), Summary.of(opt_lb)
        table.add_row(
            family, m, sa.n, round(sa.mean, 4), round(sa.maximum, 4),
            round(so.mean, 4),
        )
    # hardness gadget: planted-YES 3-Partition (OPT known = q, m = 3)
    ratios = []
    for _ in range(trials):
        inst, q = three_partition_instance(rng, rng.randint(2, 4))
        res = schedule_unit(inst)
        ratios.append(res.makespan / q)
    s = Summary.of(ratios)
    table.add_row(
        "3-partition(m=3)", 3, s.n, round(s.mean, 4), round(s.maximum, 4),
        1.0,
    )
    return table


# ---------------------------------------------------------------------------
# E7 — ablations
# ---------------------------------------------------------------------------


def run_e7(scale: str = "small", seed: int = 0) -> ExperimentTable:
    """Design-choice ablations: MoveWindowRight off, greedy fill policy."""
    p = _scale_params(scale)
    table = ExperimentTable(
        id="E7",
        title="Ablations: makespan / Eq.(1) LB",
        headers=[
            "family", "m", "full alg", "no MoveWindowRight", "greedy fill",
            "list sched",
        ],
        notes=["MoveWindowRight is what keeps utilization high when small "
               "jobs pile up at the left border"],
    )
    rng = random.Random(seed)
    from ..baselines import schedule_greedy_fill, schedule_list_scheduling

    for family in ("uniform", "bimodal", "sawtooth"):
        for m in (4, 8, 16):
            full, nomove, greedy, listsched = [], [], [], []
            for _ in range(max(p["trials"] // 2, 2)):
                if family == "sawtooth":
                    inst = sawtooth_instance(rng, m, teeth=max(p["n"] // 10, 4))
                else:
                    inst = make_instance(family, rng, m, p["n"] // 2)
                lb = makespan_lower_bound(inst)
                full.append(schedule_srj(inst).makespan / lb)
                nomove.append(
                    solve_srj(inst, backend="fraction", enable_move=False)
                    .makespan / lb
                )
                greedy.append(schedule_greedy_fill(inst).makespan / lb)
                listsched.append(
                    schedule_list_scheduling(inst).makespan / lb
                )
            table.add_row(
                family, m,
                round(Summary.of(full).mean, 4),
                round(Summary.of(nomove).mean, 4),
                round(Summary.of(greedy).mean, 4),
                round(Summary.of(listsched).mean, 4),
            )
    return table


# ---------------------------------------------------------------------------
# E8 — Lemma 4.1/4.2 per-task bounds
# ---------------------------------------------------------------------------


def run_e8(scale: str = "small", seed: int = 0) -> ExperimentTable:
    """Per-task completion times vs the Lemma 4.1/4.2 guarantees: the
    bound must hold for every task; report tightness."""
    p = _scale_params(scale)
    table = ExperimentTable(
        id="E8",
        title="Per-task completion-time bounds (Lemmas 4.1 / 4.2)",
        headers=[
            "lemma", "m", "tasks", "violations", "mean slack (steps)",
            "fraction tight",
        ],
    )
    rng = random.Random(seed)
    for m in (4, 6, 10, 16):
        # heavy (Lemma 4.1) with the Theorem 4.8 allotment
        slacks, tight, violations, count = [], 0, 0, 0
        for _ in range(p["trials"]):
            ti = make_taskset("heavy", rng, m, p["k"])
            m1, r1 = heavy_allotment(m)
            if m1 < 2:
                continue
            ordered = sorted(
                ti.tasks, key=lambda t: (t.total_requirement(), t.id)
            )
            res = run_sequential(ordered, m1, r1, record_steps=False)
            bounds = heavy_completion_bound(ordered, r1)
            for task, b in zip(ordered, bounds):
                f = res.completion_times[task.id]
                count += 1
                if f > b:
                    violations += 1
                slacks.append(b - f)
                if f == b:
                    tight += 1
        table.add_row(
            "4.1 heavy", m, count, violations,
            round(sum(slacks) / max(len(slacks), 1), 3),
            round(tight / max(count, 1), 3),
        )
        slacks, tight, violations, count = [], 0, 0, 0
        for _ in range(p["trials"]):
            ti = make_taskset("light", rng, m, p["k"])
            m2, _r2 = light_allotment(m)
            if m2 < 2:
                continue
            ordered = sorted(ti.tasks, key=lambda t: (t.n_jobs, t.id))
            res = run_sequential(
                ordered, m2, Fraction(1, 2), record_steps=False
            )
            bounds = light_completion_bound(ordered, m2)
            for task, b in zip(ordered, bounds):
                f = res.completion_times[task.id]
                count += 1
                if f > b:
                    violations += 1
                slacks.append(b - f)
                if f == b:
                    tight += 1
        table.add_row(
            "4.2 light", m, count, violations,
            round(sum(slacks) / max(len(slacks), 1), 3),
            round(tight / max(count, 1), 3),
        )
    return table


# ---------------------------------------------------------------------------
# E9 — baselines comparison
# ---------------------------------------------------------------------------


def run_e9(scale: str = "small", seed: int = 0) -> ExperimentTable:
    """SRJ: the paper's algorithm vs all baselines across families."""
    p = _scale_params(scale)
    table = ExperimentTable(
        id="E9",
        title="SRJ makespan / Eq.(1) LB: algorithm vs baselines",
        headers=["family", "m", "sliding window"] + sorted(BASELINES),
    )
    rng = random.Random(seed)
    for family in ("uniform", "bimodal", "heavy_tail", "anti_correlated"):
        for m in (4, 8, 16):
            ours = []
            base: Dict[str, List[float]] = {k: [] for k in BASELINES}
            for _ in range(max(p["trials"] // 2, 2)):
                inst = make_instance(family, rng, m, p["n"] // 2)
                lb = makespan_lower_bound(inst)
                ours.append(schedule_srj(inst).makespan / lb)
                for name, runner in BASELINES.items():
                    base[name].append(runner(inst).makespan / lb)
            table.add_row(
                family, m, round(Summary.of(ours).mean, 4),
                *(
                    round(Summary.of(base[name]).mean, 4)
                    for name in sorted(BASELINES)
                ),
            )
    return table


def _load_extensions():
    from .experiments_ext import run_e10, run_e11
    from .experiments_extra import run_e12, run_e13
    from .experiments_online import run_e15
    from .figures import run_f1, run_f2, run_f3
    from .worstcase import run_e14

    return {
        "e10": run_e10,
        "e11": run_e11,
        "e12": run_e12,
        "e13": run_e13,
        "e14": run_e14,
        "e15": run_e15,
        "f1": run_f1,
        "f2": run_f2,
        "f3": run_f3,
    }


ALL_EXPERIMENTS = {
    "e1": run_e1,
    "e2": run_e2,
    "e3": run_e3,
    "e4": run_e4,
    "e5": run_e5,
    "e6": run_e6,
    "e7": run_e7,
    "e8": run_e8,
    "e9": run_e9,
    **_load_extensions(),
}

"""``sweep_srt``: SRT points on the sweep fabric, 2 workers.

Each op is one ``run_sweep`` of 64 SRT points (four ``make_taskset``
families × m ∈ {8, 16}, 120 tasks, one ``seed_for`` seed per point) into
a cache directory that lives for the whole run.  Op *i* covers points
``32·i … 32·i + 63`` of one endless point sequence, so it shares 32
points with op *i − 1*: every timed op reads 32 cached rows and solves
and persists 32 new ones.  This is the only workload through the sweep
store and runner and through SRT's ``SequentialTaskPolicy``.

:func:`solve_point` is the sweep's ``run_point``; it is module-level so
pool workers can unpickle it by name.
"""

from __future__ import annotations

import os
import random
from itertools import product
from typing import Dict, List

from repro.perf import seed_for
from repro.sweep import ResultStore, SweepSpec, run_sweep
from repro.tasks import solve_srt, validate_task_schedule
from repro.workloads import make_taskset

from harness import Window, Workload, completion_digest, engine_metrics, per_op
from tracing import LayerObserver

SWEEP = "perfbench-sweep-srt"
COMBOS = list(product(("heavy", "light", "mixed", "cloud"), (8, 16)))
TASKS = 120
GRID = 64
STRIDE = 32
WORKERS = 2
#: points of the warm-up grid re-solved and validated at the end
CHECK_POINTS = 8


def point_params(seed: int, j: int) -> Dict:
    """Parameters of point *j* of the sequence for *seed*."""
    family, m = COMBOS[j % len(COMBOS)]
    return {"family": family, "m": m, "k": TASKS, "seed": seed_for(seed, j)}


def grid(seed: int, index: int) -> List[Dict]:
    """The 64 point parameter dicts of op *index*."""
    return [point_params(seed, j)
            for j in range(STRIDE * index, STRIDE * index + GRID)]


def _solve(params: Dict, record_steps: bool = False, observer=None):
    taskset = make_taskset(params["family"], random.Random(params["seed"]),
                           params["m"], params["k"])
    result = solve_srt(taskset, backend="int", record_steps=record_steps,
                       observer=observer)
    row = {
        "jobs": taskset.n_jobs,
        "makespan": result.makespan,
        "completion": completion_digest(result.completion_times),
    }
    return taskset, result, row


def solve_point(params: Dict) -> Dict:
    """The sweep's ``run_point``: one SRT point as a JSON row."""
    return _solve(params)[2]


class SweepSrt(Workload):
    name = "sweep_srt"

    def prepare(self) -> None:
        self.cache_dir = os.path.join(self.workdir, "sweep-cache")
        self.rows: Dict[int, List] = {}
        #: traced run only: each op's report, for the per-layer counts
        self.reports: Dict[int, object] = {}
        self.scratch = None

    def spec(self, index: int) -> SweepSpec:
        return SweepSpec.from_points(SWEEP, solve_point,
                                     grid(self.seed, index))

    def op(self, index: int, traced: bool):
        spec = self.spec(index)
        if not traced:
            return run_sweep(spec, cache_dir=self.cache_dir, workers=WORKERS)
        with self.tracer.span("sweep"):
            return run_sweep(spec, cache_dir=self.cache_dir, workers=WORKERS,
                             observer=LayerObserver(self.tracer, "sweep"))

    def verify(self, index: int, report) -> int:
        new = GRID if index == 0 else STRIDE
        self.expect(report.complete and report.total == GRID
                    and report.cache_hits == GRID - new
                    and report.solved == new,
                    f"op {index}: {report.cache_hits} hits and "
                    f"{report.solved} solved of {report.total} points")
        previous = self.rows.pop(index - 1, None)
        if previous is not None:
            self.expect(report.rows[:STRIDE] == previous[STRIDE:],
                        f"op {index}: shared rows differ from op {index - 1}")
        self.rows[index] = report.rows
        if self.traced_run:
            self.reports[index] = report
        return sum(row["jobs"] for row in report.rows[GRID - new:])

    def probe(self, index: int) -> None:
        """Solve the op's new points again serially in-process, and replay
        its store reads and writes on a scratch store."""
        tracer = self.tracer
        spec = self.spec(index)
        solved = spec.points[GRID - STRIDE:]
        rows = self.rows[index]
        if self.scratch is None:
            # the first probed op finds its shared rows stored, as in the
            # sweep's own cache
            self.scratch = ResultStore(
                os.path.join(self.workdir, "scratch-store"), SWEEP)
            for point, row in zip(spec.points[:STRIDE], rows):
                self.scratch.put(point.key, point.params, row)
        store = self.scratch
        with tracer.span("probe"):
            for point in solved:
                with tracer.span("tasks"):
                    _solve(point.params,
                           observer=LayerObserver(tracer, "engine"))
            for point in spec.points:
                with tracer.span("sweep.store_get"):
                    store.get(point.key)
            for point in solved:
                with tracer.span("sweep.store_put"):
                    store.put(point.key, point.params,
                              rows[point.index])

    def check(self) -> None:
        """Re-solve the first points with recorded steps: each must pass
        ``validate_task_schedule`` and equal its cached row."""
        store = ResultStore(self.cache_dir, SWEEP)
        for point in self.spec(0).points[:CHECK_POINTS]:
            taskset, result, row = _solve(point.params, record_steps=True)
            with self.tracer.span("core.validate"):
                violations = validate_task_schedule(taskset, result)
            self.tracer.count("core.violations", len(violations))
            self.expect(not violations, f"point {point.index}: invalid "
                        f"task schedule {violations[:3]}")
            self.expect(store.get(point.key) == row,
                        f"point {point.index}: cached row differs from an "
                        "in-process solve")

    def layer_metrics(self, window: Window) -> Dict[str, float]:
        ops = window.attempted
        tracer = self.tracer
        reports = [r for i, r in self.reports.items()
                   if i >= self.next_index - ops]
        points = sum(r.total for r in reports)
        hits = sum(r.cache_hits for r in reports)
        tasks_s = per_op(tracer.total("tasks"), ops)
        solve_s = per_op(tracer.total("sweep.solve"), ops)

        def pool(counter: str) -> int:
            return sum(r.metrics.counter(f"sweep.{counter}") for r in reports)

        return {
            **engine_metrics(tracer, ops),
            "tasks.solve_s": tasks_s,
            "sweep.points": per_op(points, ops),
            "sweep.cache_hits": per_op(hits, ops),
            "sweep.solved": per_op(sum(r.solved for r in reports), ops),
            "sweep.hit_ratio": per_op(hits, points),
            "sweep.lookup_s": per_op(tracer.total("sweep.lookup"), ops),
            "sweep.solve_s": solve_s,
            "sweep.parallel_efficiency": (
                tasks_s / (WORKERS * solve_s) if solve_s else 0.0),
            "sweep.store_get_s": per_op(tracer.total("sweep.store_get"), ops),
            "sweep.store_put_s": per_op(tracer.total("sweep.store_put"), ops),
            "perf.retries": pool("retries"),
            "perf.timeouts": pool("timeouts"),
            "perf.broken_pools": pool("broken_pools"),
        }

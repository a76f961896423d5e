"""``srj_solve``: Listing 1 on the library path, one process.

Ten instances (five ``make_instance`` families × m ∈ {8, 32}, n = 3000)
solved with ``repro.solve_srj(inst, backend="int")``.  One op is one pass
over the ten, in a fixed order: single solves take 20–50 ms depending on
the instance, so the median of single solves sits between two instances
and jumps when the host slows some solves more than others, while every
pass has the same mix.  The engine loop (``SlidingWindowPolicy`` bulk
steps over ``EngineState``) does almost all the work; the sweep fabric,
the daemon and the unit-size window are not involved, so a change to
those must show no change here.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Dict, List

import repro
from repro.perf import seed_for
from repro.workloads import make_instance

from harness import Window, Workload, completion_digest, engine_metrics
from tracing import LayerObserver

FAMILIES = ("uniform", "bimodal", "heavy_tail", "correlated",
            "anti_correlated")
MACHINES = (8, 32)
N_JOBS = 3000


def make_inputs(seed: int) -> List:
    """The ten instances of *seed*, in cycle order."""
    return [
        make_instance(family, random.Random(seed_for(seed, i)), m, N_JOBS)
        for i, (family, m) in enumerate(product(FAMILIES, MACHINES))
    ]


class SrjSolve(Workload):
    name = "srj_solve"

    def prepare(self) -> None:
        self.instances = make_inputs(self.seed)
        #: first result of each instance, and its (makespan, digest): the
        #: reference every repeat must equal
        self.first: Dict[int, object] = {}
        self.ref: Dict[int, tuple] = {}

    def op(self, index: int, traced: bool):
        if not traced:
            return [repro.solve_srj(instance, backend="int")
                    for instance in self.instances]
        results = []
        for instance in self.instances:
            with self.tracer.span("engine"):
                results.append(repro.solve_srj(
                    instance, backend="int",
                    observer=LayerObserver(self.tracer, "engine"),
                ))
        return results

    def verify(self, index: int, results) -> int:
        for slot, result in enumerate(results):
            answer = (result.makespan,
                      completion_digest(result.completion_times))
            if slot not in self.ref:
                self.first[slot] = result
                self.ref[slot] = answer
            self.expect(answer == self.ref[slot], f"instance {slot}: op "
                        f"{index} differs from its first solve")
        return N_JOBS * len(results)

    def check(self) -> None:
        for slot, result in sorted(self.first.items()):
            with self.tracer.span("core.validate"):
                report = repro.validate_result(result)
            self.tracer.count("core.violations", len(report.violations))
            self.expect(report.ok, f"instance {slot}: invalid schedule "
                        f"{report.violations[:3]}")

    def layer_metrics(self, window: Window) -> Dict[str, float]:
        return engine_metrics(self.tracer, window.attempted)

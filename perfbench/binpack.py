"""``binpack``: Corollary 3.9 bin packing on the library path, one process.

Six lists of 10 000 splittable items (sizes uniform on (0, 6/5] as the
``binpack`` CLI draws them, and ``bimodal_fractions``) × k ∈ {4, 8, 16},
packed with ``pack_sliding_window(items, k, backend="int")``.  This is the
only workload through ``UnitWindowPolicy``: at 10⁴ items its per-step
rebuild of the virtual order is about half of each op, the Fraction emit
and ``result_to_packing`` are the other half.

The traced op runs the same pipeline as its three public steps
(``items_to_instance`` → ``schedule_unit(observer=)`` →
``result_to_packing``) so each gets a span, and checks that the packing
equals the one ``pack_sliding_window`` returned for the same items.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Dict, List, Tuple

import repro
from repro.binpacking import (
    items_to_instance,
    make_items,
    pack_sliding_window,
    packing_lower_bound,
    result_to_packing,
)
from repro.perf import seed_for
from repro.workloads import bimodal_fractions, uniform_fractions

from harness import Window, Workload, engine_metrics, per_op
from tracing import LayerObserver

DISTRIBUTIONS = ("uniform", "bimodal")
CARDINALITIES = (4, 8, 16)
N_ITEMS = 10_000


def make_inputs(seed: int) -> List[Tuple[list, int]]:
    """The six ``(items, k)`` inputs of *seed*, in cycle order."""
    inputs = []
    for i, (dist, k) in enumerate(product(DISTRIBUTIONS, CARDINALITIES)):
        rng = random.Random(seed_for(seed, i))
        if dist == "uniform":
            sizes = uniform_fractions(rng, N_ITEMS, hi=Fraction(6, 5))
        else:
            sizes = bimodal_fractions(rng, N_ITEMS)
        inputs.append((make_items(sizes), k))
    return inputs


class Binpack(Workload):
    name = "binpack"
    cycle = len(DISTRIBUTIONS) * len(CARDINALITIES)

    def prepare(self) -> None:
        self.inputs = make_inputs(self.seed)
        self.bins: Dict[int, int] = {}
        #: traced run only: the first packing of each input, which every
        #: decomposed (traced) packing of the same items must equal
        self.packings: Dict[int, object] = {}

    def op(self, index: int, traced: bool):
        items, k = self.inputs[index % self.cycle]
        if not traced:
            return pack_sliding_window(items, k, backend="int")
        tracer = self.tracer
        with tracer.span("binpacking.reduce"):
            instance = items_to_instance(items, k)
        with tracer.span("engine"):
            result = repro.schedule_unit(
                instance, backend="int",
                observer=LayerObserver(tracer, "engine"),
            )
        with tracer.span("binpacking.packing"):
            return result_to_packing(items, k, result)

    def verify(self, index: int, packing) -> int:
        slot = index % self.cycle
        first = self.bins.setdefault(slot, packing.num_bins)
        self.expect(packing.num_bins == first,
                    f"input {slot}: op {index} used {packing.num_bins} "
                    f"bins, the first op {first}")
        if self.traced_run:
            ref = self.packings.setdefault(slot, packing)
            self.expect(packing == ref, f"input {slot}: op {index} packing "
                        "differs from pack_sliding_window's")
        return N_ITEMS

    def check(self) -> None:
        for slot, (items, k) in enumerate(self.inputs):
            result = repro.schedule_unit(items_to_instance(items, k),
                                         backend="int")
            with self.tracer.span("core.validate"):
                report = repro.validate_result(result)
            self.tracer.count("core.violations", len(report.violations))
            bins = self.bins.get(slot)
            self.expect(report.ok, f"input {slot}: invalid unit schedule "
                        f"{report.violations[:3]}")
            self.expect(result.makespan == bins,
                        f"input {slot}: schedule makespan {result.makespan} "
                        f"!= {bins} bins")
            lower = packing_lower_bound(items, k)
            self.expect(bins is not None and bins >= lower,
                        f"input {slot}: {bins} bins below the lower bound "
                        f"{lower}")

    def layer_metrics(self, window: Window) -> Dict[str, float]:
        ops = window.attempted
        tracer = self.tracer
        return {
            **engine_metrics(tracer, ops),
            "binpacking.reduce_s": per_op(
                tracer.total("binpacking.reduce"), ops),
            "binpacking.packing_s": per_op(
                tracer.total("binpacking.packing"), ops),
            "binpacking.bins": sum(self.bins.values()) / len(self.bins),
        }

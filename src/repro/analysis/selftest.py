"""Internal consistency battery — ``repro-sched selftest``.

Runs the independent implementations of the same mathematics against each
other on fresh random instances:

* accelerated scheduler ≡ step-exact scheduler ≡ policy-through-engine
  (three code paths, one algorithm);
* unit scheduler on the scaled-integer backend ≡ on exact rationals;
* bin packing via reduction ≡ unit scheduling directly;
* every schedule passes the first-principles validator;
* lower bounds never exceed achieved makespans; guarantees hold.

This is the five-minute "is my checkout sane" check a user runs after
installing — much faster than the full pytest suite, and self-contained.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List


@dataclass
class SelfTestResult:
    """Outcome of the battery."""

    checks: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


def run_selftest(trials: int = 25, seed: int = 0) -> SelfTestResult:
    """Run the battery; returns a :class:`SelfTestResult`."""
    from ..baselines import schedule_window_via_engine
    from ..binpacking import (
        make_items,
        pack_sliding_window,
        packing_lower_bound,
    )
    from ..core.bounds import makespan_lower_bound
    from ..core.instance import Instance
    from ..core.unit import schedule_unit
    from ..core.validate import validate_schedule
    from ..engine.api import solve_srj, unit_makespan

    rng = random.Random(seed)
    result = SelfTestResult()

    for trial in range(trials):
        m = rng.randint(2, 8)
        n = rng.randint(1, 12)
        reqs = [
            Fraction(rng.randint(1, 32), rng.randint(8, 32))
            for _ in range(n)
        ]
        sizes = [rng.randint(1, 4) for _ in range(n)]
        inst = Instance.from_requirements(m, reqs, sizes)
        tag = f"trial {trial} (m={m}, n={n})"

        fast = solve_srj(inst, backend="fraction", accelerate=True)
        slow = solve_srj(inst, backend="fraction", accelerate=False)
        engine = schedule_window_via_engine(inst)
        result.record(
            fast.makespan == slow.makespan == engine.makespan,
            f"{tag}: implementations disagree "
            f"({fast.makespan}/{slow.makespan}/{engine.makespan})",
        )
        report = validate_schedule(fast.schedule(max_steps=10**6))
        result.record(
            report.ok, f"{tag}: schedule invalid: {report.violations[:3]}"
        )
        lb = makespan_lower_bound(inst)
        result.record(
            lb <= fast.makespan, f"{tag}: LB {lb} > makespan {fast.makespan}"
        )
        if m >= 3:
            bound = (2 + 1 / (m - 2)) * lb + 1e-9
            result.record(
                fast.makespan <= bound,
                f"{tag}: guarantee violated ({fast.makespan} > {bound})",
            )

        # unit-size cross-checks: int backend ≡ exact rationals
        unit_reqs = [Fraction(rng.randint(1, 64), 64) for _ in range(n)]
        unit_inst = Instance.from_requirements(m, unit_reqs)
        exact_unit = schedule_unit(unit_inst).makespan
        int_unit = unit_makespan(unit_reqs, m, Fraction(1), backend="int")
        result.record(
            exact_unit == int_unit,
            f"{tag}: int backend {int_unit} != exact {exact_unit}",
        )
        items = make_items(unit_reqs)
        packing = pack_sliding_window(items, m)
        result.record(
            packing.num_bins == exact_unit,
            f"{tag}: packing bins {packing.num_bins} != steps {exact_unit}",
        )
        result.record(
            packing.is_valid(), f"{tag}: packing invalid"
        )
        result.record(
            packing.num_bins >= packing_lower_bound(items, m),
            f"{tag}: packing below its lower bound",
        )
    return result


def format_selftest(result: SelfTestResult) -> str:
    if result.ok:
        return f"selftest OK: {result.checks} checks passed"
    lines = [
        f"selftest FAILED: {len(result.failures)} of {result.checks} checks"
    ]
    lines.extend(f"  {msg}" for msg in result.failures[:20])
    return "\n".join(lines)

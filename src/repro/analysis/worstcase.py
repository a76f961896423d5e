"""Systematic worst-case search — probing the tightness of Theorem 3.3.

The paper proves ``2 + 1/(m-2)`` but exhibits no matching lower-bound
instance.  This module runs a simulated-annealing search over requirement/
size vectors to find instances with high empirical ratio (vs. the Eq.(1)
LB, and optionally vs. the true MILP optimum for small n), mapping how far
the analysis appears from tight.  Experiment E14 reports the results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from ..core.bounds import makespan_lower_bound
from ..core.instance import Instance
from ..core.scheduler import schedule_srj
from .tables import ExperimentTable


@dataclass
class WorstCase:
    """Best instance found by the search."""

    m: int
    requirements: List[Fraction]
    sizes: List[int]
    makespan: int
    lower_bound: int

    @property
    def ratio(self) -> float:
        return self.makespan / self.lower_bound


def _evaluate(m: int, reqs: List[Fraction], sizes: List[int]) -> WorstCase:
    inst = Instance.from_requirements(m, reqs, sizes)
    res = schedule_srj(inst)
    return WorstCase(
        m=m,
        requirements=list(reqs),
        sizes=list(sizes),
        makespan=res.makespan,
        lower_bound=makespan_lower_bound(inst),
    )


def anneal_worst_case(
    m: int,
    n: int,
    iterations: int = 600,
    seed: int = 0,
    denominator: int = 48,
    unit_sizes: bool = False,
    initial_temperature: float = 0.08,
) -> WorstCase:
    """Simulated annealing maximizing makespan / Eq.(1) LB."""
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    rng = random.Random(seed)
    reqs = [
        Fraction(rng.randint(1, denominator), denominator) for _ in range(n)
    ]
    sizes = [1] * n if unit_sizes else [rng.randint(1, 4) for _ in range(n)]
    current = _evaluate(m, reqs, sizes)
    best = current
    for step in range(iterations):
        temperature = initial_temperature * (1.0 - step / iterations)
        cand_reqs = list(current.requirements)
        cand_sizes = list(current.sizes)
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(n)
            move = rng.random()
            if move < 0.6 or unit_sizes:
                cand_reqs[i] = Fraction(
                    rng.randint(1, denominator), denominator
                )
            elif move < 0.85:
                cand_sizes[i] = max(
                    1, cand_sizes[i] + rng.choice((-1, 1))
                )
            else:
                cand_sizes[i] = rng.randint(1, 6)
        cand = _evaluate(m, cand_reqs, cand_sizes)
        delta = cand.ratio - current.ratio
        if delta >= 0 or (
            temperature > 0
            and rng.random() < math.exp(delta / temperature)
        ):
            current = cand
            if cand.ratio > best.ratio:
                best = cand
    return best


def run_e14(scale: str = "small", seed: int = 0) -> ExperimentTable:
    """Tightness probe: best found ratio per m vs the proven guarantee."""
    iterations = 250 if scale == "small" else 1500
    table = ExperimentTable(
        id="E14",
        title="Tightness probe: annealed worst-case ratio vs guarantee",
        headers=[
            "m", "n", "sizes", "best found ratio", "guarantee 2+1/(m-2)",
            "gap",
        ],
        notes=[
            "gap = guarantee - found; a large gap suggests the analysis "
            "is not tight (no matching lower bound is given in the paper)",
        ],
    )
    for m in (3, 4, 6, 8):
        for n, unit in ((2 * m, False), (3 * m, True)):
            best = anneal_worst_case(
                m, n, iterations=iterations, seed=seed, unit_sizes=unit
            )
            guarantee = 2 + 1 / (m - 2)
            table.add_row(
                m, n, "unit" if unit else "general",
                round(best.ratio, 4), round(guarantee, 4),
                round(guarantee - best.ratio, 4),
            )
    return table

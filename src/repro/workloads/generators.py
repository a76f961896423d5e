"""Synthetic SRJ instance generators — the workload families of DESIGN.md.

Families
--------
* ``uniform`` / ``bimodal`` / ``heavy_tail`` — requirement distributions of
  :mod:`repro.workloads.distributions` with independent sizes;
* ``correlated`` — requirement and size positively correlated (large jobs
  are also data-hungry), stressing the window's resource budget;
* ``anti_correlated`` — large jobs with tiny requirements (processor-bound
  mix), stressing the cardinality side;
* ``planted`` — instances with a *known optimal makespan*, built by
  generating a tight schedule first and reading the jobs off it
  (:func:`planted_instance`): every step uses the full resource and all
  ``m`` processors, so ``OPT`` equals the construction horizon exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from ..core.instance import Instance
from .distributions import (
    bimodal_fractions,
    geometric_sizes,
    heavy_tail_fractions,
    uniform_fractions,
    uniform_sizes,
)


def uniform_instance(
    rng: random.Random,
    m: int,
    n: int,
    size_mean: float = 3.0,
    denominator: int = 120,
) -> Instance:
    """Uniform requirements in (0, 1], geometric sizes."""
    reqs = uniform_fractions(rng, n, denominator=denominator)
    sizes = geometric_sizes(rng, n, mean=size_mean)
    return Instance.from_requirements(m, reqs, sizes)


def bimodal_instance(rng: random.Random, m: int, n: int) -> Instance:
    """Bimodal requirements (small majority, large minority)."""
    reqs = bimodal_fractions(rng, n)
    sizes = geometric_sizes(rng, n)
    return Instance.from_requirements(m, reqs, sizes)


def heavy_tail_instance(rng: random.Random, m: int, n: int) -> Instance:
    """Pareto requirements with a cap; a few resource hogs dominate."""
    reqs = heavy_tail_fractions(rng, n)
    sizes = geometric_sizes(rng, n)
    return Instance.from_requirements(m, reqs, sizes)


def correlated_instance(
    rng: random.Random, m: int, n: int, denominator: int = 120
) -> Instance:
    """Requirement grows with size: big jobs are also bandwidth-hungry."""
    sizes = uniform_sizes(rng, n, 1, 10)
    reqs = []
    for p in sizes:
        base = Fraction(p, 12)  # in (0, 10/12]
        jitter = Fraction(rng.randint(1, denominator // 6), denominator)
        reqs.append(base / 2 + jitter)
    return Instance.from_requirements(m, reqs, sizes)


def anti_correlated_instance(
    rng: random.Random, m: int, n: int, denominator: int = 120
) -> Instance:
    """Large jobs have tiny requirements and vice versa."""
    sizes = uniform_sizes(rng, n, 1, 10)
    reqs = []
    for p in sizes:
        num = max(denominator // (p * 4) + rng.randint(-2, 2), 1)
        reqs.append(Fraction(num, denominator))
    return Instance.from_requirements(m, reqs, sizes)


def unit_instance(
    rng: random.Random,
    m: int,
    n: int,
    family: str = "uniform",
    denominator: int = 120,
) -> Instance:
    """Unit-size instance with the requested requirement family."""
    if family == "uniform":
        reqs = uniform_fractions(rng, n, denominator=denominator)
    elif family == "bimodal":
        reqs = bimodal_fractions(rng, n, denominator=denominator)
    elif family == "heavy_tail":
        reqs = heavy_tail_fractions(rng, n, denominator=denominator)
    else:
        raise ValueError(f"unknown family {family!r}")
    return Instance.from_requirements(m, reqs)


FAMILIES = {
    "uniform": uniform_instance,
    "bimodal": bimodal_instance,
    "heavy_tail": heavy_tail_instance,
    "correlated": correlated_instance,
    "anti_correlated": anti_correlated_instance,
    "unit": unit_instance,
}


def make_instance(
    family: str, rng: random.Random, m: int, n: int
) -> Instance:
    """Dispatch on a family name from :data:`FAMILIES`."""
    try:
        gen = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        ) from None
    return gen(rng, m, n)


# ---------------------------------------------------------------------------
# Planted-optimum instances
# ---------------------------------------------------------------------------


def planted_instance(
    rng: random.Random,
    m: int,
    horizon: int,
    switch_prob: float = 0.4,
    denominator: int = 60,
) -> Tuple[Instance, int]:
    """Generate an instance whose optimal makespan is *horizon* exactly.

    Construction: an ``m × horizon`` grid where every processor runs one job
    at a time with a constant share; column sums are always exactly 1, so
    the resource lower bound equals ``horizon`` and the construction itself
    is a feasible schedule attaining it (hence ``OPT = horizon``).

    At each step, with probability *switch_prob* two processors end their
    current jobs simultaneously and re-split their combined share randomly;
    additionally each processor's job ends independently with small
    probability (keeping its share for the successor job).

    Returns ``(instance, horizon)``.
    """
    if m < 1 or horizon < 1:
        raise ValueError("need m >= 1 and horizon >= 1")
    # current share per processor (sums to 1)
    shares = _random_simplex(rng, m, denominator)
    # per processor: (share, start_time) of the running job
    running: List[Tuple[Fraction, int]] = [(shares[i], 0) for i in range(m)]
    jobs: List[Tuple[int, Fraction]] = []  # (size, requirement)

    def finish(proc: int, t: int) -> None:
        share, start = running[proc]
        length = t - start
        if length > 0 and share > 0:
            jobs.append((length, share))

    for t in range(1, horizon):
        if m >= 2 and rng.random() < switch_prob:
            a, b = rng.sample(range(m), 2)
            combined = running[a][0] + running[b][0]
            num = int(combined * denominator)
            if num >= 2:
                # both shares must stay strictly positive so that every
                # column of the grid sums to exactly 1 with all m
                # processors productive — this is what pins OPT = horizon
                finish(a, t)
                finish(b, t)
                cut = rng.randint(1, num - 1)
                new_a = Fraction(cut, denominator)
                new_b = combined - new_a
                running[a] = (new_a, t)
                running[b] = (new_b, t)
        elif rng.random() < switch_prob / 2:
            p = rng.randrange(m)
            finish(p, t)
            running[p] = (running[p][0], t)
    for p in range(m):
        finish(p, horizon)
    sizes = [sz for sz, _ in jobs]
    reqs = [r for _, r in jobs]
    inst = Instance.from_requirements(m, reqs, sizes)
    return inst, horizon


def _random_simplex(
    rng: random.Random, m: int, denominator: int
) -> List[Fraction]:
    """Random point on the unit simplex with denominator-bounded entries,
    each entry strictly positive."""
    if m == 1:
        return [Fraction(1)]
    # stars and bars with at least one unit per processor
    total = denominator
    if total < m:
        total = m
    cuts = sorted(rng.sample(range(1, total), m - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(Fraction(c - prev, total))
        prev = c
    parts.append(Fraction(total - prev, total))
    return parts

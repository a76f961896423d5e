"""Profiling helpers — "no optimization without measuring".

Thin cProfile wrappers for the scheduler hot paths, returning structured
rows instead of dumping to stdout, so tests and notebooks can assert on
them (e.g. "Fraction arithmetic dominates the exact scheduler").

Run as a module for the perf regression gate::

    PYTHONPATH=src python -m repro.analysis.profiling

profiles both scheduler backends on a representative instance and fails
(exit code 1) if the scaled-integer backend spends ≥ 10% of its profiled
time inside ``fractions.*`` — the whole point of that backend is that
rational arithmetic is confined to the inputs and to what callers read
back.  Two end-to-end int paths are gated the same way, each under its
own limit: Corollary 3.9 packing (``pack_sliding_window`` on 2000
uniform items, k = m) and a solve from a JSON instance document
(``solve_srj(instance_from_dict(doc))``, n = 1000).
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from io import StringIO
from typing import Callable, List


@dataclass
class ProfileRow:
    """One pstats line: cumulative seconds and call count per function."""

    function: str
    calls: int
    cumtime: float
    tottime: float


def profile_call(
    fn: Callable[[], object], top: int = 15
) -> List[ProfileRow]:
    """Run *fn* under cProfile; return the *top* rows by cumulative time."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stream = StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    rows: List[ProfileRow] = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        filename, line, name = func
        rows.append(
            ProfileRow(
                function=f"{filename.rsplit('/', 1)[-1]}:{line}({name})",
                calls=int(nc),
                cumtime=float(ct),
                tottime=float(tt),
            )
        )
    rows.sort(key=lambda r: r.cumtime, reverse=True)
    return rows[:top]


def profile_scheduler(instance, top: int = 15) -> List[ProfileRow]:
    """Profile one accelerated scheduling run on *instance*."""
    from ..core.scheduler import schedule_srj

    return profile_call(lambda: schedule_srj(instance), top=top)


def format_profile(rows: List[ProfileRow]) -> str:
    """Render profile rows as an aligned text table."""
    lines = [f"{'cumtime':>9} {'tottime':>9} {'calls':>9}  function"]
    for row in rows:
        lines.append(
            f"{row.cumtime:>9.4f} {row.tottime:>9.4f} {row.calls:>9}  "
            f"{row.function}"
        )
    return "\n".join(lines)


def fraction_time_share(fn: Callable[[], object]) -> float:
    """Share of *fn*'s profiled time spent inside the ``fractions`` module.

    Profiles one call and sums per-function *tottime* (exclusive time, so
    the shares of all functions add up to the total runtime) over every
    frame whose source file is ``fractions.py``.  Returns a value in
    ``[0, 1]``; 0.0 if nothing measurable ran.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler, stream=StringIO())
    total = 0.0
    in_fractions = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        total += tt
        if func[0].endswith("fractions.py"):
            in_fractions += tt
    return in_fractions / total if total > 0 else 0.0


#: fractions.* limits of the end-to-end int paths (docs/PERFORMANCE.md
#: has the measurements they were set from)
PACK_LIMIT = 0.05
DOCUMENT_LIMIT = 0.15


def main(argv: List[str] | None = None) -> int:
    """Perf gate: the int backend must spend under each limit of its
    profiled time in ``fractions.*`` (see module docstring)."""
    import argparse
    import random
    from fractions import Fraction

    from ..binpacking import make_items, pack_sliding_window
    from ..io import instance_from_dict, instance_to_dict
    from ..perf import solve_srj
    from ..workloads import make_instance, uniform_fractions

    parser = argparse.ArgumentParser(
        description="scheduler backend fractions.* time-share gate"
    )
    parser.add_argument("--n", type=int, default=300, help="number of jobs")
    parser.add_argument("--m", type=int, default=8, help="processors")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--limit", type=float, default=0.10,
        help="max allowed fractions.* share for the int backend's solve",
    )
    args = parser.parse_args(argv)
    inst = make_instance("uniform", random.Random(args.seed), args.m, args.n)
    shares = {}
    for backend in ("fraction", "int"):
        shares[backend] = fraction_time_share(
            lambda: solve_srj(inst, backend=backend)
        )
        print(
            f"{backend:>8} backend: {shares[backend]:6.1%} of profiled "
            "time in fractions.*"
        )
    items = make_items(uniform_fractions(
        random.Random(args.seed), 2000, hi=Fraction(6, 5)
    ))
    doc = instance_to_dict(
        make_instance("uniform", random.Random(args.seed), args.m, 1000)
    )
    gates = [
        ("solve_srj", shares["int"], args.limit),
        ("pack_sliding_window", fraction_time_share(
            lambda: pack_sliding_window(items, args.m, backend="int")
        ), PACK_LIMIT),
        ("solve_srj(instance_from_dict)", fraction_time_share(
            lambda: solve_srj(instance_from_dict(doc), backend="int")
        ), DOCUMENT_LIMIT),
    ]
    for name, share, limit in gates[1:]:
        print(f"int {name}: {share:6.1%} of profiled time in fractions.* "
              f"(limit {limit:.0%})")
    failed = [gate for gate in gates if gate[1] >= gate[2]]
    for name, share, limit in failed:
        print(f"FAIL: int {name} spends {share:.1%} >= {limit:.0%} "
              "in fractions.*")
    if failed:
        return 1
    print("OK: int backend under every fractions.* limit "
          f"({', '.join(f'{limit:.0%}' for _n, _s, limit in gates)})")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())

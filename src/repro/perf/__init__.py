"""Performance subsystem: scaled-integer entry points, sweeps, benches.

The exact schedulers decide every predicate over
:class:`fractions.Fraction`; profiling (``python -m repro.analysis.profiling``)
shows rational arithmetic dominating their runtime.  The engine refactor
moved the scaled-integer arithmetic itself into
:mod:`repro.engine.backends.integer` (all quantities rescaled by the LCM
``D`` of the requirement denominators, every predicate pure integer
arithmetic, results *bit-for-bit identical* to the Fraction path).  This
package keeps the perf-facing entry points and harnesses:

* :func:`solve_srj` — re-exported from :mod:`repro.engine.api`; selects
  a backend (``"auto" | "fraction" | "int"``).
* :mod:`repro.perf.parallel` — :class:`WorkerPool`, the one supervised
  process pool (forked workers behind per-worker pipes; a dead or hung
  worker is replaced, not the pool), shared by the ``serve`` daemon for
  its lifetime and opened once per :func:`~repro.sweep.run_sweep` call;
  :func:`parallel_map` is its serial shortcut plus a one-shot pool, and
  :func:`seed_for` derives worker-count-independent per-trial seeds.
* :mod:`repro.perf.bench` — the bench-regression harness producing
  ``BENCH_1.json`` (general SRJ, wall-clock per backend, speedup, RSS;
  plus the unit-size int kernel's scaling series up to n = 10⁵).
* :mod:`repro.perf.bench_srt` — the same for the SRT scheduler,
  producing ``BENCH_2.json``.

See ``docs/PERFORMANCE.md`` for the exactness argument and usage.
"""

from ..engine.api import solve_srj
from .parallel import WorkerPool, auto_workers, parallel_map, seed_for

__all__ = [
    "solve_srj",
    "parallel_map",
    "WorkerPool",
    "seed_for",
    "auto_workers",
    "run_bench",
    "run_bench_srt",
]


def __getattr__(name: str):
    # lazy so `python -m repro.perf.bench` doesn't double-import the module
    # (runpy warns when the package __init__ already loaded it)
    if name == "run_bench":
        from .bench import run_bench

        return run_bench
    if name == "run_bench_srt":
        from .bench_srt import run_bench_srt

        return run_bench_srt
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

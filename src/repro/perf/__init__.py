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
* ``perf/bench.py`` — the point functions, specs and summaries of
  the three BENCH report sweeps (``BENCH_1.json``: general SRJ on both
  backends plus the unit-size int series up to n = 10⁵; ``BENCH_2.json``:
  the SRT scheduler; ``BENCH_3.json``: the observer-overhead gate), which
  ``repro-sched sweep run`` turns into reports.

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
]

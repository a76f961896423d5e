"""The SRJ approximation algorithm — Listing 1 of the paper.

Per time step the scheduler

1. computes an (m-1)-maximal job window (Lines 2–5),
2. computes the Case-1/Case-2 resource assignment (Lines 6–20), and
3. applies the shares to the state.

Two execution modes are provided:

* **step-exact** (``accelerate=False``): one loop iteration per time step —
  pseudo-polynomial, exactly the pseudocode, used by the validation tests;
* **accelerated** (``accelerate=True``, default): when the recomputed share
  vector is identical to the previous step's, the scheduler *bulk-applies*
  it for as many steps as it provably stays identical (until the first job
  finish or the first fracture-status change of a partially-served job —
  both horizons are computed exactly).  This realizes the paper's
  ``O((m+n)·n)`` running-time argument (proof of Theorem 3.3): steps in
  which nothing finishes are skipped with a closed-form jump.

The step loop lives in :mod:`repro.engine`: one routine,
:func:`~repro.engine.policies.window_step`, computes the window and the
assignment, and :class:`~repro.engine.policies.SlidingWindowPolicy` adds
the bulk horizon; :func:`repro.engine.api.solve_srj` runs it on either
numeric backend (``enable_move=False`` is the E7 ablation; ``window_size=``
caps the window below m - 1).  This module keeps :func:`schedule_srj`,
the exact-rational quickstart entry point.

The produced trace is run-length encoded (:mod:`repro.engine.trace`);
:meth:`~repro.engine.trace.SRJResult.schedule` expands it to a full
:class:`~repro.core.schedule.Schedule` on demand.
"""

from __future__ import annotations

from ..engine import api as _engine
from ..engine.trace import SRJResult
from .instance import Instance

__all__ = ["schedule_srj"]


def schedule_srj(
    instance: Instance,
    accelerate: bool = True,
    backend: str = "fraction",
    observer=None,
    collect_stats: bool = False,
) -> SRJResult:
    """Convenience wrapper: run Listing 1 on *instance*.

    Defaults to the exact-rational backend (this is the reference path the
    property tests compare everything against); pass ``backend="int"`` or
    ``"auto"`` for the scaled-integer fast path.  ``observer=`` /
    ``collect_stats=`` install telemetry (see :mod:`repro.obs`);
    ``collect_stats=True`` attaches the metrics registry as
    ``result.stats``.
    """
    return _engine.solve_srj(
        instance,
        backend=backend,
        accelerate=accelerate,
        observer=observer,
        collect_stats=collect_stats,
    )

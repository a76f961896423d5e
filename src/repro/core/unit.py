"""Unit-size SRJ — the modified algorithm with m-maximal windows.

For unit-size jobs (``p_j = 1``, hence ``s_j = r_j``) the paper sharpens the
guarantee (discussion below Theorem 3.3): at any time at most one job ``ι``
is started, so the reserved ``m``-th processor is unnecessary.  Treating
``ι`` as a job with requirement ``s_ι(t-1)`` and reordering accordingly, the
algorithm processes an *m*-maximal window per step; all window jobs except
``max W`` receive their full (remaining) requirement and finish, ``max W``
receives the leftover and becomes the next step's ``ι``.

This yields ``|S| ≤ (1 + 1/(m-1))·OPT + O(1)`` asymptotically and, via the
equivalence of unit-size SRJ with *bin packing with splittable items and
cardinality constraint k = m* (Corollary 3.9), an ``1 + 1/(k-1)``
approximation for that packing problem (each time step = one bin).

The step loop lives in :mod:`repro.engine`
(:class:`~repro.engine.policies.UnitWindowPolicy`); this module validates
the unit-size precondition and selects the numeric backend.
"""

from __future__ import annotations

from fractions import Fraction

from ..engine import api as _engine
from ..engine.trace import SRJResult
from .instance import Instance


class UnitSizeScheduler:
    """The m-maximal-window algorithm for unit-size jobs.

    Raises :class:`ValueError` if the instance has a job with ``p_j ≠ 1``.
    Runs on the exact-rational backend by default; pass ``backend="int"``
    or ``"auto"`` for the scaled-integer fast path (bit-identical results).
    """

    def __init__(self, instance: Instance, backend: str = "fraction") -> None:
        if not instance.is_unit_size:
            raise ValueError(
                "UnitSizeScheduler requires unit-size jobs; use "
                "solve_srj for general sizes"
            )
        self.instance = instance
        self.budget = Fraction(1)
        self.backend = backend

    def run(self, observer=None, collect_stats: bool = False) -> SRJResult:
        return _engine.run_unit(
            self.instance,
            backend=self.backend,
            observer=observer,
            collect_stats=collect_stats,
        )


def schedule_unit(
    instance: Instance,
    backend: str = "fraction",
    observer=None,
    collect_stats: bool = False,
) -> SRJResult:
    """Convenience wrapper: run the unit-size algorithm on *instance*.

    ``observer=`` / ``collect_stats=`` install telemetry (see
    :mod:`repro.obs`); ``collect_stats=True`` attaches the metrics
    registry as ``result.stats``.
    """
    return UnitSizeScheduler(instance, backend=backend).run(
        observer=observer, collect_stats=collect_stats
    )


def unit_guarantee(m: int, opt: int) -> int:
    """Upper bound on |S| implied by the unit-size analysis:
    ``⌊(1 + 1/(m-1))·OPT⌋ + 1`` steps for ``m ≥ 2``.

    (Case 1 of the proof gives ``(m/(m-1))·OPT + 1`` once the reserved
    processor is dropped; Case 2 gives ``OPT + 1``.)
    """
    if m < 2:
        return opt
    return (m * opt) // (m - 1) + 1

"""Numeric-backend protocol for the scheduling engine.

A *numeric context* fixes the number representation a scheduler run uses.
The engine's step loops (:mod:`repro.engine.loop`, :mod:`repro.engine.state`,
:mod:`repro.engine.policies`) are written **generically** over scaled
quantities: they only ever add, subtract, multiply by an ``int``, take
``min``/``max``, compare, and use ``//``/``%`` — operations under which both
:class:`fractions.Fraction` and ``int`` are closed.  Everything that is
representation-specific lives behind this protocol:

* ``scale``   — embed an exact rational input into the working domain;
* ``from_units`` — embed quantities given as integers at a scale (an
  :class:`~repro.core.instance.Instance`'s ``r_j·L``);
* ``as_units`` — a step's shares as integers at the run's scale, the form
  an :class:`~repro.engine.trace.SRJResult` trace keeps;
* ``to_fraction`` — convert a scaled quantity back to an exact
  :class:`~fractions.Fraction` (waste, utilization, telemetry);
* ``steps_until_status_change`` — the bulk-horizon congruence of the
  accelerated scheduler (Theorem 3.3), whose solution needs
  representation-aware integer arithmetic;
* ``zero`` — the additive identity in the working domain (so generic code
  never constructs a literal of either type).

Two implementations ship: :class:`repro.engine.backends.fraction
.FractionContext` (the exact reference domain) and
:class:`repro.engine.backends.integer.IntegerContext` (the LCM-rescaled
integer domain; see docs/PERFORMANCE.md for the exactness argument).
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Sequence, runtime_checkable


@runtime_checkable
class NumericContext(Protocol):
    """Backend-specific numeric operations for one scheduler run."""

    #: backend name ("fraction" or "int")
    name: str
    #: additive identity in the working domain
    zero: object

    def scale(self, value):
        """Embed an exact rational *value* into the working domain."""
        ...  # pragma: no cover - protocol

    def from_units(self, units: Sequence[int], scale: int) -> Sequence:
        """The quantities ``u / scale`` in the working domain; *scale*
        divides the run's denominator."""
        ...  # pragma: no cover - protocol

    def as_units(self, shares: Dict, scale: int) -> Dict:
        """*shares* (working domain) as integers at the run's *scale*."""
        ...  # pragma: no cover - protocol

    def to_fraction(self, value):
        """Convert a scaled quantity back to an exact Fraction."""
        ...  # pragma: no cover - protocol

    def steps_until_status_change(self, a, c, r) -> Optional[int]:
        """Smallest ``i >= 1`` such that subtracting ``i*c`` from remaining
        *a* flips the fractured predicate (``a mod r != 0``), or ``None``
        if the status never changes before the job finishes."""
        ...  # pragma: no cover - protocol

"""Numeric backends for the scheduling engine.

``"fraction"`` is the exact reference domain (:class:`FractionContext`);
``"int"`` is the LCM-rescaled integer domain (:class:`IntegerContext`),
bit-for-bit identical and typically an order of magnitude faster;
``"auto"`` picks the integer backend.
"""

from __future__ import annotations

from .base import NumericContext
from .fraction import FractionContext, steps_until_status_change
from .integer import IntegerContext, int_steps_until_status_change, lcm_denominator

#: accepted values for every ``backend=`` parameter in the repo
BACKENDS = ("auto", "fraction", "int")


def resolve_backend(backend: str) -> str:
    """Validate *backend* and resolve ``"auto"`` (to ``"int"``)."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    return "int" if backend == "auto" else backend


def make_context(backend: str, denominator: int) -> NumericContext:
    """Build the numeric context for *backend*; *denominator* is the run's
    scale ``D`` (:func:`lcm_denominator` of its budget and requirements),
    which the integer backend multiplies every quantity by."""
    kind = resolve_backend(backend)
    if kind == "fraction":
        return FractionContext()
    return IntegerContext(denominator)


__all__ = [
    "BACKENDS",
    "NumericContext",
    "FractionContext",
    "IntegerContext",
    "lcm_denominator",
    "int_steps_until_status_change",
    "steps_until_status_change",
    "resolve_backend",
    "make_context",
]

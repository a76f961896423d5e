"""Job model for Shared Resource Job-Scheduling (SRJ / the paper's "SoS").

A job ``j`` is characterized by

* a processing volume (size) ``p_j`` — a positive integer (the paper assumes
  ``p_j ∈ ℕ``; real sizes reduce to this case by the rescaling argument below
  Equation (1) of the paper, implemented in
  :func:`repro.core.instance.Instance.from_real_sizes`), and
* a resource requirement ``r_j > 0`` — the share of the resource needed to
  finish one unit of volume per time step.

The derived quantity ``s_j = p_j · r_j`` is the *total resource requirement*:
the job is done once the resource shares it received over time sum to
``s_j``, where it can absorb at most ``r_j`` per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..numeric import Number, to_fraction


@dataclass(frozen=True)
class Job:
    """An SRJ job.

    Attributes
    ----------
    id:
        Identifier, unique within an :class:`~repro.core.instance.Instance`.
    size:
        Processing volume ``p_j`` (positive integer).
    requirement:
        Resource requirement ``r_j`` (positive Fraction).
    """

    id: int
    size: int
    requirement: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or self.id < 0:
            raise ValueError(f"job id must be a non-negative int, got {self.id!r}")
        if not isinstance(self.size, int) or self.size <= 0:
            raise ValueError(
                f"job size p_j must be a positive int, got {self.size!r}"
            )
        req = to_fraction(self.requirement)
        if req.numerator <= 0:  # the denominator is positive
            raise ValueError(f"resource requirement r_j must be > 0, got {req}")
        object.__setattr__(self, "requirement", req)

    @property
    def total_requirement(self) -> Fraction:
        """``s_j = p_j · r_j``, the total resource the job must accumulate."""
        return self.size * self.requirement

    @property
    def min_steps(self) -> int:
        """Minimum number of time steps the job needs on its own.

        A job can absorb at most ``min(r_j, 1)`` resource per step, hence it
        needs ``⌈s_j / min(r_j, 1)⌉`` steps.  Since ``s_j / r_j = p_j``
        exactly, that is ``p_j`` for ``r_j ≤ 1`` and ``⌈p_j·r_j⌉``
        otherwise, all in integer arithmetic on ``r_j``'s numerator and
        denominator.
        """
        r = self.requirement
        if r.numerator <= r.denominator:
            return self.size
        return -(-self.size * r.numerator // r.denominator)

    def with_id(self, new_id: int) -> "Job":
        """Copy of this job with a different id."""
        return Job(id=new_id, size=self.size, requirement=self.requirement)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Job(id={self.id}, p={self.size}, r={self.requirement})"


def make_job(id: int, size: int, requirement: Number) -> Job:
    """Convenience constructor accepting int/float/Fraction requirements."""
    return Job(id=id, size=size, requirement=to_fraction(requirement))


@dataclass(frozen=True)
class JobPiece:
    """A (processor, share) allocation of one job during one time step.

    Used by :class:`repro.core.schedule.Schedule` to record what happened.
    """

    job_id: int
    processor: int
    share: Fraction = field(default_factory=lambda: Fraction(0))

    def __post_init__(self) -> None:
        if self.processor < 0:
            raise ValueError("processor index must be non-negative")
        share = to_fraction(self.share)
        if share < 0:
            raise ValueError("share must be non-negative")
        object.__setattr__(self, "share", share)

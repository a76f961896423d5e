"""Problem instances for Shared Resource Job-Scheduling.

An :class:`Instance` bundles the machine count ``m`` with a job set.  Jobs
are canonically ordered by non-decreasing resource requirement (the paper
assumes ``r_1 ≤ r_2 ≤ … ≤ r_n`` w.l.o.g.); :meth:`Instance.create`
re-indexes jobs into that order while remembering the original ids so that
schedules can be mapped back.

Every instance also keeps its requirements in the working form the
engine runs on: ``L`` (:attr:`Instance.scale`, the LCM of the requirement
denominators) and the integers ``r_j·L`` (:attr:`Instance.units`).  The
canonical order is sorted and checked on those integers, and the work
bound and the engine's scale step read them instead of recomputing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from ..numeric import Number, lcm_scaled, to_fraction
from .job import Job


@dataclass(frozen=True)
class Instance:
    """An SRJ instance: ``m`` processors and a tuple of jobs.

    The job tuple is stored in canonical order (non-decreasing ``r_j``,
    ties broken by original id) and jobs are re-indexed ``0..n-1``.
    ``original_ids[i]`` gives the id the ``i``-th canonical job had in the
    caller's numbering.  :attr:`scale` and :attr:`units` are derived from
    the jobs (they take no part in equality).
    """

    m: int
    jobs: tuple[Job, ...]
    original_ids: tuple[int, ...]
    #: ``L``, the LCM of the requirement denominators
    scale: int = field(init=False, repr=False, compare=False)
    #: ``r_j·L`` per canonical job, non-decreasing
    units: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._settle(*lcm_scaled(job.requirement for job in self.jobs))

    def _settle(self, scale: int, units: Sequence[int]) -> None:
        """Check the canonical form, the order on the integers *units* at
        *scale*, and keep both."""
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive int, got {self.m!r}")
        for i, job in enumerate(self.jobs):
            if job.id != i:
                raise ValueError(
                    "instance jobs must be re-indexed 0..n-1 in canonical "
                    f"order; job at position {i} has id {job.id}"
                )
        if any(a > b for a, b in zip(units, units[1:])):
            raise ValueError(
                "instance jobs must be sorted by non-decreasing r_j"
            )
        if len(self.original_ids) != len(self.jobs):
            raise ValueError("original_ids must match number of jobs")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "units", tuple(units))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def _canonical(
        cls,
        m: int,
        sizes: Sequence[int],
        reqs: Sequence[Fraction],
        ids: Optional[Sequence[int]] = None,
    ) -> "Instance":
        """The canonical instance of the jobs with size ``sizes[i]``,
        requirement ``reqs[i]`` and original id ``ids[i]`` (default
        ``i``): one stable sort on the integer keys ``r_j·L`` (ties keep
        input order), then each :class:`Job` built once.  The one routine
        behind every constructor but the direct one."""
        scale, keys = lcm_scaled(reqs)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        instance = cls.__new__(cls)
        object.__setattr__(instance, "m", m)
        object.__setattr__(instance, "jobs", tuple(
            Job(new, sizes[old], reqs[old])
            for new, old in enumerate(order)
        ))
        object.__setattr__(instance, "original_ids", tuple(
            order if ids is None else [ids[old] for old in order]
        ))
        instance._settle(scale, [keys[old] for old in order])
        return instance

    @classmethod
    def create(
        cls,
        m: int,
        jobs: Iterable[Job],
    ) -> "Instance":
        """Build an instance from arbitrary jobs, canonicalizing the order
        (ties in ``r_j`` keep id order)."""
        job_list = list(jobs)
        seen: set[int] = set()
        for job in job_list:
            if job.id in seen:
                raise ValueError(f"duplicate job id {job.id}")
            seen.add(job.id)
        job_list.sort(key=attrgetter("id"))
        return cls._canonical(
            m,
            [job.size for job in job_list],
            [job.requirement for job in job_list],
            [job.id for job in job_list],
        )

    @classmethod
    def from_requirements(
        cls,
        m: int,
        requirements: Sequence[Number],
        sizes: Optional[Sequence[int]] = None,
    ) -> "Instance":
        """Build an instance from parallel requirement/size sequences.

        ``sizes`` defaults to all ones (the unit-size setting).
        """
        reqs = [to_fraction(r) for r in requirements]
        if sizes is None:
            sizes = [1] * len(reqs)
        if len(sizes) != len(reqs):
            raise ValueError("sizes and requirements must have equal length")
        return cls._canonical(m, [int(p) for p in sizes], reqs)

    @classmethod
    def from_real_sizes(
        cls,
        m: int,
        requirements: Sequence[Number],
        sizes: Sequence[Number],
    ) -> "Instance":
        """Rescaling for real-valued sizes (paper, below Equation (1)).

        Given ``p_j ∈ ℝ_{>0}``, set ``p'_j := ⌈p_j⌉`` and
        ``r'_j := s_j / p'_j``; this preserves every ``s_j`` and the lower
        bound of Equation (1), so all guarantees carry over.
        """
        from ..numeric import ceil_frac

        reqs = [to_fraction(r) for r in requirements]
        szs = [to_fraction(p) for p in sizes]
        if len(reqs) != len(szs):
            raise ValueError("sizes and requirements must have equal length")
        p_ints = []
        scaled = []
        for r, p in zip(reqs, szs):
            if p <= 0:
                raise ValueError(f"size must be positive, got {p}")
            p_int = ceil_frac(p)
            p_ints.append(p_int)
            scaled.append(r * p / p_int)
        return cls._canonical(m, p_ints, scaled)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.jobs)

    @property
    def is_unit_size(self) -> bool:
        """True iff every job has ``p_j = 1``."""
        return all(job.size == 1 for job in self.jobs)

    def requirement(self, job_id: int) -> Fraction:
        """``r_j`` of the canonical job *job_id*."""
        return self.jobs[job_id].requirement

    def size(self, job_id: int) -> int:
        """``p_j`` of the canonical job *job_id*."""
        return self.jobs[job_id].size

    def total_requirement(self, job_id: int) -> Fraction:
        """``s_j = p_j · r_j`` of the canonical job *job_id*."""
        return self.jobs[job_id].total_requirement

    def total_work(self) -> Fraction:
        """``Σ_j s_j`` — total resource that must be delivered.

        Summed in integers at ``L``: ``Σ_j p_j·(r_j·L) / L``, one Fraction
        in all instead of one per job.
        """
        return Fraction(
            sum(job.size * u for job, u in zip(self.jobs, self.units)),
            self.scale,
        )

    def total_steps_lower(self) -> int:
        """``Σ_j ⌈s_j/r_j⌉ = Σ_j p_j`` — total processor-steps needed
        (``s_j/r_j = p_j`` exactly, so no rational arithmetic)."""
        return sum(job.size for job in self.jobs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Instance(m={self.m}, n={self.n})"

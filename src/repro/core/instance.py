"""Problem instances for Shared Resource Job-Scheduling.

An :class:`Instance` bundles the machine count ``m`` with a job set.  Jobs
are canonically ordered by non-decreasing resource requirement (the paper
assumes ``r_1 ≤ r_2 ≤ … ≤ r_n`` w.l.o.g.); :meth:`Instance.canonical`
re-indexes jobs into that order while remembering the original ids so that
schedules can be mapped back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from ..numeric import Number, frac_sum, to_fraction
from .job import Job


@dataclass(frozen=True)
class Instance:
    """An SRJ instance: ``m`` processors and a tuple of jobs.

    The job tuple is stored in canonical order (non-decreasing ``r_j``,
    ties broken by original id) and jobs are re-indexed ``0..n-1``.
    ``original_ids[i]`` gives the id the ``i``-th canonical job had in the
    caller's numbering.
    """

    m: int
    jobs: tuple[Job, ...]
    original_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive int, got {self.m!r}")
        for i, job in enumerate(self.jobs):
            if job.id != i:
                raise ValueError(
                    "instance jobs must be re-indexed 0..n-1 in canonical "
                    f"order; job at position {i} has id {job.id}"
                )
        for i in range(1, len(self.jobs)):
            if self.jobs[i - 1].requirement > self.jobs[i].requirement:
                raise ValueError(
                    "instance jobs must be sorted by non-decreasing r_j"
                )
        if len(self.original_ids) != len(self.jobs):
            raise ValueError("original_ids must match number of jobs")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        m: int,
        jobs: Iterable[Job],
    ) -> "Instance":
        """Build an instance from arbitrary jobs, canonicalizing the order."""
        job_list = list(jobs)
        seen: set[int] = set()
        for job in job_list:
            if job.id in seen:
                raise ValueError(f"duplicate job id {job.id}")
            seen.add(job.id)
        # one stable sort on r_j over id-ordered jobs: ties keep id order
        job_list.sort(key=attrgetter("id"))
        job_list.sort(key=attrgetter("requirement"))
        reindexed = tuple(job.with_id(i) for i, job in enumerate(job_list))
        original = tuple(job.id for job in job_list)
        return cls(m=m, jobs=reindexed, original_ids=original)

    @classmethod
    def _from_columns(
        cls, m: int, sizes: Sequence[int], reqs: Sequence[Fraction]
    ) -> "Instance":
        """The canonical instance of jobs ``i`` with size ``sizes[i]`` and
        requirement ``reqs[i]``: one stable sort on the requirement (ties
        keep input order), then each :class:`Job` built once."""
        order = sorted(range(len(reqs)), key=reqs.__getitem__)
        jobs = tuple(
            Job(id=new, size=sizes[old], requirement=reqs[old])
            for new, old in enumerate(order)
        )
        return cls(m=m, jobs=jobs, original_ids=tuple(order))

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
        return cls._from_columns(m, [int(p) for p in sizes], reqs)

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
        return cls._from_columns(m, p_ints, scaled)

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
        """``Σ_j s_j`` — total resource that must be delivered."""
        return frac_sum(job.total_requirement for job in self.jobs)

    def total_steps_lower(self) -> int:
        """``Σ_j ⌈s_j/r_j⌉ = Σ_j p_j`` — total processor-steps needed
        (``s_j/r_j = p_j`` exactly, so no rational arithmetic)."""
        return sum(job.size for job in self.jobs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Instance(m={self.m}, n={self.n})"

"""Task model for Shared Resource Task-Scheduling (SRT, Section 4).

A *task* is a set of unit-size jobs, each with its own resource requirement;
the task completes when its last job completes.  The objective is the sum
(equivalently, average) of task completion times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from ..numeric import Number, frac_sum, to_fraction


@dataclass(frozen=True)
class Task:
    """A task: a tuple of unit-job resource requirements."""

    id: int
    requirements: tuple

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError("task id must be non-negative")
        reqs = tuple(to_fraction(r) for r in self.requirements)
        if not reqs:
            raise ValueError("task must contain at least one job")
        if any(r <= 0 for r in reqs):
            raise ValueError("all job requirements must be positive")
        object.__setattr__(self, "requirements", reqs)

    @property
    def n_jobs(self) -> int:
        """``|T|`` — number of jobs in the task."""
        return len(self.requirements)

    def total_requirement(self) -> Fraction:
        """``r(T) = Σ_{j∈T} r_j`` (cached; the instance is immutable)."""
        cached = self.__dict__.get("_total_requirement")
        if cached is None:
            cached = frac_sum(self.requirements)
            object.__setattr__(self, "_total_requirement", cached)
        return cached

    def average_requirement(self) -> Fraction:
        """``r(T) / |T|`` — the partition key of Section 4.2."""
        return self.total_requirement() / self.n_jobs


@dataclass(frozen=True)
class TaskInstance:
    """An SRT instance: ``m`` processors and a tuple of tasks."""

    m: int
    tasks: tuple

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate task ids")

    @classmethod
    def create(
        cls, m: int, requirement_lists: Sequence[Sequence[Number]]
    ) -> "TaskInstance":
        """Build from a list of per-task requirement lists."""
        tasks = tuple(
            Task(id=i, requirements=tuple(reqs))
            for i, reqs in enumerate(requirement_lists)
        )
        return cls(m=m, tasks=tasks)

    @property
    def k(self) -> int:
        """Number of tasks."""
        return len(self.tasks)

    @property
    def n_jobs(self) -> int:
        """Total number of jobs over all tasks."""
        return sum(t.n_jobs for t in self.tasks)

    def total_requirement(self) -> Fraction:
        return frac_sum(t.total_requirement() for t in self.tasks)


@dataclass
class TaskScheduleResult:
    """Outcome of an SRT scheduler run."""

    instance: TaskInstance
    #: task id -> completion time (1-indexed step of the last job's finish)
    completion_times: dict
    #: makespan of the whole run
    makespan: int
    #: optional label of the algorithm that produced it
    algorithm: str = ""
    #: metrics accumulated by ``collect_stats=True`` (else ``None``)
    stats: object = field(default=None, repr=False, compare=False)

    def sum_completion_times(self) -> int:
        return sum(self.completion_times.values())

    def average_completion_time(self) -> Fraction:
        if not self.completion_times:
            return Fraction(0)
        return Fraction(self.sum_completion_times(), len(self.completion_times))

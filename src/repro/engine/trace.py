"""Canonical run-length-encoded trace/event representation.

Every scheduler layer that runs through the engine emits its history in
this one format: a list of :class:`TraceRun` objects (each a run of
``count`` identical time steps), wrapped in an :class:`SRJResult`.
A run keeps its shares as integers at the run's scale — the working
form both backends compute in — and builds exact Fractions only when
they are read (:attr:`TraceRun.shares`).  Validators walk the integer
runs themselves (:func:`repro.core.validate.validate_result`); analysis
code consumes the trace streamed (:meth:`SRJResult.iter_steps`) or
materialized (:meth:`SRJResult.schedule`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Tuple

from ..numeric import lcm_scaled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.instance import Instance
    from ..core.schedule import Schedule
    from ..obs.metrics import MetricsRegistry


class TraceRun:
    """A run of *count* identical time steps.

    Job ``j`` receives ``units[j] / scale`` in every step of the run.
    :attr:`shares` builds that exact map on read; the constructor and
    assignment to :attr:`shares` take an exact map and keep it at the LCM
    of its denominators.  Runs compare by their exact shares, whatever
    their scales.
    """

    __slots__ = ("units", "scale", "processors", "count", "case", "window")

    def __init__(
        self,
        shares: Mapping[int, Fraction],
        processors: Dict[int, int],
        count: int,
        case: str,
        window: List[int],
    ) -> None:
        self.shares = shares
        self.processors = processors
        self.count = count
        self.case = case
        self.window = window

    @classmethod
    def at_scale(
        cls,
        units: Dict[int, int],
        scale: int,
        processors: Dict[int, int],
        count: int,
        case: str,
        window: List[int],
    ) -> "TraceRun":
        """A run whose shares are the integers *units* at *scale*."""
        run = cls.__new__(cls)
        run.units = units
        run.scale = scale
        run.processors = processors
        run.count = count
        run.case = case
        run.window = window
        return run

    @property
    def shares(self) -> Dict[int, Fraction]:
        """``job -> share`` as exact Fractions (a new map on every read)."""
        scale = self.scale
        return {j: Fraction(u, scale) for j, u in self.units.items()}

    @shares.setter
    def shares(self, shares: Mapping[int, Fraction]) -> None:
        self.scale, ints = lcm_scaled(shares.values())
        self.units = dict(zip(shares, ints))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRun):
            return NotImplemented
        if (self.processors, self.count, self.case, self.window) != (
            other.processors, other.count, other.case, other.window
        ):
            return False
        a, b = self.units, other.units
        if self.scale == other.scale:
            return a == b
        return a.keys() == b.keys() and all(
            u * other.scale == b[j] * self.scale for j, u in a.items()
        )

    def __repr__(self) -> str:
        return (
            f"TraceRun(shares={self.shares!r}, processors="
            f"{self.processors!r}, count={self.count!r}, case="
            f"{self.case!r}, window={self.window!r})"
        )


@dataclass
class SRJResult:
    """Outcome of a scheduler run."""

    instance: "Instance"
    makespan: int
    completion_times: Dict[int, int]
    trace: List[TraceRun] = field(default_factory=list)
    #: number of steps in which ≥ m-2 jobs got their full requirement
    steps_full_jobs: int = 0
    #: number of steps in which the whole resource budget was used
    steps_full_resource: int = 0
    #: total wasted resource over the run
    total_waste: Fraction = Fraction(0)
    #: metrics accumulated by ``collect_stats=True`` (else ``None``)
    stats: "MetricsRegistry" = field(
        default=None, repr=False, compare=False
    )

    def iter_steps(self) -> Iterator[Mapping[int, Tuple[int, Fraction]]]:
        """Stream the schedule step-by-step without materializing it.

        Yields one mapping ``job_id -> (processor, share)`` per time step,
        expanding the RLE trace lazily — ``makespan`` steps in total, with
        memory bounded by the widest single step.  For a run of ``k``
        identical steps the *same* mapping object is yielded ``k`` times;
        treat it as read-only (copy if you need to keep it).

        For consumers that need single steps (Gantt charts, metrics).
        Validators do not read it: :func:`repro.core.validate.validate_result`
        checks each run once instead of each of its steps.
        """
        for run in self.trace:
            step = {
                j: (run.processors[j], share)
                for j, share in run.shares.items()
            }
            for _ in range(run.count):
                yield step

    def schedule(self, max_steps: int = 1_000_000) -> "Schedule":
        """Expand the RLE trace into a full :class:`Schedule`.

        Refuses to materialize more than *max_steps* steps.
        """
        from ..core.schedule import Schedule

        if self.makespan > max_steps:
            raise ValueError(
                f"schedule has {self.makespan} steps; raise max_steps to expand"
            )
        sched = Schedule(instance=self.instance)
        for step in self.iter_steps():
            sched.append_step(step)
        return sched

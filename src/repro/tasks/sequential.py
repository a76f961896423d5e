"""Sequential per-task sliding-window engine — Listings 3 and 4.

Both Section-4 schedulers share one structure (the paper's two listings are
near-identical); only the task *order* differs:

* Listing 3 (heavy tasks, Lemma 4.1): tasks by non-decreasing ``r(T)``;
  achieved guarantee ``f_i ≤ ⌈Σ_{l≤i} r(T_l) / R⌉``.
* Listing 4 (light tasks, Lemma 4.2): tasks by non-decreasing ``|T|``;
  achieved guarantee ``f_i ≤ ⌈Σ_{l≤i} |T_l| / (m-1)⌉``.

Per time step the engine runs, for the tasks in order, one step of the
*unit-size sliding window* (Section 3's m-maximal machinery; all jobs are
unit size, so each task has at most one started job ``ι``) over the task's
remaining jobs, with the processors and resource the tasks before it left
over:

1. a task whose remaining requirement fits into the leftover resource
   **and** whose remaining job count fits into the leftover processors has
   all its jobs in that window and finishes outright — it is *packed* (the
   transition of Listing 3/4, Line 3) and the next task follows;
2. any other task's window ends the step.

The paper's printed Listing 3 body is corrupted in the available text; this
reconstruction is derived from Lemma 4.1/4.2's proofs (see DESIGN.md §2) and
is validated against those lemmas' completion-time bounds in the test suite.

The step loop lives in :mod:`repro.engine`
(:class:`~repro.engine.policies.SequentialTaskPolicy`, which runs one
:class:`~repro.engine.policies.UnitWindowPolicy` per task — the window of
the unit-size variant and Corollary 3.9); this module adapts task models
to it and selects the numeric backend (``backend="int"``/``"auto"`` runs
the whole engine on LCM-rescaled integers, bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence

from ..engine import api as _engine
from ..engine.trace import TraceRun
from .model import Task


@dataclass
class SequentialResult:
    """Outcome of a sequential run.

    With ``record_steps`` on, :attr:`trace` holds one :class:`TraceRun`
    per step: shares per ``(task id, job index)`` as integers at the
    run's scale (exact Fractions on read; an edit goes by assigning
    ``run.shares``), no processors, and the ids of the tasks packed in
    the step as its ``window``.
    """

    completion_times: Dict[int, int]
    makespan: int
    trace: List[TraceRun] = field(default_factory=list)

    def sum_completion_times(self) -> int:
        return sum(self.completion_times.values())


def run_sequential(
    tasks: Sequence[Task],
    m: int,
    budget: Fraction,
    record_steps: bool = True,
    backend: str = "auto",
    observer=None,
    step_limit=None,
) -> SequentialResult:
    """Run the engine over *tasks* in the given order with *m* processors
    and per-step resource *budget*.  *observer* receives the run's
    engine events (see :mod:`repro.obs`); *step_limit* truncates the run
    (tasks unfinished at the limit have no completion time)."""
    completion, makespan, trace = _engine.run_sequential_tasks(
        tasks, m, budget, record_steps=record_steps, backend=backend,
        observer=observer, step_limit=step_limit,
    )
    return SequentialResult(
        completion_times=completion, makespan=makespan, trace=trace
    )

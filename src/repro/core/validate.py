"""Full feasibility validation of SRJ schedules against the model rules.

The validator re-checks, from first principles (Section 1.1 of the paper):

* the resource is never overused: ``Σ_i R_i(t) ≤ 1`` for every step;
* at most ``m`` jobs run per step, on pairwise distinct processors;
* no job receives more than ``r_j`` in a step (shares beyond ``r_j`` would
  be silently wasted by the model; our schedulers never emit them);
* non-preemption: each job's active steps form one contiguous interval;
* no migration: each job uses a single processor throughout;
* completion: every job accumulates its full ``s_j``;
* no processing beyond completion.

Two entry points share one *streaming* core (memory bounded by ``O(n + m)``,
independent of the makespan):

* :func:`validate_schedule` checks a materialized
  :class:`~repro.core.schedule.Schedule`;
* :func:`validate_result` checks an :class:`~repro.core.scheduler.SRJResult`
  directly via :meth:`~repro.core.scheduler.SRJResult.iter_steps`, so
  million-step schedules never need to be expanded.

:func:`assert_valid` / :func:`assert_result_valid` raise
``ScheduleError`` with all violations listed.

:func:`window_violations` checks the other half of the algorithm's
contract: Definition 3.1's job-window properties of one window against
an engine state (``J(t-1)`` before the step).  A *job window*
``W ⊆ J(t-1)`` for time step ``t`` satisfies

(a) contiguity: jobs of ``J(t-1)`` between two window members are members;
(b) ``r(W \\ {max W}) < R`` (all but the rightmost job fit fully into the
    resource budget ``R``; the paper uses ``R = 1``);
(c) at most one job of ``W`` is fractured;
(d) every started job of ``J(t-1)`` lies inside ``W``.

``W`` is *k-maximal* if additionally ``|W| ≤ k`` and

(e) ``|W| < k  ⇒  L_t(W) = ∅`` (size-deficient windows hug the left border);
(f) ``r(W) < R  ⇒  R_t(W) = ∅`` (resource-deficient windows hug the right
    border).

Windows are sorted lists of job ids; the *universe* is the sorted list of
eligible unfinished job ids (``J(t-1)`` by default).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .instance import Instance
from .schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.state import EngineState
    from .scheduler import SRJResult


class ScheduleError(AssertionError):
    """Raised by :func:`assert_valid` on an infeasible schedule."""


@dataclass
class ValidationReport:
    """Outcome of schedule validation."""

    ok: bool
    violations: List[str] = field(default_factory=list)
    makespan: int = 0

    def __bool__(self) -> bool:
        return self.ok


def _validate_steps(
    inst: Instance,
    steps: Iterable[Iterable[Tuple[int, int, Fraction]]],
    budget: Fraction,
    require_all_finished: bool,
) -> ValidationReport:
    """Streaming validation core.

    *steps* yields, per time step, the ``(job_id, processor, share)``
    triples executed in that step.  Per-job state is O(1): received volume,
    finish step, the active interval ``[first, last]`` with a step counter
    (contiguity ⇔ ``count == last - first + 1``), and the owning processor.
    """
    violations: List[str] = []

    received: Dict[int, Fraction] = {j.id: Fraction(0) for j in inst.jobs}
    finished_at: Dict[int, int] = {}
    # per job: [first_active, last_active, n_active] (1-indexed steps)
    interval: Dict[int, List[int]] = {}
    # per job: owning processor, or -1 once more than one was seen
    owner: Dict[int, int] = {}

    t = 0
    for t, step in enumerate(steps, start=1):
        total = Fraction(0)
        procs_this_step = set()
        jobs_this_step = set()
        for jid, proc, share in step:
            if jid not in received:
                violations.append(f"step {t}: unknown job id {jid}")
                continue
            if jid in jobs_this_step:
                violations.append(f"step {t}: job {jid} scheduled twice")
            jobs_this_step.add(jid)
            if proc in procs_this_step:
                violations.append(
                    f"step {t}: processor {proc} runs two jobs"
                )
            procs_this_step.add(proc)
            if proc >= inst.m:
                violations.append(
                    f"step {t}: processor {proc} out of range "
                    f"(m={inst.m})"
                )
            r = inst.requirement(jid)
            if share > r:
                violations.append(
                    f"step {t}: job {jid} share {share} exceeds r_j={r}"
                )
            if share < 0:
                violations.append(f"step {t}: job {jid} negative share")
            if jid in finished_at:
                violations.append(
                    f"step {t}: job {jid} processed after finishing at "
                    f"step {finished_at[jid]}"
                )
            total += share
            iv = interval.get(jid)
            if iv is None:
                interval[jid] = [t, t, 1]
            else:
                iv[1] = t
                iv[2] += 1
            prev = owner.get(jid)
            if prev is None:
                owner[jid] = proc
            elif prev != proc and prev != -1:
                owner[jid] = -1
                violations.append(
                    f"job {jid}: migrated across processors "
                    f"{sorted({prev, proc})}"
                )
            received[jid] += min(share, r)
            if (
                jid not in finished_at
                and received[jid] >= inst.total_requirement(jid)
            ):
                finished_at[jid] = t
        if len(jobs_this_step) > inst.m:
            violations.append(
                f"step {t}: {len(jobs_this_step)} jobs exceed m={inst.m}"
            )
        if total > budget:
            violations.append(
                f"step {t}: resource overused ({total} > {budget})"
            )

    for job in inst.jobs:
        iv = interval.get(job.id)
        if iv is not None:
            first, last, count = iv
            if count != last - first + 1:
                violations.append(
                    f"job {job.id}: preempted (active in steps "
                    f"{first}..{last} but only {count} of them)"
                )
        if require_all_finished:
            if received[job.id] < job.total_requirement:
                violations.append(
                    f"job {job.id}: unfinished "
                    f"({received[job.id]} / {job.total_requirement})"
                )

    return ValidationReport(
        ok=not violations, violations=violations, makespan=t
    )


def validate_schedule(
    schedule: Schedule,
    budget: Fraction = Fraction(1),
    require_all_finished: bool = True,
) -> ValidationReport:
    """Check *schedule* against every model rule; collect all violations."""
    return _validate_steps(
        schedule.instance,
        (
            [(p.job_id, p.processor, p.share) for p in step.pieces]
            for step in schedule.steps
        ),
        budget,
        require_all_finished,
    )


def validate_result(
    result: "SRJResult",
    budget: Fraction = Fraction(1),
    require_all_finished: bool = True,
    observer=None,
) -> ValidationReport:
    """Check a scheduler result without materializing its schedule.

    Streams the RLE trace via
    :meth:`~repro.core.scheduler.SRJResult.iter_steps`, so memory stays
    bounded regardless of the makespan (million-step schedules validate in
    O(n + m) space).  *observer* (a :class:`repro.obs.Observer`) receives
    a ``validate`` timing span covering the whole check.
    """
    from ..obs import span

    with span(observer, "validate"):
        return _validate_steps(
            result.instance,
            (
                [(jid, proc, share) for jid, (proc, share) in step.items()]
                for step in result.iter_steps()
            ),
            budget,
            require_all_finished,
        )


def assert_valid(
    schedule: Schedule,
    budget: Fraction = Fraction(1),
    require_all_finished: bool = True,
) -> None:
    """Raise :class:`ScheduleError` listing every violation, if any."""
    report = validate_schedule(schedule, budget, require_all_finished)
    if not report.ok:
        raise ScheduleError(
            f"{len(report.violations)} violation(s):\n  "
            + "\n  ".join(report.violations)
        )


def assert_result_valid(
    result: "SRJResult",
    budget: Fraction = Fraction(1),
    require_all_finished: bool = True,
) -> None:
    """Streaming variant of :func:`assert_valid` for scheduler results."""
    report = validate_result(result, budget, require_all_finished)
    if not report.ok:
        raise ScheduleError(
            f"{len(report.violations)} violation(s):\n  "
            + "\n  ".join(report.violations)
        )


# ---------------------------------------------------------------------------
# Definition 3.1 — job-window properties
# ---------------------------------------------------------------------------


def left_neighbors(
    universe: Sequence[int], window: Sequence[int]
) -> List[int]:
    """``L_t(W)`` relative to *universe*: eligible ids < min(W)."""
    if not window:
        return []
    return list(universe[: bisect_left(universe, window[0])])


def right_neighbors(
    universe: Sequence[int], window: Sequence[int]
) -> List[int]:
    """``R_t(W)`` relative to *universe*: eligible ids > max(W).

    For an empty window this is the whole universe (paper convention
    ``R_t(∅) := J(t-1)``).
    """
    if not window:
        return list(universe)
    return list(universe[bisect_right(universe, window[-1]):])


def window_requirement(state: "EngineState", window: Sequence[int]):
    """``r(W) = Σ_{j∈W} r_j`` (full requirements, not remaining)."""
    total = state.zero
    for j in window:
        total += state.req[j]
    return total


def window_requirement_without_max(
    state: "EngineState", window: Sequence[int]
):
    """``r(W \\ {max W})`` of a sorted window."""
    return window_requirement(state, window[:-1])


def window_violations(
    state: "EngineState",
    window: Sequence[int],
    k: int,
    budget,
    universe: Optional[Sequence[int]] = None,
) -> List[str]:
    """Return the Definition 3.1 properties violated by *window* (empty list
    if the window is a k-maximal job window for the current state).

    Property names: ``'a'`` contiguity, ``'b'`` resource-minus-max, ``'c'``
    at most one fractured, ``'d'`` started jobs inside, ``'size'`` |W| ≤ k,
    ``'e'`` left-maximality, ``'f'`` right-maximality.  *budget* is in the
    state's working domain.
    """
    if universe is None:
        universe = state.unfinished()
    violations: List[str] = []
    ordered = sorted(window)
    if ordered:
        lo_i = bisect_left(universe, ordered[0])
        hi_i = bisect_right(universe, ordered[-1])
        if list(universe[lo_i:hi_i]) != ordered:
            violations.append("a")
        if window_requirement_without_max(state, ordered) >= budget:
            violations.append("b")
    if sum(1 for j in window if state.is_fractured(j)) > 1:
        violations.append("c")
    members = set(window)
    if any(j not in members and state.is_started(j) for j in universe):
        violations.append("d")
    if len(window) > k:
        violations.append("size")
    if len(window) < k and left_neighbors(universe, ordered):
        violations.append("e")
    if window_requirement(state, window) < budget and right_neighbors(
        universe, ordered
    ):
        violations.append("f")
    return violations


def is_k_maximal(
    state: "EngineState",
    window: Sequence[int],
    k: int,
    budget,
    universe: Optional[Sequence[int]] = None,
) -> bool:
    """True iff *window* is a k-maximal job window (Definition 3.1)."""
    return not window_violations(state, window, k, budget, universe)

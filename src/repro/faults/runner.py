"""The fault-tolerant SRJ runner: segmented execution + recovery.

``run_with_faults`` executes an SRJ instance under a :class:`FaultPlan`
by partitioning the timeline at fault-event boundaries.  Between two
boundaries the machine condition (online processors, capacity) is
constant, so the paper's sliding-window scheduler applies verbatim to the
*residual* sub-instance: each surviving job ``j`` with residual volume
``v_j = s_j − (resource delivered so far)`` re-enters as a job with
requirement ``r_j`` and real-valued size ``v_j / r_j``, rescaled by the
paper's real-size transformation (:meth:`Instance.from_real_sizes`,
below Equation (1)).  This *is* the recovery algorithm of the issue:
re-invoking the sliding-window scheduler on residual volumes.  All
arithmetic is exact (Fractions / LCM-scaled integers), so the produced
schedule, completion times and the degradation ratio are identical
across backends and run counts.

Guarantees (see docs/ROBUSTNESS.md):

* every non-aborted job completes, and the assembled schedule satisfies
  the per-step model rules of the *degraded* machine (capacity at most
  the dipped ``R_total(t)``, concurrency at most the online processor
  count) — checked by :func:`validate_faulted`;
* within a segment the paper's 2+1/(m−2) window guarantees hold for the
  residual sub-instance; **no end-to-end approximation factor** is
  claimed across fault boundaries (crashes can force processor
  migration, which the fault-free model forbids).

``recover`` is the single-shot form: given a :class:`Checkpoint` it
builds the residual sub-instance, schedules it fault-free and returns a
tail whose schedule passes ``validate_schedule``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core.instance import Instance
from ..core.validate import (
    ValidationReport,
    _faulted_end_rules,
    _srj_ledger,
)
from ..engine.api import solve_srj
from ..engine.trace import SRJResult, TraceRun
from ..obs import setup_observer
from .model import FaultEvent, FaultPlan, FaultRecoveryError, Machine
from .snapshot import Checkpoint

__all__ = [
    "FaultSegment",
    "FaultedResult",
    "RecoveryResult",
    "run_with_faults",
    "recover",
    "validate_faulted",
    "degradation_report",
    "injection_schedule",
    "INJECTION_KINDS",
]


@dataclass
class FaultSegment:
    """One maximal run under a constant machine condition.

    ``runs`` is the segment's RLE trace with *original* job ids and
    *physical* processor indices; an idle segment (no online processor or
    zero capacity) has no runs.
    """

    start: int
    length: int
    capacity: Fraction
    processors: Tuple[int, ...]
    runs: List[TraceRun] = field(default_factory=list)


@dataclass
class FaultedResult:
    """Outcome of :func:`run_with_faults`."""

    instance: Instance
    plan: FaultPlan
    backend: str
    makespan: int
    #: original job id -> completion step (aborted jobs absent)
    completion_times: Dict[int, int]
    #: original job id -> step the abort took effect
    aborted: Dict[int, int]
    segments: List[FaultSegment]
    checkpoints: List[Checkpoint]
    #: (event, applied?) in firing order; an event is skipped (False) when
    #: it is a no-op in context (crash of a down/out-of-range processor,
    #: restore of an up one, abort of a finished job)
    applied: List[Tuple[FaultEvent, bool]]
    #: makespan of the same instance without faults (None if not computed)
    fault_free_makespan: Optional[int] = None
    #: the checkpoint a resumed run started from (None: it ran from step 0)
    resumed_from: Optional[Checkpoint] = None
    #: metrics accumulated by ``collect_stats=True`` (else ``None``)
    stats: object = field(default=None, repr=False, compare=False)

    @property
    def degradation(self) -> Optional[Fraction]:
        """Achieved-vs-fault-free makespan ratio (≥ 1 in practice)."""
        if self.fault_free_makespan is None or self.fault_free_makespan == 0:
            return None
        return Fraction(self.makespan, self.fault_free_makespan)

    def n_applied(self) -> int:
        return sum(1 for _ev, ok in self.applied if ok)


@dataclass
class RecoveryResult:
    """Outcome of :func:`recover`: the rescheduled tail."""

    #: the residual sub-instance (canonical ids)
    sub_instance: Instance
    #: canonical sub-instance id -> original job id
    job_ids: Dict[int, int]
    #: the fault-free schedule of the residual volumes
    result: SRJResult
    #: wall-clock step the tail starts at
    start: int

    @property
    def completion_times(self) -> Dict[int, int]:
        """Original job id -> absolute completion step."""
        return {
            self.job_ids[cid]: self.start + ct
            for cid, ct in self.result.completion_times.items()
        }

    @property
    def makespan(self) -> int:
        return self.start + self.result.makespan


# ---------------------------------------------------------------------------
# Residual sub-instances
# ---------------------------------------------------------------------------


def _residual_instance(
    instance: Instance, residual: Dict[int, Fraction], m_eff: int
) -> Tuple[Instance, Dict[int, int]]:
    """Build the sub-instance of jobs with residual volume > 0.

    Returns ``(sub, keymap)`` where ``keymap`` maps the sub-instance's
    canonical job ids back to original job ids.  Residual volumes re-enter
    through the paper's real-size rescaling: requirement ``r_j`` is kept,
    the real size is ``v_j / r_j``, so ``s'_j = v_j`` exactly.
    """
    keys = sorted(j for j, v in residual.items() if v > 0)
    reqs = [instance.requirement(j) for j in keys]
    sizes = [residual[j] / instance.requirement(j) for j in keys]
    sub = Instance.from_real_sizes(m_eff, reqs, sizes)
    keymap = {
        cid: keys[pos] for cid, pos in enumerate(sub.original_ids)
    }
    return sub, keymap


# ---------------------------------------------------------------------------
# The segmented runner
# ---------------------------------------------------------------------------


def run_with_faults(
    instance: Instance,
    plan: FaultPlan,
    backend: str = "auto",
    observer=None,
    collect_stats: bool = False,
    compare_fault_free: bool = True,
    checkpoint_every: Optional[int] = None,
    from_checkpoint: Optional[Checkpoint] = None,
    max_segments: int = 100_000,
) -> FaultedResult:
    """Execute *instance* under *plan*, recovering after every fault.

    With an empty plan (and no ``checkpoint_every``) the result equals
    ``solve_srj(instance, backend)`` run for run.  ``checkpoint_every``
    additionally cuts segments at multiples of that step count so a
    :class:`Checkpoint` lands there; note this resets the sliding window
    at the cut, which may alter the schedule *shape* (it stays valid and
    deterministic).  ``from_checkpoint`` resumes a previous run — the
    produced tail is identical to the straight-through run's tail.

    *observer* / ``collect_stats`` install telemetry; fault events reach
    observers through ``on_fault`` and the per-segment engine runs emit
    the usual run records.
    """
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    obs, metrics = setup_observer(observer, collect_stats, env=False)
    cp = from_checkpoint
    if cp is None:
        t = 0
        residual = {
            job.id: job.total_requirement for job in instance.jobs
        }
        completed: Dict[int, int] = {}
        aborted: Dict[int, int] = {}
        machine = Machine(plan, instance.m)
    else:
        t = cp.t
        residual = dict(cp.residual)
        completed = dict(cp.completed)
        aborted = dict(cp.aborted)
        machine = Machine(
            plan, instance.m, cp.down, cp.capacity, cp.next_event
        )

    def abort(ev: FaultEvent) -> bool:
        if residual.get(ev.job, 0) <= 0:
            return False
        residual[ev.job] = Fraction(0)
        aborted[ev.job] = t
        return True

    segments: List[FaultSegment] = []
    checkpoints: List[Checkpoint] = []
    applied: List[Tuple[FaultEvent, bool]] = []

    while True:
        applied += machine.advance(t, abort, obs, "faults")
        if not any(v > 0 for v in residual.values()):
            break
        if len(segments) >= max_segments:
            raise FaultRecoveryError(
                f"fault runner exceeded {max_segments} segments"
            )
        horizon = machine.next_time()
        if checkpoint_every is not None:
            next_cp = (t // checkpoint_every + 1) * checkpoint_every
            horizon = next_cp if horizon is None else min(horizon, next_cp)
        up = machine.online
        seg = FaultSegment(t, 0, machine.capacity, up)
        if machine.stall(t) is not None:
            seg.length = horizon - t  # idle to the next event or cut
        else:
            sub, keymap = _residual_instance(instance, residual, len(up))
            res = solve_srj(
                sub,
                backend=backend,
                observer=obs,
                budget=machine.capacity,
                step_limit=None if horizon is None else horizon - t,
            )
            seg.length = res.makespan
            seg.runs = [
                TraceRun.at_scale(
                    {keymap[cid]: u for cid, u in run.units.items()},
                    run.scale,
                    {
                        keymap[cid]: up[proc]
                        for cid, proc in run.processors.items()
                    },
                    run.count,
                    run.case,
                    [keymap[cid] for cid in run.window],
                )
                for run in res.trace
            ]
            # the segment's deliveries, totalled by the model rules' walk
            spent = _srj_ledger(sub, [])
            spent.walk(
                ((run.units, run.scale, None, run.count)
                 for run in res.trace),
                machine.capacity, up,
            )
            for cid, job in spent.jobs.items():
                if job.got > job.need:
                    raise AssertionError(
                        f"segment over-delivered "
                        f"{spent.value(job.got - job.need)} to job {keymap[cid]}"
                    )
                residual[keymap[cid]] -= spent.value(job.got)
            for cid, ct in res.completion_times.items():
                completed[keymap[cid]] = t + ct
        segments.append(seg)
        t += seg.length
        checkpoints.append(
            Checkpoint(
                t=t,
                residual={j: v for j, v in residual.items() if v > 0},
                completed=dict(completed),
                aborted=dict(aborted),
                down=tuple(sorted(machine.down)),
                capacity=machine.capacity,
                next_event=machine.next_event,
            )
        )

    fault_free = None
    if compare_fault_free:
        fault_free = solve_srj(instance, backend=backend).makespan
    return FaultedResult(
        instance=instance,
        plan=plan,
        backend=backend,
        makespan=t,
        completion_times=completed,
        aborted=aborted,
        segments=segments,
        checkpoints=checkpoints,
        applied=applied,
        fault_free_makespan=fault_free,
        resumed_from=from_checkpoint,
        stats=metrics,
    )


# ---------------------------------------------------------------------------
# Single-shot recovery
# ---------------------------------------------------------------------------


def recover(
    instance: Instance,
    checkpoint: Checkpoint,
    backend: str = "auto",
    observer=None,
) -> RecoveryResult:
    """Reschedule the residual volumes of *checkpoint* fault-free.

    Re-invokes the sliding-window scheduler on ``v_j = s_j − delivered``
    over the full machine at unit capacity; the returned tail's schedule
    passes ``validate_schedule`` (tested).  Use this to resume after the
    fault regime has passed.
    """
    if not checkpoint.residual:
        raise FaultRecoveryError("checkpoint has no residual work to recover")
    sub, keymap = _residual_instance(
        instance, dict(checkpoint.residual), instance.m
    )
    result = solve_srj(sub, backend=backend, observer=observer)
    return RecoveryResult(
        sub_instance=sub,
        job_ids=keymap,
        result=result,
        start=checkpoint.t,
    )


# ---------------------------------------------------------------------------
# Validation & reporting
# ---------------------------------------------------------------------------


def validate_faulted(result: FaultedResult) -> ValidationReport:
    """Audit a :class:`FaultedResult` against the degraded model rules.

    The segments must cover ``[0, makespan)`` back to back, each with runs
    summing to its length.  Each segment's runs go through the model
    rules' one routine (:mod:`repro.core.validate`) under the segment's
    capacity and online processors.  Every non-aborted job must receive
    exactly ``s_j`` and carry a completion time equal to the step it
    finished in; an aborted one receives at most ``s_j``.  Migration and
    preemption across segments are allowed: a crash can force them.

    A resumed result (``resumed_from`` set) is checked from its
    checkpoint, which is trusted: the segments must cover
    ``[cp.t, makespan)``, a job with residual ``v_j`` is owed exactly
    ``v_j`` more, one the checkpoint lists as completed keeps its
    completion step and, like one it lists as aborted, is owed nothing.
    """
    violations: List[str] = []
    ledger = _srj_ledger(result.instance, violations)
    cp = result.resumed_from
    cursor = 0
    if cp is not None:
        cursor = ledger.t = cp.t
        for key, job in ledger.jobs.items():
            ledger.owe(key, cp.residual.get(key, Fraction(0)))
            job.finish = cp.completed.get(key)
    first = cursor
    for si, seg in enumerate(result.segments):
        if seg.start != cursor:
            violations.append(
                f"segment {si} starts at {seg.start}, expected {cursor}"
            )
        if seg.length < 0:
            violations.append(f"segment {si} has negative length")
        cursor = seg.start + seg.length
        ledger.t = seg.start
        ledger.walk(
            ((run.units, run.scale, run.processors, run.count)
             for run in seg.runs),
            seg.capacity,
            frozenset(seg.processors),
            f"step {{t}} in segment {si} run {{i}}",
        )
        if seg.runs and ledger.t != cursor:
            violations.append(f"segment {si} covers {ledger.t - seg.start} "
                              f"steps, length {seg.length}")
    if cursor != result.makespan:
        violations.append(
            f"segments cover [{first}, {cursor}), makespan is "
            f"{result.makespan}"
        )
    _faulted_end_rules(ledger, result.completion_times, result.aborted)
    return ValidationReport(
        ok=not violations,
        violations=violations,
        makespan=result.makespan,
    )


#: process-level fault vocabulary :func:`injection_schedule` emits —
#: consumers (the service smoke battery) map these onto their own
#: failure surface
INJECTION_KINDS = ("worker_crash", "slow", "malformed", "recover")


def injection_schedule(plan: FaultPlan) -> List[Dict]:
    """Derive a process-level fault-injection schedule from *plan*.

    The model-level vocabulary (``crash``/``restore``/``dip``/``abort``)
    maps onto the failure surface of a *process* executing requests: a
    processor crash becomes a worker crash, a capacity dip becomes a slow
    (hanging) worker, an abort becomes a malformed request, and a restore
    becomes a plain recovery probe.  Because :meth:`FaultPlan.random` is
    a pure function of its seed, the whole schedule is too — the service
    smoke battery replays the same injections on every run.
    """
    mapping = {
        "crash": "worker_crash",
        "dip": "slow",
        "abort": "malformed",
        "restore": "recover",
    }
    return [
        {"t": ev.t, "kind": mapping[ev.kind], "source": ev.kind}
        for ev in plan.events
    ]


def degradation_report(result: FaultedResult) -> Dict:
    """A JSON-able summary of the degradation a plan caused."""
    ratio = result.degradation
    return {
        "makespan": result.makespan,
        "fault_free_makespan": result.fault_free_makespan,
        "degradation_exact": str(ratio) if ratio is not None else None,
        "degradation": (
            # reporting-only convenience; the exact ratio rides alongside
            # in degradation_exact
            float(ratio) if ratio is not None else None  # lint: ok-exact-no-float
        ),
        "events_planned": len(result.plan),
        "events_applied": result.n_applied(),
        "events_by_kind": result.plan.counts(),
        "jobs": result.instance.n,
        "jobs_aborted": len(result.aborted),
        "jobs_completed": len(result.completion_times),
        "segments": len(result.segments),
        "checkpoints": len(result.checkpoints),
    }

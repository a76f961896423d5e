"""Feasibility validation against the model rules (Section 1.1).

One routine, :meth:`_Ledger.walk`, checks the per-step rules for every
validator: a step's shares sum to at most its capacity; at most one job
runs per online processor and none on an offline one; every share lies
in ``[0, r_j]`` (the model would silently waste an excess; our schedulers
never emit one); no job is processed after it finished.  It walks runs of
identical steps whose shares are integers at the run's scale (the form an
:class:`~repro.engine.trace.SRJResult` trace keeps; :func:`exact_run`
brings an exact share map into it) and books them at the LCM of every
scale it meets, which is exact for any rational input.  A run
of ``c`` steps is checked once, adds ``c·share`` to each job's delivered
amount, finds a finishing step inside the run by ceiling division and
reports a violation once, at the first step it holds.  Its ledger keeps
O(1) per job, so memory is O(n + m) at any makespan.

Each validator applies its own model's end rules to the ledger.
:func:`validate_schedule` and :func:`validate_result` (an
:class:`~repro.engine.trace.SRJResult`'s trace, never expanded into
steps) check non-preemption, no migration and full delivery of ``s_j``;
:func:`validate_result` also checks the recorded completion times and
makespan.  :func:`assert_valid` / :func:`assert_result_valid` raise
``ScheduleError`` with all violations listed.  The runs under a fault
plan (:func:`repro.faults.validate_faulted` and the simulator's
certificate) share one set of end rules, :func:`_faulted_end_rules`.

The ledger also checks the other half of the algorithm's contract,
Definition 3.1, for one window at a time (:meth:`_Ledger.window_faults`),
against ``J(t)``, the jobs it has not seen finish after the steps walked
so far.  A *job window* ``W ⊆ J(t-1)`` for time step ``t`` satisfies

(a) contiguity: jobs of ``J(t-1)`` between two window members are members;
(b) ``r(W \\ {max W}) < R`` (all but the rightmost job fit fully into the
    resource budget ``R``; the paper uses ``R = 1``);
(c) at most one job of ``W`` is fractured;
(d) every started job of ``J(t-1)`` lies inside ``W``.

``W`` is *k-maximal* if additionally ``|W| ≤ k`` and

(e) ``|W| < k  ⇒  L_t(W) = ∅`` (size-deficient windows hug the left border);
(f) ``r(W) < R  ⇒  R_t(W) = ∅`` (resource-deficient windows hug the right
    border).

A job is *started* if it received something and has not finished, and
*fractured* if it has not finished and its undelivered amount is not a
multiple of ``r_j``.  ``L_t(W)``/``R_t(W)`` are the jobs of ``J(t-1)``
left of ``min W`` and right of ``max W``; ``R_t(∅) = J(t-1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from ..numeric import lcm_scaled
from .instance import Instance
from .schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.trace import SRJResult


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


class _Job:
    """A job's ledger entry, amounts at the ledger's scale: ``req`` r_j,
    ``need`` s_j, ``got`` the amount delivered (each step's share capped
    at r_j); ``first``/``last`` active step (0 before it runs) and
    ``active`` the number of active steps; ``owner`` its first processor
    and ``moved`` ``(owner, other)`` once it migrates; ``finish`` the step
    ``got`` reached ``need``; ``idle`` its first zero-share step."""

    __slots__ = ("req", "need", "got", "first", "last", "active",
                 "owner", "moved", "finish", "idle")

    def __init__(self, req: int, size: int) -> None:
        self.req, self.need = req, size * req
        self.got = self.first = self.last = self.active = 0
        self.owner = self.moved = self.finish = self.idle = None

    def preempted(self) -> Optional[str]:
        """Why the active steps are not one interval, or None."""
        if not self.active or self.active == self.last - self.first + 1:
            return None
        return (f"preempted (active in steps {self.first}..{self.last} "
                f"but only {self.active} of them)")


def exact_run(shares: Mapping, processors):
    """A one-step run for :meth:`_Ledger.walk` from an exact ``job ->
    share`` map, at the LCM of its denominators."""
    scale, ints = lcm_scaled(shares.values())
    return dict(zip(shares, ints)), scale, processors, 1


class _Ledger:
    """The model rules' one routine (:meth:`walk`) and its per-job ledger.

    *jobs* yields ``(key, r_j, p_j)`` with ``r_j`` an integer at *scale*
    and ``s_j = p_j·r_j``.  Amounts are integers at :attr:`scale`, the LCM
    of every scale met so far; violations are appended to *violations*.

    The first window check (:meth:`window_faults`) builds ``J(t)`` and
    the count of started jobs from the ledger; from then on :meth:`walk`
    and :meth:`abort` keep them at O(1) per job that starts or finishes,
    so a validator that checks no window never pays for them.
    """

    def __init__(self, scale: int, jobs, violations: List[str]) -> None:
        self.scale = scale
        self.jobs = {key: _Job(req, p) for key, req, p in jobs}
        self.violations = violations
        self.t = 0  # steps walked; the next run starts at step t + 1
        #: a scale met so far -> self.scale // it
        self._factor: Dict[int, int] = {scale: 1}
        #: J(t) as a doubly linked list of keys (None past either border;
        #: a job that left keeps its last neighbours) and its first key,
        #: and the number of started jobs; None until the first check
        self._prev: Optional[Dict] = None
        self._next: Dict = {}
        self._head = None
        self.started = 0

    def value(self, amount: int) -> Fraction:
        return Fraction(amount, self.scale)

    def owe(self, key, residual: Fraction) -> None:
        """Book job *key* as owed exactly *residual* more of its ``s_j``
        (the state a trusted checkpoint records)."""
        num, den = residual.as_integer_ratio()
        if den not in self._factor:
            self._admit(den)
        job = self.jobs[key]
        job.got = job.need - num * self._factor[den]

    def abort(self, key, step: int) -> None:
        """Book job *key* as cancelled at *step*: it finishes there with
        what it received so far."""
        job = self.jobs[key]
        if job.finish is None:
            job.finish = step
            if self._prev is not None:
                self.started -= job.got > 0
                self._leave(key)

    def _track(self) -> None:
        """Build ``J(t)`` and the started count from the ledger."""
        keys = sorted(k for k, job in self.jobs.items() if job.finish is None)
        self._prev = dict(zip(keys, [None] + keys[:-1]))
        self._next = dict(zip(keys, keys[1:] + [None]))
        self._head = keys[0] if keys else None
        self.started = sum(1 for k in keys if self.jobs[k].got)

    def _leave(self, key) -> None:
        """Unlink *key* from ``J(t)``."""
        prev, nxt = self._prev, self._next
        p, q = prev[key], nxt[key]
        if p is None:
            self._head = q
        else:
            nxt[p] = q
        if q is not None:
            prev[q] = p

    def neighbours(self, key):
        """The jobs of ``J(t)`` next to *key* on its left and right (None
        past a border); for a job that left ``J(t)``, its neighbours when
        it left."""
        if self._prev is None:
            self._track()
        return self._prev.get(key), self._next.get(key)

    def window_faults(self, window: Sequence, k: int, capacity) -> List[str]:
        """The Definition 3.1 properties that the sorted *window* violates
        as a k-maximal job window for step ``t + 1`` under the resource
        budget *capacity*, in O(|W|): ``'a'`` contiguity, ``'b'``
        resource-minus-max, ``'c'`` at most one fractured, ``'d'`` started
        jobs inside, ``'size'`` |W| ≤ k, ``'e'`` left-maximality, ``'f'``
        right-maximality.  A member outside ``J(t)`` violates (a); (e) and
        (f) then read its neighbours when it left.  Call it between walks:
        a walk keeps ``J(t)`` only if it was built when the walk began."""
        if self._prev is None:
            self._track()
        num, den = capacity.as_integer_ratio()
        if den not in self._factor:
            self._admit(den)
        cap = num * self._factor[den]
        jobs, nxt = self.jobs, self._next
        contiguous = True
        req = last_req = fractured = started = 0
        last = None
        for j in window:
            job = jobs.get(j)
            if job is None or job.finish is not None:
                contiguous = False
                if job is None:
                    continue
            else:
                got = job.got
                if got:
                    started += 1
                    fractured += (job.need - got) % job.req > 0
                if contiguous and last is not None and nxt[last] != j:
                    contiguous = False
            last, last_req = j, job.req
            req += last_req
        faults = []
        if not contiguous:
            faults.append("a")
        if window and req - last_req >= cap:
            faults.append("b")
        if fractured > 1:
            faults.append("c")
        if started < self.started:
            faults.append("d")
        if len(window) > k:
            faults.append("size")
        if window:
            left = self._prev.get(window[0])
            right = nxt.get(window[-1])
        else:
            left, right = None, self._head
        if len(window) < k and left is not None:
            faults.append("e")
        if req < cap and right is not None:
            faults.append("f")
        return faults

    def _admit(self, den: int) -> int:
        """Make *den* divide the scale, rescaling every amount; return the
        factor the scale grew by."""
        grow = den // math.gcd(self.scale, den)
        if grow > 1:
            self.scale *= grow
            for job in self.jobs.values():
                job.req, job.need, job.got = (
                    job.req * grow, job.need * grow, job.got * grow)
            self._factor.clear()
        self._factor[den] = self.scale // den
        return grow

    def walk(self, runs, capacity, online, where: str = "step {t}") -> None:
        """Check the per-step rules on *runs* and book them in the ledger.

        Each run is ``(units, scale, processors, count)``: job -> share as
        an integer at *scale* (the share is ``units[j] / scale``), job ->
        processor (None where the model assigns none) and its number of
        identical steps; the runs follow step :attr:`t`.  A step's shares
        sum to at most *capacity*; *online* holds the processors a job may
        run on and bounds the jobs per step.  *where* formats a
        violation's place from its step ``t`` and run index ``i``.
        """
        jobs, factor, violations = self.jobs, self._factor, self.violations
        num, den = capacity.as_integer_ratio()
        if den not in factor:
            self._admit(den)
        cap, slots, t = num * factor[den], len(online), self.t
        track = self._prev is not None  # keep J(t) once a window was checked

        def bad(step: int, what: str) -> None:
            violations.append(f"{where.format(t=step, i=i)}: {what}")

        for i, (shares, scale, procs, count) in enumerate(runs):
            start = t + 1
            if count < 1:
                bad(start, f"run of {count} steps")
                continue
            t += count
            q = factor.get(scale)
            if q is None:
                cap *= self._admit(scale)
                q = factor[scale]
            total = 0
            seen = set()
            for j, u in shares.items():
                job = jobs.get(j)
                if job is None:
                    bad(start, f"unknown job id {j}")
                    continue
                v = u * q
                total += v
                if procs is not None:
                    p = procs.get(j)
                    if p not in online:
                        bad(start, f"job {j} on offline processor {p}, out "
                            f"of range of the {slots} online processors")
                    if p in seen:
                        bad(start, f"processor {p} runs two jobs")
                    seen.add(p)
                    if p != job.owner:
                        if job.owner is None:
                            job.owner = p
                        elif job.moved is None:
                            job.moved = (job.owner, p)
                if job.finish is not None:
                    bad(start, f"job {j} processed after finishing at step "
                        f"{job.finish}")
                if not job.first:
                    job.first = start
                job.last = t
                job.active += count
                if v > job.req:
                    bad(start, f"job {j} share {Fraction(u, scale)} exceeds "
                        f"requirement r_j={self.value(job.req)}")
                    v = job.req
                elif v <= 0:
                    if v < 0:
                        bad(start, f"job {j} negative share "
                            f"{Fraction(u, scale)}")
                    elif job.idle is None:
                        job.idle = start
                    continue
                got = job.got + count * v
                if job.finish is None:
                    if got >= job.need:
                        steps = -((job.got - job.need) // v)  # ⌈(s_j-got)/v⌉
                        job.finish = start + steps - 1
                        if steps < count:
                            bad(job.finish + 1, f"job {j} processed after "
                                f"finishing at step {job.finish}")
                        if track:
                            self.started -= job.got > 0
                            self._leave(j)
                    elif track and not job.got:
                        self.started += 1
                job.got = got
            if total > cap:
                bad(start, f"resource overused ({self.value(total)} > "
                    f"{capacity})")
            if len(shares) > slots:
                bad(start, f"{len(shares)} jobs exceed m={slots} processors")
        self.t = t


def _srj_ledger(instance: Instance, violations: List[str]) -> _Ledger:
    """The ledger of *instance*'s jobs at its scale ``L``."""
    return _Ledger(
        instance.scale,
        ((job.id, u, job.size)
         for job, u in zip(instance.jobs, instance.units)),
        violations,
    )


def _srj_end_rules(ledger: _Ledger, require_all_finished: bool) -> None:
    """Non-preemption, no migration and (optionally) full delivery."""
    for key, job in ledger.jobs.items():
        gap = job.preempted()
        if gap is not None:
            ledger.violations.append(f"job {key}: {gap}")
        if job.moved is not None:
            ledger.violations.append(
                f"job {key}: migrated across processors {sorted(job.moved)}"
            )
        if require_all_finished and job.finish is None:
            ledger.violations.append(
                f"job {key}: unfinished ({ledger.value(job.got)} / "
                f"{ledger.value(job.need)})"
            )


def _faulted_end_rules(
    ledger: _Ledger, completion_times: Mapping, aborted: Mapping
) -> None:
    """The end rules of a run under faults: every job not in *aborted*
    received exactly ``s_j`` and finished at its recorded completion
    step; an aborted one received at most ``s_j``.  Preemption and
    migration are allowed: a crash can force them."""
    violations = ledger.violations
    for key, job in ledger.jobs.items():
        got, need = ledger.value(job.got), ledger.value(job.need)
        if key in aborted:
            if got > need:
                violations.append(
                    f"aborted job {key} over-delivered: {got} > {need}"
                )
            continue
        if got != need:
            violations.append(f"job {key} delivered {got}, needs {need}")
        recorded = completion_times.get(key)
        if recorded is None:
            violations.append(f"job {key} has no completion time")
        elif recorded != job.finish:
            violations.append(
                f"job {key}: recorded completion {recorded} != finish "
                f"step {job.finish}"
            )


def validate_schedule(
    schedule: Schedule,
    budget: Fraction = Fraction(1),
    require_all_finished: bool = True,
) -> ValidationReport:
    """Check *schedule* against every model rule; collect all violations."""
    violations: List[str] = []

    def runs():
        for t, step in enumerate(schedule.steps, start=1):
            shares = {p.job_id: p.share for p in step.pieces}
            if len(shares) < len(step.pieces):
                ids = [p.job_id for p in step.pieces]
                for jid in sorted({j for j in ids if ids.count(j) > 1}):
                    violations.append(f"step {t}: job {jid} scheduled twice")
            yield exact_run(
                shares, {p.job_id: p.processor for p in step.pieces}
            )

    ledger = _srj_ledger(schedule.instance, violations)
    ledger.walk(runs(), budget, frozenset(range(schedule.instance.m)))
    _srj_end_rules(ledger, require_all_finished)
    return ValidationReport(not violations, violations, ledger.t)


def validate_result(
    result: "SRJResult",
    budget: Fraction = Fraction(1),
    require_all_finished: bool = True,
    observer=None,
) -> ValidationReport:
    """Check a scheduler result without materializing its schedule.

    Walks the run-length-encoded trace run by run: O(runs · jobs per run)
    time and O(n + m) memory, whatever the makespan.  Each recorded
    completion time must be the step its job finishes in the trace (jobs
    a ``step_limit`` left unfinished have none), and the makespan the
    trace's step count.  *observer* (a :class:`repro.obs.Observer`)
    receives a ``validate`` timing span covering the whole check.
    """
    from ..obs import span

    with span(observer, "validate"):
        violations: List[str] = []
        ledger = _srj_ledger(result.instance, violations)
        ledger.walk(((run.units, run.scale, run.processors, run.count)
                     for run in result.trace), budget,
                    frozenset(range(result.instance.m)))
        _srj_end_rules(ledger, require_all_finished)
        for key, job in ledger.jobs.items():
            recorded = result.completion_times.get(key)
            if recorded != job.finish:
                violations.append(f"job {key}: recorded completion "
                                  f"{recorded} != finish step {job.finish}")
        if result.makespan != ledger.t:
            violations.append(f"makespan {result.makespan} != {ledger.t} "
                              "steps in the trace")
        return ValidationReport(not violations, violations, ledger.t)


def _raise_on(report: ValidationReport) -> None:
    if not report.ok:
        raise ScheduleError(
            f"{len(report.violations)} violation(s):\n  "
            + "\n  ".join(report.violations)
        )


def assert_valid(
    schedule: Schedule,
    budget: Fraction = Fraction(1),
    require_all_finished: bool = True,
) -> None:
    """Raise :class:`ScheduleError` listing every violation, if any."""
    _raise_on(validate_schedule(schedule, budget, require_all_finished))


def assert_result_valid(
    result: "SRJResult",
    budget: Fraction = Fraction(1),
    require_all_finished: bool = True,
) -> None:
    """Streaming variant of :func:`assert_valid` for scheduler results."""
    _raise_on(validate_result(result, budget, require_all_finished))

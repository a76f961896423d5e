"""Discrete-time execution engine — the machine-model substrate.

The engine runs any online *policy* under the model rules of Section 1.1
(one divisible resource, ``m`` identical processors, one job per processor
per step, progress ``min(share/r_j, 1)``).  The paper's algorithm ships as
a policy too (`repro.simulator.policies`), so the paper's window, the
baselines and ad-hoc experiments all run through one audited code path.

A policy is anything with a ``decide(state) -> dict[job_id, Fraction]``
method returning the share vector for the next step.  The engine caps the
shares at ``min(r_j, s_j(t-1))`` (the model's w.l.o.g. cap) and raises
:class:`PolicyViolation` when a policy starves a started job.  Every other
per-step rule is the validators' :meth:`repro.core.validate._Ledger.walk`,
run on each step at the live capacity and online processors; a violation
raises :class:`PolicyViolation` with the ledger's message.  The same
ledger certifies the finished run with the end rules of
:func:`repro.faults.validate_faulted` (:attr:`SimulationResult.report`).

``fault_plan=`` drives the fault runners' :class:`~repro.faults.model
.Machine` *inside the model*: before each step the due events crash or
restore processors, dip the budget or abort a job, and the policy under
test copes live.  A started job gives up its processor when the processor
crashes or a forced step drops it.  A stalled machine idles until the
next event without asking the policy, in one run-length row of the
result (:attr:`SimulationResult.schedule` expands the rows on first
read), and raises :class:`~repro.faults.FaultRecoveryError` when no event
is left or the next one falls past ``max_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace
from typing import Dict, List, Optional, Protocol

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..core.validate import (
    ValidationReport,
    _faulted_end_rules,
    _srj_ledger,
    exact_run,
)
from ..engine.api import _srj_state
from ..engine.loop import StepDecision, run_loop
from ..engine.state import EngineState


class PolicyViolation(RuntimeError):
    """A policy broke a model rule (overuse, starvation, overcommit)."""


class Policy(Protocol):
    """Online scheduling policy."""

    def decide(self, state: EngineState) -> Dict[int, Fraction]:
        """Share vector for the next step given the current state."""
        ...  # pragma: no cover - protocol


@dataclass
class SimulationResult:
    """Trace-level outcome of an engine run."""

    instance: Instance
    #: the vetted steps as the engine's run-length trace rows ``(shares,
    #: processors, count, case, window)``; a stall is one row
    runs: List = field(default_factory=list, repr=False)
    makespan: int = 0
    completion_times: Dict[int, int] = field(default_factory=dict)
    #: job id -> step an injected ``abort`` event cancelled it (subset of
    #: ``completion_times`` keys — a forced finish records its step there)
    aborted: Dict[int, int] = field(default_factory=dict)
    #: metrics accumulated by ``collect_stats=True`` (else ``None``)
    stats: object = field(default=None, repr=False, compare=False)
    #: the finished run's certificate (the fault-plan end rules)
    report: Optional[ValidationReport] = None

    @cached_property
    def schedule(self) -> Schedule:
        """The run step by step, built on first read."""
        schedule = Schedule(instance=self.instance)
        for shares, procs, count, _case, _window in self.runs:
            pieces = {j: (procs[j], share) for j, share in shares.items()}
            for _ in range(count):
                schedule.append_step(pieces)
        return schedule


class SimulationEngine:
    """Runs a policy to completion under the model rules.

    A run takes at most ``max_steps`` steps, idle ones included; a policy
    that has not finished by then raises :class:`PolicyViolation`.

    ``observer=`` / ``collect_stats=`` install telemetry exactly as on the
    optimized entry points (see :mod:`repro.obs`): the observer sees one
    ``on_decision`` per vetted step, the ``scale``/``loop``/``emit`` spans,
    and ``collect_stats=True`` attaches the registry as ``result.stats``.
    """

    def __init__(
        self,
        instance: Instance,
        policy: Policy,
        budget: Fraction = Fraction(1),
        max_steps: int = 1_000_000,
        observer=None,
        collect_stats: bool = False,
        fault_plan=None,
    ) -> None:
        self.instance = instance
        self.policy = policy
        self.budget = budget
        self.max_steps = max_steps
        self.observer = observer
        self.collect_stats = collect_stats
        self.fault_plan = fault_plan

    def run(self) -> SimulationResult:
        from ..faults.model import FaultRecoveryError, Machine
        from ..obs import setup_observer, span

        obs, metrics = setup_observer(self.observer, self.collect_stats)
        instance = self.instance
        with span(obs, "scale"):
            machine = Machine(self.fault_plan, instance.m)
            ledger = _srj_ledger(instance, [])
            # the engine's exact state, plus what the policies read: the
            # instance, the live budget, the machine's offline processors
            # and the run's ledger (J(t) for the window check)
            _scale, state = _srj_state(
                "fraction", instance, self.budget, record_trace=True
            )
            state.instance = instance
            state.capacity = min(self.budget, machine.capacity)
            state._down_processors = machine.down
            state.ledger = ledger
        if obs is not None:
            obs.on_run_start(
                {
                    "layer": "simulator",
                    "backend": state.ctx.name,
                    "m": instance.m,
                    "n_jobs": instance.n,
                    "denominator_bits": 1,
                }
            )
        aborted: Dict[int, int] = {}
        max_steps = self.max_steps

        def overrun() -> PolicyViolation:
            return PolicyViolation(
                f"no completion within max_steps={max_steps}"
            )

        def abort(ev) -> bool:
            if not state.force_finish(ev.job):
                return False
            ledger.abort(ev.job, state.t)
            aborted[ev.job] = state.t
            return True

        def decide(st: EngineState) -> StepDecision:
            # run_loop counts decisions, and a stall is one decision
            if st.t >= max_steps:
                raise overrun()
            machine.advance(st.t, abort, obs, "simulator")
            if not st.unfinished_count:
                # an abort emptied the instance mid-decision; stop the
                # loop without charging a phantom idle step
                raise _AllJobsAborted
            resume = machine.stall(st.t)
            if resume is not None:
                if resume > max_steps:
                    raise FaultRecoveryError(
                        f"machine stalled from step {st.t + 1} to step "
                        f"{resume}, past max_steps={max_steps}"
                    )
                return StepDecision(shares={}, count=resume - st.t,
                                    case="stalled")
            st.capacity = min(self.budget, machine.capacity)
            started = st.started_jobs()
            shares = _vet(st, self.policy.decide(st), started, ledger,
                          machine.online)
            # a started job the step drops, or whose processor went down,
            # gives up its processor
            owner = st.processor_of
            for j in started:
                p = owner.get(j)
                if p is not None and (j not in shares or p in machine.down):
                    del owner[j]
                    st._busy_processors.discard(p)
            return StepDecision(shares=shares, case="simulated")

        with span(obs, "loop"):
            try:
                run_loop(
                    state,
                    SimpleNamespace(decide=decide),
                    max_steps,
                    overrun,
                    observer=obs,
                )
            except _AllJobsAborted:
                pass
        with span(obs, "emit"):
            _faulted_end_rules(ledger, state.completion_times, aborted)
            result = SimulationResult(
                instance=instance,
                runs=state.trace,
                makespan=state.t,
                completion_times=dict(state.completion_times),
                aborted=aborted,
                stats=metrics,
                report=ValidationReport(
                    not ledger.violations, ledger.violations, state.t
                ),
            )
        if obs is not None:
            obs.on_run_end(
                state, {"layer": "simulator", "makespan": state.t}
            )
        return result


def _vet(
    state: EngineState,
    raw: Dict[int, Fraction],
    started: List[int],
    ledger,
    online,
) -> Dict[int, Fraction]:
    """Cap the policy's shares at ``min(r_j, s_j(t-1))``, check the step on
    *ledger* at the live capacity and *online* processors, then check
    non-preemption.  A share the cap cannot apply (an unknown id, a
    negative share, a finished job) passes through to the ledger."""
    remaining, req = state.remaining, state.req
    shares: Dict[int, Fraction] = {}
    for job_id, share in raw.items():
        if share == 0:
            continue
        rem = remaining.get(job_id)  # never negative
        if rem and share > 0:
            share = min(share, req[job_id], rem)
        shares[job_id] = share
    ledger.t = state.t
    ledger.walk([exact_run(shares, None)], state.capacity, online)
    if ledger.violations:
        raise PolicyViolation("; ".join(ledger.violations))
    missing = [j for j in started if j not in shares]
    # under faults, non-preemption bends exactly as far as the machine
    # forces it: a started job may be dropped only when every online
    # processor is taken by another started job
    if missing and len(started) - len(missing) < min(
        len(started), len(online)
    ):
        raise PolicyViolation(
            f"step {state.t + 1}: started job {missing[0]} starved"
            " (non-preemption violated)"
        )
    return shares


class _AllJobsAborted(Exception):
    """Internal control flow: every remaining job was abort-cancelled."""

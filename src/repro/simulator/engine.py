"""Discrete-time execution engine — the machine-model substrate.

The engine owns the model rules of Section 1.1 (one divisible resource,
``m`` identical processors, one job per processor per step, progress
``min(share/r_j, 1)``) and executes any online *policy* against them.  The
paper's algorithms ship as policies too (`repro.simulator.policies`), so the
optimized schedulers, the baselines, and ad-hoc experiments all run through
one audited code path.

A policy is anything with a ``decide(state) -> dict[job_id, Fraction]``
method returning the share vector for the next step.  The engine enforces:

* total share ≤ budget;
* at most ``m`` jobs per step;
* every *started* unfinished job keeps being processed (non-preemption) —
  a policy that starves a started job raises :class:`PolicyViolation`;
* shares are capped at ``min(r_j, s_j(t-1))`` (the model's w.l.o.g. cap).

``fault_plan=`` injects a :class:`~repro.faults.FaultPlan` *into the
model itself*: before each step the engine applies every due event —
processor crashes/restores shrink the machine the vetter checks against
(and the crashed processor's job migrates on its next step), capacity
dips lower the per-step budget, and aborts force-finish a job.  Unlike
:func:`repro.faults.run_with_faults` (which reschedules residuals), the
*policy under test* has to cope with the events live; the vetter holds
it to the degraded machine's rules.  Violation messages carry the step,
the job id and the offending quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Protocol

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..core.state import SchedulerState
from ..engine.loop import StepDecision, run_loop


class PolicyViolation(RuntimeError):
    """A policy broke a model rule (overuse, starvation, overcommit)."""


class Policy(Protocol):
    """Online scheduling policy."""

    def decide(self, state: SchedulerState) -> Dict[int, Fraction]:
        """Share vector for the next step given the current state."""
        ...  # pragma: no cover - protocol


@dataclass
class SimulationResult:
    """Trace-level outcome of an engine run."""

    schedule: Schedule
    completion_times: Dict[int, int] = field(default_factory=dict)
    #: job id -> step an injected ``abort`` event cancelled it (subset of
    #: ``completion_times`` keys — a forced finish records its step there)
    aborted: Dict[int, int] = field(default_factory=dict)
    #: metrics accumulated by ``collect_stats=True`` (else ``None``)
    stats: object = field(default=None, repr=False, compare=False)

    @property
    def makespan(self) -> int:
        return self.schedule.makespan


class SimulationEngine:
    """Runs a policy to completion under the model rules.

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
        #: capacity dip currently in effect (1 until a ``dip`` event)
        self._capacity = Fraction(1)
        self._aborted: Dict[int, int] = {}

    def run(self) -> SimulationResult:
        from ..obs import setup_observer, span

        obs, metrics = setup_observer(self.observer, self.collect_stats)
        with span(obs, "scale"):
            state = SchedulerState(self.instance)
            state.trace = []  # record vetted steps for the Schedule
            # live per-step budget, visible to capacity-aware policies
            state.capacity = min(self.budget, Fraction(1))
        if obs is not None:
            obs.on_run_start(
                {
                    "layer": "simulator",
                    "backend": state.ctx.name,
                    "m": self.instance.m,
                    "n_jobs": self.instance.n,
                    "denominator_bits": 1,
                }
            )
        engine = self
        engine._capacity = Fraction(1)
        engine._aborted = {}
        events = list(self.fault_plan.events) if self.fault_plan else []
        cursor = [0]

        class _VettedPolicy:
            """Adapter: vet the wrapped policy's raw shares each step."""

            def decide(self, st: SchedulerState) -> StepDecision:
                while cursor[0] < len(events) and events[cursor[0]].t <= st.t:
                    ev = events[cursor[0]]
                    cursor[0] += 1
                    ok = engine._apply_fault(st, ev)
                    if obs is not None:
                        obs.on_fault(
                            ev,
                            {"t": st.t, "applied": ok, "layer": "simulator"},
                        )
                if not st.unfinished_count:
                    # an abort emptied the instance mid-decision; stop the
                    # loop without charging a phantom idle step
                    raise _AllJobsAborted
                st.capacity = min(engine.budget, engine._capacity)
                shares = engine._vet(st, engine.policy.decide(st))
                return StepDecision(shares=shares, case="simulated")

        with span(obs, "loop"):
            try:
                run_loop(
                    state,
                    _VettedPolicy(),
                    self.max_steps,
                    lambda: PolicyViolation(
                        f"no completion within max_steps={self.max_steps}"
                    ),
                    observer=obs,
                )
            except _AllJobsAborted:
                pass
        with span(obs, "emit"):
            schedule = Schedule(instance=self.instance)
            for shares, procs, count, _case, _window in state.trace:
                pieces = {
                    job_id: (procs[job_id], share)
                    for job_id, share in shares.items()
                }
                for _ in range(count):
                    schedule.append_step(pieces)
        if obs is not None:
            obs.on_run_end(
                state, {"layer": "simulator", "makespan": state.t}
            )
        return SimulationResult(
            schedule=schedule,
            completion_times=dict(state.completion_times),
            aborted=dict(self._aborted),
            stats=metrics,
        )

    # ------------------------------------------------------------------

    def _apply_fault(self, state: SchedulerState, ev) -> bool:
        """Apply one fault event to the live state; False if it is moot."""
        if ev.kind == "crash":
            if (
                ev.processor >= state.m
                or ev.processor in state._down_processors
            ):
                return False
            state.set_processor_down(ev.processor)
            return True
        if ev.kind == "restore":
            if ev.processor not in state._down_processors:
                return False
            state.set_processor_up(ev.processor)
            return True
        if ev.kind == "dip":
            if ev.capacity == self._capacity:
                return False
            self._capacity = ev.capacity
            return True
        # abort
        if ev.job not in state.remaining or state.is_finished(ev.job):
            return False
        state.force_finish(ev.job)
        self._aborted[ev.job] = state.t
        return True

    def _vet(
        self, state: SchedulerState, raw: Dict[int, Fraction]
    ) -> Dict[int, Fraction]:
        step = state.t + 1
        budget = min(self.budget, self._capacity)
        shares: Dict[int, Fraction] = {}
        total = Fraction(0)
        for job_id, share in raw.items():
            if job_id not in state.remaining:
                raise PolicyViolation(
                    f"step {step}: unknown job id {job_id}"
                )
            if share < 0:
                raise PolicyViolation(
                    f"step {step}: negative share {share} for job {job_id}"
                )
            if share == 0:
                continue
            if state.is_finished(job_id):
                raise PolicyViolation(
                    f"step {step}: policy scheduled finished job {job_id}"
                    f" (share {share})"
                )
            capped = min(
                share,
                state.instance.requirement(job_id),
                state.remaining[job_id],
            )
            if capped <= 0:
                continue
            shares[job_id] = capped
            total += capped
        if total > budget:
            raise PolicyViolation(
                f"step {step}: resource overuse: total share {total}"
                f" exceeds budget {budget}"
            )
        online = state.available_processors()
        if len(shares) > online:
            raise PolicyViolation(
                f"step {step}: {len(shares)} concurrent jobs exceed the"
                f" {online} online processor(s) (m={self.instance.m})"
            )
        started = state.started_jobs()
        missing = [j for j in started if j not in shares]
        # under faults, non-preemption bends exactly as far as the machine
        # forces it: a started job may be dropped only when every online
        # processor is taken by another started job
        if missing and len(started) - len(missing) < min(
            len(started), online
        ):
            raise PolicyViolation(
                f"step {step}: started job {missing[0]} starved"
                " (non-preemption violated)"
            )
        return shares


class _AllJobsAborted(Exception):
    """Internal control flow: every remaining job was abort-cancelled."""

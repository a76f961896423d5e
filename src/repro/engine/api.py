"""Engine entry points: build a backend context + policy + state, run the
loop, emit results.

SRJ runs read their requirements off the instance's integers at ``L``.
SRJ and SRT runs leave their trace as integer shares at the run's scale
(the :class:`~repro.engine.trace.TraceRun` form, exact Fractions built on
read).  The other layers' results are converted back to exact values
here; the front-end modules (``repro.core``,
``repro.tasks``, ``repro.online``, ``repro.assigned``) delegate here and
only adapt their own model types.  To avoid import cycles this module
never imports those front-ends — instance/task objects are consumed
duck-typed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..numeric import ceil_div
from ..obs import setup_observer, span
from .backends import lcm_denominator, make_context, resolve_backend
from .loop import StepDecision, run_loop
from .policies import (
    AssignedQueuePolicy,
    OnlineListPolicy,
    OnlineWindowPolicy,
    SequentialTaskPolicy,
    SlidingWindowPolicy,
    UnitWindowPolicy,
)
from .state import EngineState
from .trace import SRJResult, TraceRun

__all__ = [
    "solve_srj",
    "run_serial",
    "run_unit",
    "unit_makespan",
    "run_sequential_tasks",
    "run_online",
    "run_online_list",
    "run_assigned",
]


# ---------------------------------------------------------------------------
# Observability plumbing
# ---------------------------------------------------------------------------


def _run_meta(layer: str, ctx, m: int, n_jobs: int) -> Dict:
    """The ``on_run_start`` metadata for one engine run."""
    denominator = getattr(ctx, "denominator", 1)
    return {
        "layer": layer,
        "backend": ctx.name,
        "m": m,
        "n_jobs": n_jobs,
        "denominator_bits": denominator.bit_length(),
    }


class _SerialObsState:
    """Minimal state stand-in for the m = 1 serial path (no engine loop
    runs there), so observers see the same duck-typed surface."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.t = 0
        self.processor_of: Dict = {}


# ---------------------------------------------------------------------------
# Result emission
# ---------------------------------------------------------------------------


def _srj_state(
    backend: str, instance, budget: Fraction, **record: bool
) -> Tuple[int, EngineState]:
    """The scale step of a run over an :class:`Instance`: its scale
    ``D = lcm(L, den(budget))`` and a fresh state at ``D``, whose ``r_j``
    are read off the instance's integers at ``L``.  *record* goes to
    :class:`EngineState`."""
    scale = math.lcm(instance.scale, budget.denominator)
    ctx = make_context(backend, scale)
    req = ctx.from_units(instance.units, instance.scale)
    return scale, EngineState(
        instance.m,
        ctx,
        dict(enumerate(req)),
        {job.id: job.size * r for job, r in zip(instance.jobs, req)},
        **record,
    )


def _trace_runs(state: EngineState, scale: int) -> List[TraceRun]:
    """The state's recorded rows as :class:`TraceRun` objects, their
    shares integers at the run's *scale* (on the int backend the engine's
    own share maps)."""
    as_units = state.ctx.as_units
    at_scale = TraceRun.at_scale
    return [
        at_scale(as_units(shares, scale), scale, procs, count, case, win)
        for shares, procs, count, case, win in state.trace
    ]


def _build_srj_result(instance, state: EngineState, scale: int) -> SRJResult:
    """Wrap a finished engine state in an :class:`SRJResult`; only the
    waste becomes a Fraction."""
    return SRJResult(
        instance=instance,
        makespan=state.t,
        completion_times=dict(state.completion_times),
        trace=_trace_runs(state, scale),
        steps_full_jobs=state.steps_full_jobs,
        steps_full_resource=state.steps_full_resource,
        total_waste=Fraction(state.ctx.to_fraction(state.waste_units)),
    )


# ---------------------------------------------------------------------------
# General SRJ — Listing 1
# ---------------------------------------------------------------------------


def solve_srj(
    instance,
    backend: str = "auto",
    accelerate: bool = True,
    window_size: Optional[int] = None,
    enable_move: bool = True,
    observer=None,
    collect_stats: bool = False,
    budget: Fraction = Fraction(1),
    step_limit: Optional[int] = None,
) -> SRJResult:
    """Run Listing 1 on *instance* with a selectable numeric backend.

    ``backend="fraction"`` runs the engine on exact rationals (the
    reference domain); ``backend="int"`` on LCM-rescaled integers
    (bit-for-bit identical results, typically an order of magnitude
    faster); ``backend="auto"`` picks the integer backend.

    *observer* receives the run's life-cycle events (see
    :mod:`repro.obs`); ``collect_stats=True`` additionally installs a
    :class:`~repro.obs.StatsObserver` and attaches its registry as
    ``result.stats``.

    *budget* is the per-step resource total (default the paper's
    ``R_total = 1``; the fault-tolerant runner passes degraded
    capacities).  *step_limit* truncates the run after that many steps —
    completion times of jobs still unfinished at the limit are simply
    absent from the result.
    """
    resolve_backend(backend)  # validate before any work
    if budget <= 0:
        raise ValueError("budget must be positive")
    if step_limit is not None and step_limit < 1:
        raise ValueError("step_limit must be >= 1")
    obs, metrics = setup_observer(observer, collect_stats)
    if instance.m == 1:
        result = run_serial(
            instance, observer=obs, budget=budget, step_limit=step_limit,
            backend=backend,
        )
        result.stats = metrics
        return result
    with span(obs, "scale"):
        scale, state = _srj_state(
            backend, instance, budget, record_trace=True
        )
        ctx = state.ctx
    if obs is not None:
        obs.on_run_start(_run_meta("srj", ctx, instance.m, instance.n))
    policy = SlidingWindowPolicy(
        budget=ctx.scale(budget),
        size=(
            window_size
            if window_size is not None
            else max(instance.m - 1, 1)
        ),
        enable_move=enable_move,
        accelerate=accelerate,
    )
    # upper bound on iterations: each trace run finishes a job or is
    # bounded by fracture-status changes; a generous cap catches
    # non-termination bugs instead of hanging.  With a degraded budget a
    # job may need ⌈s_j / min(r_j, budget)⌉ steps, so the non-accelerated
    # cap scales accordingly.
    if accelerate:
        max_iters = 16 * (instance.n + 4) * (instance.n + 4)
    else:
        total_steps = sum(
            ceil_div(job.total_requirement, min(job.requirement, budget))
            for job in instance.jobs
        )
        max_iters = 4 * total_steps * max(2, instance.n) + 64
    with span(obs, "loop"):
        run_loop(
            state,
            policy,
            max_iters,
            lambda: RuntimeError(
                "scheduler exceeded iteration cap — non-termination bug"
            ),
            observer=obs,
            step_limit=step_limit,
        )
    with span(obs, "emit"):
        result = _build_srj_result(instance, state, scale)
    if obs is not None:
        obs.on_run_end(state, _srj_summary("srj", result))
    result.stats = metrics
    return result


def _srj_summary(layer: str, result: SRJResult) -> Dict:
    """The ``on_run_end`` summary for entry points emitting SRJResults."""
    return {
        "layer": layer,
        "makespan": result.makespan,
        "trace_runs": len(result.trace),
        "steps_full_jobs": result.steps_full_jobs,
        "steps_full_resource": result.steps_full_resource,
        "total_waste": str(result.total_waste),
    }


def run_serial(
    instance,
    observer=None,
    budget: Fraction = Fraction(1),
    step_limit: Optional[int] = None,
    backend: str = "auto",
) -> SRJResult:
    """Trivial optimal scheduler for m = 1: run jobs one at a time, each
    receiving ``min(r_j, budget)`` per step.

    This path never enters the engine loop; when an *observer* is
    installed it receives one synthetic decision per emitted trace run,
    its shares in the working domain of *backend*'s context at the run's
    scale, so downstream telemetry (stats, JSONL traces) stays uniform.
    *step_limit* truncates the run exactly like the engine loop's bound.
    """
    result = SRJResult(instance=instance, makespan=0, completion_times={})
    # integers at the run's scale D = lcm(L, den(budget))
    scale = math.lcm(instance.scale, budget.denominator)
    obs_state = None
    if observer is not None:
        obs_state = _SerialObsState(make_context(backend, scale))
        observer.on_run_start(
            _run_meta("srj-serial", obs_state.ctx, instance.m, instance.n)
        )
    grow = scale // instance.scale
    cap = budget.numerator * (scale // budget.denominator)

    def emit(job_id: int, share: int, count: int) -> None:
        run = TraceRun.at_scale(
            {job_id: share}, scale, {job_id: 0}, count, "serial", [job_id]
        )
        result.trace.append(run)
        if obs_state is None:
            return
        obs_state.t += count
        obs_state.processor_of.update(run.processors)
        observer.on_decision(
            obs_state,
            StepDecision(
                shares={job_id: obs_state.ctx.from_units([share], scale)[0]},
                count=count,
                case=run.case,
                window=run.window,
                full_jobs_step=True,
            ),
        )

    t = 0
    for job, u in zip(instance.jobs, instance.units):
        if step_limit is not None and t >= step_limit:
            break
        share = min(u * grow, cap)
        need = job.size * u * grow
        steps = -(-need // share)
        if step_limit is not None and t + steps > step_limit:
            # truncated tail: the job keeps its full per-step share for the
            # remaining room and stays unfinished (no completion recorded)
            room = step_limit - t
            emit(job.id, share, room)
            t += room
            result.steps_full_jobs += room
            break
        full_steps = steps - 1
        if full_steps > 0:
            emit(job.id, share, full_steps)
        emit(job.id, need - full_steps * share, 1)
        t += steps
        result.completion_times[job.id] = t
        result.steps_full_jobs += steps
    result.makespan = t
    if obs_state is not None:
        observer.on_run_end(obs_state, _srj_summary("srj-serial", result))
    return result


# ---------------------------------------------------------------------------
# Unit-size variant
# ---------------------------------------------------------------------------


def run_unit(
    instance,
    backend: str = "auto",
    observer=None,
    collect_stats: bool = False,
) -> SRJResult:
    """Run the unit-size m-maximal-window algorithm on *instance* (all
    ``p_j = 1``; the front-end validates).

    ``observer=`` / ``collect_stats=`` as in :func:`solve_srj`.
    """
    resolve_backend(backend)
    obs, metrics = setup_observer(observer, collect_stats)
    with span(obs, "scale"):
        scale, state = _srj_state(
            backend, instance, Fraction(1), record_trace=True
        )
        ctx = state.ctx
    if obs is not None:
        obs.on_run_start(_run_meta("unit", ctx, instance.m, instance.n))
    # canonical ids are already in (value, id) order
    order = [(value, j) for j, value in state.req.items()]
    policy = UnitWindowPolicy(budget=ctx.scale(Fraction(1)), order=order)
    # every job needs at most a bulk run plus two finishing decisions
    with span(obs, "loop"):
        run_loop(
            state,
            policy,
            8 * instance.n + 32,
            lambda: RuntimeError(
                "unit scheduler exceeded iteration cap — non-termination bug"
            ),
            observer=obs,
        )
    with span(obs, "emit"):
        result = _build_srj_result(instance, state, scale)
    if obs is not None:
        obs.on_run_end(state, _srj_summary("unit", result))
    result.stats = metrics
    return result


def unit_makespan(
    requirements: Sequence[Fraction],
    m: int,
    budget: Fraction,
    backend: str = "auto",
) -> int:
    """Makespan of the unit-size algorithm over bare *requirements* (the
    Corollary-3.9 bin-packing view: each time step = one bin).

    Jobs are re-indexed by their rank in the sorted ``(value, input
    position)`` order, matching the canonical-id tie-breaking of
    :func:`run_unit`.  *requirements* and *budget* are positive rationals;
    no requirements take 0 steps.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if any(r <= 0 for r in requirements):
        raise ValueError("requirements must be positive")
    if not requirements:
        return 0
    ctx = make_context(backend, lcm_denominator(budget, requirements))
    ranked = sorted(
        (ctx.scale(r), i) for i, r in enumerate(requirements)
    )
    req = {rank: value for rank, (value, _i) in enumerate(ranked)}
    state = EngineState(m, ctx, req, req)
    policy = UnitWindowPolicy(
        budget=ctx.scale(budget),
        order=[(value, rank) for rank, value in req.items()],
    )
    run_loop(
        state,
        policy,
        8 * len(req) + 32,
        lambda: RuntimeError(
            "unit scheduler exceeded iteration cap — non-termination bug"
        ),
    )
    return state.t


# ---------------------------------------------------------------------------
# Sequential SRT engine — Listings 3 and 4
# ---------------------------------------------------------------------------


def run_sequential_tasks(
    tasks,
    m: int,
    budget: Fraction,
    record_steps: bool = True,
    backend: str = "auto",
    observer=None,
    step_limit: Optional[int] = None,
) -> Tuple[Dict, int, List[TraceRun]]:
    """Run the Listing-3/4 sequential engine over *tasks* in order.

    Returns ``(task_completion_times, makespan, trace)`` where *trace* is
    empty when ``record_steps`` is off and otherwise one :class:`TraceRun`
    per step: shares keyed by ``(task_id, job_index)`` at the run's scale,
    no processors and the ids of the tasks packed in the step as its
    window.  *observer* receives the run's
    life-cycle events (stats composition happens in the task front-end,
    which may share one observer across the heavy and light half-runs).
    *step_limit* truncates the run after that many steps; tasks still
    unfinished then have no completion time.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if step_limit is not None and step_limit < 1:
        raise ValueError("step_limit must be >= 1")
    resolve_backend(backend)
    obs, _ = setup_observer(observer)
    with span(obs, "scale"):
        all_reqs = [r for task in tasks for r in task.requirements]
        scale = lcm_denominator(budget, all_reqs)
        ctx = make_context(backend, scale)
        req = {
            (task.id, i): ctx.scale(r)
            for task in tasks
            for i, r in enumerate(task.requirements)
        }
        state = EngineState(m, ctx, req, req, record_trace=record_steps)
    if obs is not None:
        obs.on_run_start(_run_meta("sequential-tasks", ctx, m, len(req)))
    # each task's virtual order, sorted when the policy first reaches it
    orders = (
        sorted(
            (req[(task.id, i)], (task.id, i))
            for i in range(len(task.requirements))
        )
        for task in tasks
    )
    policy = SequentialTaskPolicy(
        budget=ctx.scale(budget),
        m=m,
        task_ids=[task.id for task in tasks],
        orders=orders,
    )
    guard_limit = 4 * len(req) + 16
    # a job can take many steps if its requirement exceeds the budget;
    # ⌊v/B⌋ on scaled values equals ⌊r/budget⌋ exactly, in both domains
    scaled_budget = policy.budget
    guard_limit += 4 * sum(
        max(v // scaled_budget, 1) for v in req.values()
    )
    with span(obs, "loop"):
        run_loop(
            state,
            policy,
            guard_limit,
            lambda: RuntimeError("sequential engine exceeded iteration cap"),
            observer=obs,
            step_limit=step_limit,
        )
    with span(obs, "emit"):
        trace = _trace_runs(state, scale) if record_steps else []
    if obs is not None:
        obs.on_run_end(
            state,
            {"layer": "sequential-tasks", "makespan": state.t,
             "tasks": len(policy.completion)},
        )
    return dict(policy.completion), state.t, trace


# ---------------------------------------------------------------------------
# Online layer
# ---------------------------------------------------------------------------


def _run_online_policy(
    offline, make_policy, layer: str, max_steps: int, backend: str, observer
) -> Tuple[int, Dict[int, int], List[Fraction]]:
    """Shared driver of the two online entry points."""
    resolve_backend(backend)
    obs, _ = setup_observer(observer)
    with span(obs, "scale"):
        _scale, state = _srj_state(
            backend, offline, Fraction(1), record_utilization=True
        )
    if obs is not None:
        obs.on_run_start(
            _run_meta(layer, state.ctx, offline.m, len(offline.jobs))
        )
    policy = make_policy(state)
    with span(obs, "loop"):
        run_loop(
            state,
            policy,
            max_steps,
            lambda: RuntimeError(f"{layer} scheduler exceeded max_steps"),
            observer=obs,
        )
    with span(obs, "emit"):
        conv = state.ctx.to_fraction
        utilization = [Fraction(conv(u)) for u in state.utilization]
    if obs is not None:
        obs.on_run_end(state, {"layer": layer, "makespan": state.t})
    return state.t, dict(state.completion_times), utilization


def run_online(
    offline,
    release_of: Dict[int, int],
    max_steps: int = 1_000_000,
    backend: str = "auto",
    observer=None,
) -> Tuple[int, Dict[int, int], List[Fraction]]:
    """Arrival-aware window algorithm over the canonical *offline*
    instance; ``release_of`` maps canonical job ids to release steps.

    Returns ``(makespan, completion_times, utilization)`` with canonical
    job ids (the front-end maps them back to online ids).
    """
    return _run_online_policy(
        offline,
        lambda state: OnlineWindowPolicy(
            budget=state.ctx.scale(Fraction(1)),
            size=max(offline.m - 1, 1),
            release_of=release_of,
        ),
        "online",
        max_steps,
        backend,
        observer,
    )


def run_online_list(
    offline,
    release_of: Dict[int, int],
    max_steps: int = 1_000_000,
    backend: str = "auto",
    observer=None,
) -> Tuple[int, Dict[int, int], List[Fraction]]:
    """Online list-scheduling baseline over the canonical *offline*
    instance (see :func:`run_online` for the return value)."""
    return _run_online_policy(
        offline,
        lambda state: OnlineListPolicy(
            budget=state.ctx.scale(Fraction(1)),
            m=offline.m,
            release_of=release_of,
        ),
        "online-list",
        max_steps,
        backend,
        observer,
    )


# ---------------------------------------------------------------------------
# Fixed-assignment layer
# ---------------------------------------------------------------------------


def run_assigned(
    instance,
    policy: str,
    budget: Fraction,
    max_steps: int = 10_000_000,
    backend: str = "auto",
    observer=None,
) -> Tuple[int, Dict, List[Fraction]]:
    """Run a head-of-queue distribution policy on an assigned instance.

    The ``proportional`` policy needs exact division (not closed over the
    scaled-integer lattice), so ``"auto"``/``"int"`` silently resolve to
    the exact context for it.
    """
    kind = resolve_backend(backend)
    if policy == "proportional":
        kind = "fraction"
    obs, _ = setup_observer(observer)
    with span(obs, "scale"):
        ctx = make_context(
            kind,
            lcm_denominator(budget, (j.requirement for j in instance.jobs())),
        )
        req = {j.key: ctx.scale(j.requirement) for j in instance.jobs()}
        totals = {j.key: j.size * req[j.key] for j in instance.jobs()}
        state = EngineState(
            instance.m, ctx, req, totals, record_utilization=True
        )
    if obs is not None:
        obs.on_run_start(
            _run_meta("assigned", ctx, instance.m, len(req))
        )
    queues = [[job.key for job in queue] for queue in instance.queues]
    engine_policy = AssignedQueuePolicy(
        budget=ctx.scale(budget), queues=queues, policy=policy
    )
    with span(obs, "loop"):
        run_loop(
            state,
            engine_policy,
            max_steps,
            lambda: RuntimeError("assigned scheduler exceeded max_steps"),
            observer=obs,
        )
    with span(obs, "emit"):
        conv = ctx.to_fraction
        utilization = [Fraction(conv(u)) for u in state.utilization]
    if obs is not None:
        obs.on_run_end(state, {"layer": "assigned", "makespan": state.t})
    return state.t, dict(state.completion_times), utilization

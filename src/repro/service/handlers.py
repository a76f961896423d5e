"""Worker-side request execution: pure, picklable, never raises.

:func:`execute_request` is the one function the daemon hands to its
:class:`repro.perf.WorkerPool` — a **module-level** callable
(the ``worker-safe`` lint contract) that runs inside a worker process.
Its contract is the heart of malformed-request isolation: whatever the
params contain, it returns a structured ``{"ok": ...}`` envelope and
never lets an exception escape into the pool.  Exceptions would otherwise
count as "deterministic failures" and propagate out of the pool's ``map``;
only *infrastructure* failures (a crashed worker, a deadline timeout) are
allowed to surface, because those are exactly what the daemon's
retry/deadline machinery handles.

Handlers are pure functions of their params (all randomness is seeded),
so a retried request — after a worker crash — computes bit-identical
results, and responses are independent of which worker served them.

Test-fault injection (``--allow-test-faults`` only): a ``_fault`` param
makes the worker crash, hang or error *deterministically*, so the smoke
battery (:mod:`repro.service.smoke`) can exercise the daemon's recovery
paths with faults derived from :mod:`repro.faults` seeds.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction
from typing import Dict, Optional

from .protocol import E_INTERNAL, E_INVALID_PARAMS, E_UNKNOWN_METHOD

__all__ = ["execute_request", "FAULT_KINDS"]

#: injectable worker faults (see module docstring; smoke/self-test only)
FAULT_KINDS = ("crash", "crash_once", "hang", "error")

#: exit status of a deliberately crashed worker (distinct from signals)
CRASH_EXIT_STATUS = 3


# ---------------------------------------------------------------------------
# Param helpers (raise ValueError -> invalid_params envelope)
# ---------------------------------------------------------------------------


def _require_int(params: Dict, key: str, default=None, low: int = 1) -> int:
    value = params.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValueError(f"param {key!r} must be an integer >= {low}")
    return value


def _build_instance(params: Dict):
    """The instance a request addresses: inline document or generated.

    ``instance={...}`` (the :mod:`repro.io` JSON format) wins; otherwise
    ``family``/``m``/``n``/``seed`` generate a workload exactly like the
    CLI does, so a service request and a local run agree bit-for-bit.
    """
    from ..io import instance_from_dict
    from ..workloads import make_instance

    doc = params.get("instance")
    if doc is not None:
        if not isinstance(doc, dict):
            raise ValueError("param 'instance' must be a JSON object")
        return instance_from_dict(doc)
    family = params.get("family", "uniform")
    if not isinstance(family, str):
        raise ValueError("param 'family' must be a string")
    m = _require_int(params, "m", default=8)
    n = _require_int(params, "n", default=50)
    seed = _require_int(params, "seed", default=0, low=0)
    rng = random.Random(seed)
    return make_instance(family, rng, m, n)


def _build_fault_plan(params: Dict, m: int, n_jobs: int):
    """Optional fault plan: inline ``fault_plan`` doc or ``fault_seed``."""
    from ..faults import FaultPlan

    doc = params.get("fault_plan")
    if doc is not None:
        if not isinstance(doc, dict):
            raise ValueError("param 'fault_plan' must be a JSON object")
        return FaultPlan.from_jsonable(doc)
    seed = params.get("fault_seed")
    if seed is None:
        return None
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("param 'fault_seed' must be an integer")
    return FaultPlan.random(
        seed,
        m=m,
        n_jobs=n_jobs,
        horizon=_require_int(params, "fault_horizon", default=100),
        events=_require_int(params, "fault_events", default=6, low=0),
    )


def _backend(params: Dict) -> str:
    from ..engine import BACKENDS

    backend = params.get("backend", "auto")
    if backend not in BACKENDS:
        raise ValueError(
            f"param 'backend' must be one of {sorted(BACKENDS)}"
        )
    return backend


def _completion_times(result) -> Dict[str, int]:
    return {str(j): t for j, t in sorted(result.completion_times.items())}


# ---------------------------------------------------------------------------
# Method handlers
# ---------------------------------------------------------------------------


def _handle_solve(params: Dict) -> Dict:
    """Listing-1 solve (or fault-injected run) of one instance."""
    from ..core.bounds import makespan_lower_bound
    from ..engine.api import solve_srj

    instance = _build_instance(params)
    backend = _backend(params)
    plan = _build_fault_plan(params, instance.m, instance.n)
    if plan is not None:
        from ..faults import run_with_faults, validate_faulted

        result = run_with_faults(instance, plan, backend=backend)
        report = validate_faulted(result)
        return {
            "m": instance.m,
            "n": instance.n,
            "backend": backend,
            "makespan": result.makespan,
            "fault_free_makespan": result.fault_free_makespan,
            "degradation": (
                None if result.degradation is None
                else str(result.degradation)
            ),
            "events_applied": result.n_applied(),
            "events_planned": len(result.plan),
            "aborted": sorted(result.aborted),
            "valid": report.ok,
            "violations": list(report.violations[:20]),
        }
    result = solve_srj(instance, backend=backend)
    lb = makespan_lower_bound(instance)
    return {
        "m": instance.m,
        "n": instance.n,
        "backend": backend,
        "makespan": result.makespan,
        "lower_bound": str(lb),
        "ratio": float(Fraction(result.makespan) / lb) if lb else None,
        "steps_full_jobs": result.steps_full_jobs,
        "steps_full_resource": result.steps_full_resource,
        "total_waste": str(result.total_waste),
        "completion_times": _completion_times(result),
    }


def _handle_simulate(params: Dict) -> Dict:
    """Step-wise simulator run under a built-in policy (+ optional faults)."""
    from ..simulator import (
        GreedyFillPolicy,
        ListSchedulingPolicy,
        SimulationEngine,
        SlidingWindowPolicy,
    )

    policies = {
        "window": SlidingWindowPolicy,
        "list": ListSchedulingPolicy,
        "greedy": GreedyFillPolicy,
    }
    name = params.get("policy", "window")
    if name not in policies:
        raise ValueError(
            f"param 'policy' must be one of {sorted(policies)}"
        )
    instance = _build_instance(params)
    plan = _build_fault_plan(params, instance.m, instance.n)
    engine = SimulationEngine(
        instance, policies[name](), fault_plan=plan
    )
    result = engine.run()
    return {
        "m": instance.m,
        "n": instance.n,
        "policy": name,
        "makespan": result.makespan,
        "completion_times": _completion_times(result),
        "aborted": {str(j): t for j, t in sorted(result.aborted.items())},
    }


def _handle_stats(params: Dict) -> Dict:
    """Solve with telemetry: metrics registry + validity cross-check."""
    from ..core.validate import validate_result
    from ..engine.api import solve_srj
    from ..obs import StatsObserver

    instance = _build_instance(params)
    backend = _backend(params)
    result = solve_srj(instance, backend=backend, collect_stats=True)
    metrics = result.stats
    report = validate_result(result, observer=StatsObserver(metrics))
    return {
        "m": instance.m,
        "n": instance.n,
        "backend": backend,
        "makespan": result.makespan,
        "valid": report.ok,
        "metrics": metrics.to_jsonable(),
    }


_HANDLERS = {
    "solve": _handle_solve,
    "simulate": _handle_simulate,
    "stats": _handle_stats,
}


# ---------------------------------------------------------------------------
# Test-fault injection
# ---------------------------------------------------------------------------


def _inject_fault(fault) -> None:
    """Apply one injected worker fault (smoke/self-test mode only)."""
    if not isinstance(fault, dict) or fault.get("kind") not in FAULT_KINDS:
        raise ValueError(
            f"param '_fault.kind' must be one of {list(FAULT_KINDS)}"
        )
    kind = fault["kind"]
    if kind == "crash":
        os._exit(CRASH_EXIT_STATUS)
    if kind == "crash_once":
        # crash only while the token file is absent: the retried attempt
        # (fresh worker) finds the token and proceeds -> demonstrates
        # single-request re-run recovery
        token = fault.get("token")
        if not isinstance(token, str) or not token:
            raise ValueError("param '_fault.token' must be a file path")
        try:
            fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        os._exit(CRASH_EXIT_STATUS)
    if kind == "hang":
        seconds = fault.get("seconds", 30.0)
        if not isinstance(seconds, (int, float)) or seconds < 0:
            raise ValueError("param '_fault.seconds' must be >= 0")
        time.sleep(float(seconds))
        return
    # kind == "error": a handler bug stand-in -> structured E_INTERNAL
    raise RuntimeError("injected handler error (_fault kind 'error')")


# ---------------------------------------------------------------------------
# The pool entry point
# ---------------------------------------------------------------------------


def _error_envelope(code: str, message: str) -> Dict:
    return {"ok": False, "error": {"code": code, "message": message}}


def execute_request(task: Dict) -> Dict:
    """Run one request in a worker process; always returns an envelope.

    *task* carries ``method``, ``params`` and ``allow_faults``.  Returns
    ``{"ok": True, "result": ...}`` or ``{"ok": False, "error": {...}}``
    — parameter problems map to ``invalid_params``, anything unexpected
    to ``internal``.  The only ways this function does *not* return are
    the infrastructure failures the daemon is built to absorb: the
    process dying or the deadline expiring.
    """
    method = task.get("method")
    params = task.get("params") or {}
    handler = _HANDLERS.get(method)
    if handler is None:
        return _error_envelope(
            E_UNKNOWN_METHOD, f"no worker handler for method {method!r}"
        )
    try:
        fault = params.get("_fault")
        if fault is not None:
            if not task.get("allow_faults"):
                raise ValueError(
                    "param '_fault' requires the daemon to run with "
                    "--allow-test-faults"
                )
            _inject_fault(fault)
        clean = {k: v for k, v in params.items() if k != "_fault"}
        return {"ok": True, "result": handler(clean)}
    except (ValueError, TypeError, KeyError) as exc:
        return _error_envelope(
            E_INVALID_PARAMS, f"{method}: {exc}"
        )
    except Exception as exc:  # noqa: BLE001 - the isolation contract
        return _error_envelope(
            E_INTERNAL, f"{method}: {type(exc).__name__}: {exc}"
        )

"""Structural rules: ``worker-safe`` and ``observer-threaded``.

``worker-safe`` guards the process-pool contract of
:func:`repro.perf.parallel.parallel_map`, the ``map`` method of a
:class:`~repro.perf.parallel.WorkerPool` and the sweep fabric's
``run_point`` (:mod:`repro.sweep.spec`): callables that fan out to worker
processes must be module-level functions — a lambda or a function defined
inside another function is not picklable, and the failure only surfaces
once the pool actually spawns (i.e. above the serial-fallback thresholds,
typically mid-sweep on a big run).  A ``.map`` call is a pool call when
its receiver was bound to ``WorkerPool(...)``/``open_pool(...)`` in the
same file (assignment or ``with ... as``), is such a call itself, or is a
parameter annotated with ``WorkerPool``; builtin ``map`` is not checked.

``observer-threaded`` enforces the telemetry contract from PR 3
(docs/OBSERVABILITY.md): every public ``solve_*``/``schedule_*`` entry
point in a scheduler layer accepts ``observer=`` and forwards it toward
the engine, so traces, stats and spans compose for every algorithm
without per-call-site plumbing.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .base import FileContext, Rule, register

__all__ = ["WorkerSafe", "ObserverThreaded"]

#: call targets whose FIRST positional argument fans out to workers
_FN_FIRST = frozenset({"parallel_map"})

#: calls that return a pool whose ``map`` method fans out to workers
_POOL_FACTORIES = frozenset({"WorkerPool", "open_pool"})

#: call targets whose SECOND positional argument is the ``run_point``
#: callable (``SweepSpec.from_points(name, run_point, ...)``)
_RUN_POINT_SECOND = frozenset({"from_points", "from_axes"})

#: keyword names that always denote a worker callable
_WORKER_KWARGS = frozenset({"run_point"})


def _call_name(func) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _makes_pool(node) -> bool:
    return (isinstance(node, ast.Call)
            and _call_name(node.func) in _POOL_FACTORIES)


def _pool_receivers(tree: ast.AST) -> Set[str]:
    """Source text of every expression bound to a pool in *tree*."""
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _makes_pool(node.value):
            bound.update(ast.unparse(t) for t in node.targets)
        elif isinstance(node, ast.AnnAssign) and _makes_pool(node.value):
            bound.add(ast.unparse(node.target))
        elif isinstance(node, ast.withitem) and _makes_pool(
            node.context_expr
        ) and node.optional_vars is not None:
            bound.add(ast.unparse(node.optional_vars))
        elif isinstance(node, ast.arg) and node.annotation is not None \
                and "WorkerPool" in ast.unparse(node.annotation):
            bound.add(node.arg)
    return bound


class _WorkerVisitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext, rule: str) -> None:
        self.ctx = ctx
        self.rule = rule
        #: names bound to lambdas at any level (never picklable)
        self.lambda_names: Set[str] = set()
        #: per-enclosing-function sets of locally-defined function names
        self.local_defs: List[Set[str]] = []
        #: receivers whose ``.map`` fans out to pool workers
        self.pools = _pool_receivers(ctx.tree)

    # -- scope bookkeeping ---------------------------------------------

    def _visit_funcdef(self, node) -> None:
        if self.local_defs:
            self.local_defs[-1].add(node.name)
        self.local_defs.append(set())
        self.generic_visit(node)
        self.local_defs.pop()

    visit_FunctionDef = _visit_funcdef
    visit_AsyncFunctionDef = _visit_funcdef

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.lambda_names.add(target.id)
        self.generic_visit(node)

    # -- call-site checks ----------------------------------------------

    def _check_callable(self, value, target: str) -> None:
        if isinstance(value, ast.Lambda):
            self.ctx.add(
                self.rule, value,
                f"lambda passed as worker callable to {target}() — "
                f"process pools need a picklable module-level function",
            )
            return
        if not isinstance(value, ast.Name):
            return
        if value.id in self.lambda_names:
            self.ctx.add(
                self.rule, value,
                f"{value.id!r} is a lambda passed as worker callable to "
                f"{target}() — process pools need a picklable "
                f"module-level function",
            )
            return
        if any(value.id in frame for frame in self.local_defs):
            self.ctx.add(
                self.rule, value,
                f"locally-defined function {value.id!r} passed as worker "
                f"callable to {target}() — process pools need a "
                f"picklable module-level function",
            )

    def _is_pool_map(self, func) -> bool:
        return (
            isinstance(func, ast.Attribute) and func.attr == "map"
            and (_makes_pool(func.value)
                 or ast.unparse(func.value) in self.pools)
        )

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        fn_first = name in _FN_FIRST or self._is_pool_map(node.func)
        if fn_first and node.args:
            self._check_callable(node.args[0], name)
        elif name in _RUN_POINT_SECOND and len(node.args) >= 2:
            self._check_callable(node.args[1], name)
        for kw in node.keywords:
            if kw.arg in _WORKER_KWARGS or (kw.arg == "fn" and fn_first):
                self._check_callable(kw.value, name or kw.arg)
        self.generic_visit(node)


@register
class WorkerSafe(Rule):
    """Worker callables must be module-level (picklable) functions."""

    name = "worker-safe"
    description = (
        "callables handed to parallel_map or a WorkerPool's map or used "
        "as a sweep's run_point must be module-level functions, not "
        "lambdas/closures (process pools pickle by qualified name)"
    )
    scope = ()  # every file — the contract binds call sites anywhere

    def check(self, ctx: FileContext) -> None:
        _WorkerVisitor(ctx, self.name).visit(ctx.tree)


def _param_names(args: ast.arguments) -> Set[str]:
    params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    return {a.arg for a in params}


def _loads_name(body, name: str) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
            ):
                return True
    return False


@register
class ObserverThreaded(Rule):
    """Public scheduler entry points must accept and forward ``observer=``."""

    name = "observer-threaded"
    description = (
        "public solve_*/schedule_* entry points in scheduler layers must "
        "accept observer= and forward it toward the engine "
        "(repro/obs telemetry contract)"
    )
    scope = (
        "repro/engine/api.py",
        "repro/core/scheduler.py",
        "repro/core/unit.py",
        "repro/core/preemptive.py",
        "repro/tasks/scheduler.py",
        "repro/tasks/baselines.py",
        "repro/online/scheduler.py",
        "repro/assigned/scheduler.py",
        "repro/baselines/runners.py",
        "repro/simulator/engine.py",
        "repro/extensions/",
    )

    def check(self, ctx: FileContext) -> None:
        for node in ctx.tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            name = node.name
            if name.startswith("_") or not (
                name.startswith("schedule_") or name.startswith("solve_")
            ):
                continue
            if "observer" not in _param_names(node.args):
                ctx.add(
                    self.name, node,
                    f"public scheduler entry point {name}() must accept "
                    f"observer= (repro/obs telemetry contract)",
                )
            elif not _loads_name(node.body, "observer"):
                ctx.add(
                    self.name, node,
                    f"{name}() accepts observer= but never forwards it "
                    f"toward the engine",
                )

"""Sharded, checkpointed, resumable execution of a :class:`SweepSpec`.

:func:`run_sweep` is the one engine behind every sweep in the repo:

1. **Lookup** — every selected point is checked against the
   content-addressed :class:`~repro.sweep.store.ResultStore`; cached rows
   are taken as-is (they were solved by the same pure function of the
   same parameters).
2. **Solve** — the remaining points fan out over one
   :class:`~repro.perf.parallel.WorkerPool` opened for the call (or run
   in-process when one worker is requested or fewer than four points
   remain), in batches of ``checkpoint_every``; after each batch every
   row is persisted, a heartbeat is appended and ``STATE.json`` is
   rewritten.  A killed sweep therefore resumes exactly
   where it stopped: at worst the in-flight batch is re-solved, and
   because points are pure, the re-solved rows are identical.
3. **Assemble** — rows are ordered by point index, so the merged report
   is bit-identical regardless of worker count, shard count, cache state
   or how many times the sweep was interrupted.

Sharding: ``shard=(i, k)`` runs the ``index % k == i`` residue class into
the shared store; a final unsharded run then completes with 100% cache
hits and assembles the full report.

Observability: pass ``observer=`` for ``sweep/lookup`` / ``sweep/solve``
phase spans and ``metrics=`` (or read ``report.metrics``) for the
``sweep.points_total`` / ``sweep.cache_hits`` / ``sweep.points_solved``
counters.  With a cache dir, **heartbeat** records go to
``HEARTBEAT.jsonl`` next to the cached rows: one at the start, one per
batch, one on interrupt and one at the end, each with the point counts,
the cache hits, the retry/timeout/lost-worker counters of the pool, the
throughput and an ETA — the live feed behind ``repro-sched sweep status
--follow`` (see :mod:`repro.obs.report`).
With ``spans=True`` the run additionally emits a hierarchical span trace
under ``<checkpoint>/spans/``: the sweep root, its lookup/solve phases,
one span per solved point (recorded by the pool worker that solved it)
and the engine phases inside each solve — all with deterministic
identities, so :func:`repro.obs.spans.merge_spans` folds the shards into
one rooted tree byte-identical across worker counts and shard layouts.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.observer import Observer, span
from ..obs.report import HEARTBEAT_NAME
from ..obs.spans import (
    DegradingJsonlWriter,
    SpanContext,
    activated,
    derive_span_id,
    derive_trace_id,
    shard_writer,
    write_span,
)
from ..perf.parallel import BACKOFF_BASE, auto_workers, open_pool
from .spec import SweepPoint, SweepSpec
from .store import NullStore, ResultStore

__all__ = ["SweepReport", "run_sweep", "sweep_status", "SPAN_DIR_NAME"]

#: persist results/state after this many newly solved points (default)
CHECKPOINT_EVERY = 8

#: span shards live in this subdirectory of the checkpoint directory
SPAN_DIR_NAME = "spans"


def _solve_task(task):
    """Module-level pool worker: ``(run_point, params[, span_task]) -> row``.

    With a *span_task* (the sweep runs with ``spans=True``) the worker
    activates a :class:`~repro.obs.spans.SpanContext` around the solve —
    so every engine entry point the pure ``run_point`` function calls
    composes a span observer via ``setup_observer`` and its phase spans
    nest under this point — then records the point span itself.  The
    point span is written only here, by whichever process actually
    solved the point, so each point appears exactly once in the shards
    no matter the worker count or shard layout.
    """
    fn, params, span_task = task if len(task) == 3 else (task[0], task[1], None)
    if span_task is None:
        return fn(dict(params))
    ctx = SpanContext(
        span_dir=span_task["dir"],
        trace_id=span_task["trace"],
        span_id=derive_span_id(span_task["trace"], "point", span_task["key"]),
    )
    t0 = time.perf_counter()
    with activated(ctx):
        row = fn(dict(params))
    write_span(
        shard_writer(ctx.span_dir),
        trace_id=ctx.trace_id,
        span_id=ctx.span_id,
        parent_id=span_task["parent"],
        name="point",
        seconds=time.perf_counter() - t0,
        attrs={"index": span_task["index"], "key": span_task["key"]},
    )
    return row


def _canonical_row(row):
    """Normalize a fresh row through a JSON round-trip so it is bit-equal
    to the same row read back from the cache (tuples become lists, …)."""
    return json.loads(json.dumps(row))


@dataclass
class SweepReport:
    """Outcome of one :func:`run_sweep` call."""

    name: str
    version: str
    total: int                    #: points selected (after sharding)
    rows: List                    #: one row per completed point, index order
    cache_hits: int
    solved: int
    complete: bool                #: every point of the *full* spec has a row
    shard: Optional[Tuple[int, int]] = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def to_jsonable(self) -> Dict:
        return {
            "sweep": self.name,
            "version": self.version,
            "total": self.total,
            "complete": self.complete,
            "shard": None if self.shard is None else list(self.shard),
            "cache": {"hits": self.cache_hits, "solved": self.solved},
            "rows": self.rows,
            "metrics": self.metrics.to_jsonable(),
        }


def _write_state(store, spec: SweepSpec, payload: Dict) -> None:
    """Atomically rewrite ``STATE.json`` next to the cached rows."""
    if store.dir is None:
        return
    path = store.dir / "STATE.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".STATE.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {"sweep": spec.name, "version": spec.version,
                 "spec_key": spec.spec_key, **payload},
                fh, indent=2,
            )
            fh.write("\n")
        os.replace(tmp, path)
    except OSError:
        pass


def run_sweep(
    spec: SweepSpec,
    *,
    cache_dir: Optional[str] = None,
    workers: Optional[int] = None,
    shard: Optional[Tuple[int, int]] = None,
    checkpoint_every: int = CHECKPOINT_EVERY,
    stop_after: Optional[int] = None,
    observer: Optional[Observer] = None,
    metrics: Optional[MetricsRegistry] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = BACKOFF_BASE,
    spans: bool = False,
) -> SweepReport:
    """Run *spec*, reusing every cached point; returns the ordered report.

    ``cache_dir=None`` disables persistence (pure fan-out, every point is
    solved).  ``stop_after=N`` solves at most *N* uncached points and then
    returns an incomplete report — the deterministic stand-in for a
    mid-sweep kill, used by the resume tests and ``make sweep-smoke``;
    re-running the same call *is* the resume.  ``timeout``/``retries``/
    ``backoff`` pass through to :meth:`~repro.perf.parallel.WorkerPool.map`
    (the ``sweep run --timeout/--retries/--backoff`` CLI flags land
    here); ``timeout`` bounds each point.
    ``spans=True`` (requires a cache dir) emits the hierarchical span
    trace described in the module docstring.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    selected = spec.select(shard)
    store = ResultStore(cache_dir, spec.name) if cache_dir else NullStore()
    if spans and store.dir is None:
        raise ValueError("spans=True requires a cache_dir (span shards "
                         "live in the checkpoint directory)")
    registry = metrics if metrics is not None else MetricsRegistry()
    heartbeat = (
        DegradingJsonlWriter(store.dir / HEARTBEAT_NAME, label="heartbeat")
        if store.dir is not None else None
    )
    run_workers = 1 if spec.serial else workers
    effective_workers = 1 if spec.serial else auto_workers(workers)
    pool_stats: Dict[str, int] = {}
    t_sweep = time.perf_counter()

    # --- span identities (all content-derived; no clock/pid/RNG) ---------
    span_dir: Optional[Path] = None
    trace_id = root_id = lookup_id = solve_id = ""
    if spans:
        span_dir = store.dir / SPAN_DIR_NAME
        trace_id = derive_trace_id(spec.name, spec.version, spec.spec_key)
        root_id = derive_span_id(trace_id, "sweep")
        lookup_id = derive_span_id(trace_id, "sweep/lookup")
        solve_id = derive_span_id(trace_id, "sweep/solve")

    def _beat(event: str, **extra) -> None:
        if heartbeat is None:
            return
        elapsed = time.perf_counter() - t_sweep
        record: Dict = {
            "ts": round(time.time(), 3),
            "pid": os.getpid(),
            "shard": None if shard is None else list(shard),
            "event": event,
            "done": len(rows),
            "selected": len(selected),
            "total": len(spec.points),
            "cache_hits": hits,
            "solved": solved,
            "elapsed_s": round(elapsed, 3),
            "workers": effective_workers,
        }
        if solved and elapsed > 0:
            throughput = solved / elapsed
            record["throughput"] = round(throughput, 3)
            remaining = max(len(to_run) - solved, 0)
            record["eta_s"] = round(remaining / throughput, 3)
        for counter in ("retries", "timeouts", "broken_pools"):
            record[counter] = pool_stats.get(counter, 0)
        record.update(extra)
        heartbeat.write(record)

    rows: Dict[int, object] = {}
    misses: List[SweepPoint] = []
    hits = solved = 0
    to_run: List[SweepPoint] = []
    t0 = time.perf_counter()
    with span(observer, "sweep/lookup"):
        for point in selected:
            row = store.get(point.key)
            if row is None:
                misses.append(point)
            else:
                rows[point.index] = row
    lookup_s = time.perf_counter() - t0
    hits = len(rows)

    to_run = misses if stop_after is None else misses[: max(stop_after, 0)]
    _beat("start")

    def checkpoint() -> None:
        _write_state(store, spec, {
            "selected": len(selected),
            "done": len(rows),
            "cache_hits": hits,
            "solved": solved,
            "shard": None if shard is None else list(shard),
            "complete": len(rows) == len(spec.points),
        })

    def make_task(point: SweepPoint):
        if span_dir is None:
            return (spec.run_point, point.params, None)
        return (spec.run_point, point.params, {
            "dir": str(span_dir),
            "trace": trace_id,
            "parent": solve_id,
            "key": point.key,
            "index": point.index,
        })

    t_solve = time.perf_counter()
    try:
        with span(observer, "sweep/solve"), \
                open_pool(len(to_run), run_workers) as pool:
            for start in range(0, len(to_run), checkpoint_every):
                batch = to_run[start : start + checkpoint_every]
                out = pool.map(
                    _solve_task,
                    [make_task(p) for p in batch],
                    timeout=timeout,
                    retries=retries,
                    backoff=backoff,
                    stats=pool_stats,
                )
                for point, row in zip(batch, out):
                    row = _canonical_row(row)
                    store.put(point.key, point.params, row)
                    rows[point.index] = row
                    solved += 1
                checkpoint()
                _beat("beat")
    except KeyboardInterrupt:
        checkpoint()
        _beat("interrupted")
        raise
    finally:
        # the coordinator's own spans: written even on interrupt, so a
        # partial shard set still merges to a rooted tree; identities are
        # layout-independent, so re-runs dedup to the same records
        if span_dir is not None:
            writer = shard_writer(span_dir)
            write_span(writer, trace_id, lookup_id, root_id,
                       "sweep/lookup", seconds=lookup_s)
            write_span(writer, trace_id, solve_id, root_id, "sweep/solve",
                       seconds=time.perf_counter() - t_solve)
            write_span(
                writer, trace_id, root_id, None, "sweep",
                seconds=time.perf_counter() - t_sweep,
                attrs={"spec_key": spec.spec_key, "sweep": spec.name,
                       "version": spec.version},
            )

    complete = len(rows) == len(spec.points)
    registry.inc("sweep.points_total", len(selected))
    registry.inc("sweep.cache_hits", hits)
    registry.inc("sweep.points_solved", solved)
    for counter, value in sorted(pool_stats.items()):
        if value:
            registry.inc(f"sweep.{counter}", value)
    checkpoint()
    _beat("end", complete=complete)
    ordered = [rows[p.index] for p in selected if p.index in rows]
    return SweepReport(
        name=spec.name,
        version=spec.version,
        total=len(selected),
        rows=ordered,
        cache_hits=hits,
        solved=solved,
        complete=complete,
        shard=shard,
        metrics=registry,
    )


def sweep_status(spec: SweepSpec, cache_dir: str) -> Dict:
    """Progress of *spec* against *cache_dir* without solving anything."""
    store = ResultStore(cache_dir, spec.name)
    cached = sum(1 for p in spec.points if store.contains(p.key))
    status = {
        "sweep": spec.name,
        "version": spec.version,
        "spec_key": spec.spec_key,
        "total": len(spec.points),
        "cached": cached,
        "complete": cached == len(spec.points),
        "store_entries": store.count(),
    }
    state_path = store.dir / "STATE.json"
    if state_path.is_file():
        try:
            with open(state_path, "r", encoding="utf-8") as fh:
                status["last_state"] = json.load(fh)
        except (OSError, ValueError):
            pass
    return status

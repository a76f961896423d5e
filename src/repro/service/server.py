"""The scheduler-as-a-service daemon behind ``repro-sched serve``.

One asyncio event loop owns all connections and the admission queue;
actual scheduling work runs in worker *processes* of one long-lived
:class:`repro.perf.parallel.WorkerPool`, forked at start-up before any
dispatch thread exists.  ``--workers`` dispatch threads each check one
idle worker out per request, so a request never waits for a worker and
never pays a process start.  The layering mirrors Uberun's master/daemon
split: the event loop is the master (framing, admission, deadlines,
telemetry), the pool workers are the daemons that execute requests.

Robustness contract (gated by ``make serve-smoke``; docs/SERVICE.md):

* **Admission control** — the request queue is bounded; when it is full
  new work requests are *shed* immediately with an ``overloaded`` error
  carrying a ``retry_after_s`` hint, instead of building unbounded
  backlog.  Inline methods (``ping``/``status``/``sweep_status``) bypass
  the queue so the daemon stays observable under overload.
* **Deadlines** — each request may carry ``deadline_s``; the default
  applies otherwise.  A request still queued at its deadline is answered
  ``deadline_exceeded`` without running; every attempt of a running
  request is capped at the time left, and at the deadline its worker is
  killed and replaced, so the slot is reclaimed at once.  A request is
  never retried past its deadline.
* **Malformed-request isolation** — a bad frame answers with a
  structured error and the connection keeps serving (only corrupt
  headers/torn frames close it); bad params fail only that request.
* **Worker-crash recovery** — a died worker is replaced and its request
  re-run up to ``retries`` times within the deadline; if the crash
  persists the one affected request fails with ``worker_crashed``
  (retryable) while every other request proceeds.
* **Graceful drain** — on SIGTERM/SIGINT the daemon stops accepting,
  lets in-flight requests finish, answers queued-but-unstarted requests
  with ``shutting_down`` *and* checkpoints them to
  ``SERVICE_CHECKPOINT.jsonl`` (so a supervisor can resubmit), writes a
  final state file and exits 0.

Telemetry rides :mod:`repro.obs`: a :class:`~repro.obs.MetricsRegistry`
holds ``service.*`` counters (requests, sheds, deadline hits, crashes, a
latency histogram), heartbeat records stream to
``SERVICE_HEARTBEAT.jsonl`` via the shared degrading writer, and the
``status`` method returns the registry snapshot over the wire, with the
pool's started-worker count as the ``service.pool_workers_started``
gauge.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Set, Union

from ..obs.metrics import MetricsRegistry
from ..obs.spans import DegradingJsonlWriter
from ..perf.parallel import ParallelExecutionError, WorkerPool
from . import protocol as wire
from .handlers import execute_request

__all__ = [
    "ServiceConfig",
    "SchedulerService",
    "serve",
    "STATE_NAME",
    "HEARTBEAT_NAME",
    "CHECKPOINT_NAME",
    "LOG_NAME",
]

#: files the daemon maintains under its state directory
STATE_NAME = "SERVICE.json"
HEARTBEAT_NAME = "SERVICE_HEARTBEAT.jsonl"
CHECKPOINT_NAME = "SERVICE_CHECKPOINT.jsonl"
LOG_NAME = "SERVICE_LOG.jsonl"

#: fallback retry hint when no latency estimate exists yet (seconds)
_DEFAULT_RETRY_AFTER = 0.5


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 0                     #: 0 = ephemeral; see SERVICE.json
    state_dir: str = ".repro-service"
    workers: int = 2                  #: dispatch threads = pool workers
    queue_limit: int = 16             #: admission queue bound (shed above)
    default_deadline_s: float = 30.0  #: applied when a request has none
    timeout: Optional[float] = None   #: extra per-attempt cap (WorkerPool)
    retries: int = 1                  #: worker-crash re-runs per request
    backoff: float = 0.05             #: retry backoff base (WorkerPool)
    max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES
    allow_test_faults: bool = False   #: honor the _fault injection param
    heartbeat_interval_s: float = 2.0

    def validate(self) -> "ServiceConfig":
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue-limit must be >= 1")
        if self.default_deadline_s <= 0:
            raise ValueError("default-deadline must be > 0 seconds")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be > 0 seconds")
        if not (0 <= self.port < 65536):
            raise ValueError("port must be in [0, 65535] (0 = auto)")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0 seconds")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat-interval must be > 0 seconds")
        return self


@dataclass
class _Pending:
    """One admitted work request waiting for (or occupying) a slot."""

    request: wire.Request
    conn: "_Connection"
    t_admitted: float                 #: monotonic admission time
    deadline_s: float                 #: relative to admission


class _Connection:
    """Per-connection write side: one lock so pipelined responses from
    different dispatch slots never interleave mid-frame."""

    __slots__ = ("reader", "writer", "lock", "peer", "closed")

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if peer else "?"
        self.closed = False

    async def send(self, payload: Dict, max_bytes: int) -> bool:
        """Send one response frame; False when the peer is gone."""
        async with self.lock:
            if self.closed:
                return False
            try:
                await wire.write_frame(self.writer, payload, max_bytes)
                return True
            except (ConnectionError, OSError):
                self.closed = True
                return False


class SchedulerService:
    """The daemon: construct, then :meth:`run` (blocks until shutdown)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config.validate()
        self.metrics = MetricsRegistry()
        self.state_dir = Path(config.state_dir)
        self._heartbeat = DegradingJsonlWriter(
            self.state_dir / HEARTBEAT_NAME, label="service heartbeat"
        )
        self._log_writer = DegradingJsonlWriter(
            self.state_dir / LOG_NAME, label="service log"
        )
        self._checkpoint = DegradingJsonlWriter(
            self.state_dir / CHECKPOINT_NAME, label="service checkpoint"
        )
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue(
            maxsize=config.queue_limit
        )
        self._threads = ThreadPoolExecutor(
            max_workers=config.workers,
            thread_name_prefix="repro-service-dispatch",
        )
        self._pool: Optional[WorkerPool] = None
        self._connections: Set[_Connection] = set()
        self._shutdown = asyncio.Event()
        self._draining = False
        self._in_flight = 0
        self._t_started = time.monotonic()
        self._latency_ema: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._bound_port: Optional[int] = None

    # ------------------------------------------------------------------
    # Logging / telemetry
    # ------------------------------------------------------------------

    def _log(self, event: str, **fields) -> None:
        record = {"ts": round(time.time(), 3), "event": event, **fields}
        self._log_writer.write(record)
        print(
            f"[repro-sched serve] {event} "
            + " ".join(f"{k}={v}" for k, v in fields.items()),
            file=sys.stderr,
            flush=True,
        )

    def _beat(self, event: str = "beat", **extra) -> None:
        self.metrics.gauge_max(
            "service.queue_depth_max", self._queue.qsize()
        )
        self._heartbeat.write({
            "ts": round(time.time(), 3),
            "pid": os.getpid(),
            "event": event,
            "queue_depth": self._queue.qsize(),
            "in_flight": self._in_flight,
            "draining": self._draining,
            "uptime_s": round(time.monotonic() - self._t_started, 3),
            "requests_total": self.metrics.counter("service.requests_total"),
            "shed_total": self.metrics.counter("service.shed_total"),
            "deadline_exceeded": self.metrics.counter(
                "service.deadline_exceeded"
            ),
            "worker_crashes": self.metrics.counter("service.worker_crashes"),
            **extra,
        })

    def _write_state(self, status: str) -> None:
        try:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            tmp = self.state_dir / f".{STATE_NAME}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({
                    "status": status,
                    "host": self.config.host,
                    "port": self._bound_port,
                    "pid": os.getpid(),
                    "protocol": wire.PROTOCOL_VERSION,
                    "workers": self.config.workers,
                    "queue_limit": self.config.queue_limit,
                    "default_deadline_s": self.config.default_deadline_s,
                }, fh, indent=2)
                fh.write("\n")
            os.replace(tmp, self.state_dir / STATE_NAME)
        except OSError as exc:  # state file is advisory, never fatal
            self._log("state-write-failed", error=str(exc))

    def _retry_after(self) -> float:
        """Load-shedding hint: expected time for one slot to free up."""
        per_request = (
            self._latency_ema if self._latency_ema is not None
            else _DEFAULT_RETRY_AFTER
        )
        waiting = self._queue.qsize() + self._in_flight
        return round(
            max(per_request * (waiting + 1) / self.config.workers, 0.05), 3
        )

    def _observe_latency(self, seconds: float) -> None:
        self.metrics.observe("service.request_seconds", seconds)
        self._latency_ema = (
            seconds if self._latency_ema is None
            else 0.8 * self._latency_ema + 0.2 * seconds
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(self) -> int:
        """Serve until SIGTERM/SIGINT, then drain; returns the exit code."""
        # forked before any dispatch thread or client socket exists
        self._pool = WorkerPool(self.config.workers)
        try:
            return await self._serve()
        finally:
            self._threads.shutdown(wait=False, cancel_futures=True)
            self._pool.close()

    async def _serve(self) -> int:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._request_shutdown, sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix platforms fall back to KeyboardInterrupt
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or ()
        self._bound_port = sockets[0].getsockname()[1] if sockets else None
        self._write_state("serving")
        self._log(
            "listening", host=self.config.host, port=self._bound_port,
            workers=self.config.workers,
            queue_limit=self.config.queue_limit,
        )
        dispatchers = [
            asyncio.create_task(self._dispatch_loop(i))
            for i in range(self.config.workers)
        ]
        beat_task = asyncio.create_task(self._heartbeat_loop())
        self._beat("start")
        await self._shutdown.wait()
        return await self._drain(dispatchers, beat_task)

    def _request_shutdown(self, sig: Union[int, signal.Signals]) -> None:
        name = getattr(sig, "name", str(sig))
        if not self._draining:
            self._log("shutdown-requested", signal=name)
        self._draining = True
        self._shutdown.set()

    async def _drain(self, dispatchers, beat_task) -> int:
        """Finish in-flight work, checkpoint the rest, exit cleanly."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._write_state("draining")
        self._beat("draining")
        # dispatchers answer everything still queued with shutting_down
        # (checkpointing each request) because _draining is set; waiting
        # on join() therefore also waits for genuinely in-flight work
        await self._queue.join()
        for task in dispatchers:
            task.cancel()
        await asyncio.gather(*dispatchers, return_exceptions=True)
        beat_task.cancel()
        await asyncio.gather(beat_task, return_exceptions=True)
        for conn in list(self._connections):
            conn.closed = True
            try:
                conn.writer.close()
            except Exception:  # pragma: no cover - best-effort close
                pass
        self._beat("stop")
        self._write_state("stopped")
        self._log(
            "stopped",
            requests_total=self.metrics.counter("service.requests_total"),
            shed_total=self.metrics.counter("service.shed_total"),
            checkpointed=self.metrics.counter("service.checkpointed"),
        )
        return 0

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.heartbeat_interval_s)
            self._beat()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        self.metrics.inc("service.connections_total")
        try:
            await self._serve_connection(conn)
        finally:
            self._connections.discard(conn)
            conn.closed = True
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - best-effort close
                pass

    async def _serve_connection(self, conn: _Connection) -> None:
        """The frame loop: one bad frame never kills it (isolation)."""
        while not conn.closed:
            try:
                payload = await wire.read_frame(
                    conn.reader, self.config.max_frame_bytes
                )
            except wire.ProtocolError as exc:
                self.metrics.inc("service.malformed_total")
                self.metrics.inc(f"service.errors.{exc.code}")
                await conn.send(
                    wire.error_response(None, exc.code, exc.message),
                    self.config.max_frame_bytes,
                )
                if exc.fatal:
                    self._log(
                        "connection-desync", peer=conn.peer, code=exc.code
                    )
                    return
                continue
            except (ConnectionError, OSError):
                return
            if payload is None:  # clean EOF
                return
            await self._handle_payload(conn, payload)

    async def _handle_payload(self, conn: _Connection, payload: Dict) -> None:
        self.metrics.inc("service.requests_total")
        try:
            request = wire.validate_request(payload)
        except wire.ProtocolError as exc:
            self.metrics.inc(f"service.errors.{exc.code}")
            await conn.send(
                wire.error_response(
                    wire.salvage_id(payload), exc.code, exc.message
                ),
                self.config.max_frame_bytes,
            )
            return
        if request.method in wire.INLINE_METHODS:
            await self._answer_inline(conn, request)
            return
        if self._draining:
            self.metrics.inc(f"service.errors.{wire.E_SHUTTING_DOWN}")
            await conn.send(
                wire.error_response(
                    request.id, wire.E_SHUTTING_DOWN,
                    "daemon is draining; resubmit elsewhere or later",
                    retry_after_s=self._retry_after(),
                ),
                self.config.max_frame_bytes,
            )
            return
        deadline = (
            request.deadline_s if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        pending = _Pending(
            request=request, conn=conn,
            t_admitted=time.monotonic(), deadline_s=deadline,
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.metrics.inc("service.shed_total")
            self.metrics.inc(f"service.errors.{wire.E_OVERLOADED}")
            await conn.send(
                wire.error_response(
                    request.id, wire.E_OVERLOADED,
                    f"admission queue full "
                    f"({self.config.queue_limit} waiting)",
                    retry_after_s=self._retry_after(),
                ),
                self.config.max_frame_bytes,
            )

    # ------------------------------------------------------------------
    # Inline methods (served on the event loop, never queued)
    # ------------------------------------------------------------------

    async def _answer_inline(
        self, conn: _Connection, request: wire.Request
    ) -> None:
        self.metrics.inc("service.inline_total")
        try:
            if request.method == "ping":
                result: Dict = {
                    "pong": True,
                    "protocol": wire.PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    "draining": self._draining,
                }
            elif request.method == "status":
                result = self.status_snapshot()
            else:  # sweep_status
                result = self._sweep_status(request.params)
        except (ValueError, KeyError, TypeError) as exc:
            self.metrics.inc(f"service.errors.{wire.E_INVALID_PARAMS}")
            await conn.send(
                wire.error_response(
                    request.id, wire.E_INVALID_PARAMS,
                    f"{request.method}: {exc}",
                ),
                self.config.max_frame_bytes,
            )
            return
        self.metrics.inc("service.responses_ok")
        await conn.send(
            wire.ok_response(request.id, result), self.config.max_frame_bytes
        )

    def status_snapshot(self) -> Dict:
        if self._pool is not None:
            self.metrics.gauge_max(
                "service.pool_workers_started", self._pool.started
            )
        return {
            "protocol": wire.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self._t_started, 3),
            "draining": self._draining,
            "queue_depth": self._queue.qsize(),
            "in_flight": self._in_flight,
            "workers": self.config.workers,
            "queue_limit": self.config.queue_limit,
            "default_deadline_s": self.config.default_deadline_s,
            "metrics": self.metrics.to_jsonable(),
        }

    @staticmethod
    def _sweep_status(params: Dict) -> Dict:
        from ..sweep import DEFAULT_CACHE_DIR, sweep_status
        from ..sweep.registry import get_sweep

        name = params.get("name")
        if not isinstance(name, str):
            raise ValueError("param 'name' must be a sweep name")
        entry = get_sweep(name)
        scale = params.get("scale", "small")
        seed = params.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError("param 'seed' must be an integer")
        cache_dir = params.get("cache_dir", DEFAULT_CACHE_DIR)
        if not isinstance(cache_dir, str):
            raise ValueError("param 'cache_dir' must be a string")
        return sweep_status(entry.build_spec(scale, seed), cache_dir)

    # ------------------------------------------------------------------
    # Work dispatch (queue -> dispatch thread -> pool worker process)
    # ------------------------------------------------------------------

    async def _dispatch_loop(self, slot: int) -> None:
        while True:
            pending = await self._queue.get()
            try:
                await self._execute(slot, pending)
            except Exception as exc:  # pragma: no cover - last resort
                self._log(
                    "dispatch-error", slot=slot,
                    error=f"{type(exc).__name__}: {exc}",
                )
                await pending.conn.send(
                    wire.error_response(
                        pending.request.id, wire.E_INTERNAL,
                        f"dispatch failed: {type(exc).__name__}: {exc}",
                    ),
                    self.config.max_frame_bytes,
                )
            finally:
                self._queue.task_done()

    def _run_in_worker(
        self, task: Dict, deadline: float, stats: Dict[str, int]
    ) -> Dict:
        """Blocking (thread-side) bridge into the shared worker pool.

        Each dispatch thread holds at most one worker at a time and there
        are as many threads as workers, so a worker is always free here.
        """
        return self._pool.map(
            execute_request,
            [task],
            timeout=self.config.timeout,
            retries=self.config.retries,
            backoff=self.config.backoff,
            stats=stats,
            deadline=deadline,
        )[0]

    async def _execute(self, slot: int, pending: _Pending) -> None:
        request = pending.request
        conn = pending.conn
        max_bytes = self.config.max_frame_bytes
        if self._draining:
            # queued but never started: checkpoint for resubmission
            self._checkpoint.write({
                "ts": round(time.time(), 3),
                "id": request.id,
                "method": request.method,
                "params": request.params,
                "deadline_s": pending.deadline_s,
            })
            self.metrics.inc("service.checkpointed")
            self.metrics.inc(f"service.errors.{wire.E_SHUTTING_DOWN}")
            await conn.send(
                wire.error_response(
                    request.id, wire.E_SHUTTING_DOWN,
                    "daemon drained before this request started; it was "
                    "checkpointed to SERVICE_CHECKPOINT.jsonl",
                ),
                max_bytes,
            )
            return
        remaining = pending.deadline_s - (
            time.monotonic() - pending.t_admitted
        )
        if remaining <= 0:
            self.metrics.inc("service.deadline_exceeded")
            self.metrics.inc(f"service.errors.{wire.E_DEADLINE_EXCEEDED}")
            await conn.send(
                wire.error_response(
                    request.id, wire.E_DEADLINE_EXCEEDED,
                    f"deadline of {pending.deadline_s}s expired while "
                    f"queued",
                ),
                max_bytes,
            )
            return
        task = {
            "method": request.method,
            "params": request.params,
            "allow_faults": self.config.allow_test_faults,
        }
        self._in_flight += 1
        t0 = time.monotonic()
        loop = asyncio.get_running_loop()
        stats: Dict[str, int] = {}
        try:
            envelope = await loop.run_in_executor(
                self._threads, self._run_in_worker, task,
                pending.t_admitted + pending.deadline_s, stats,
            )
        except ParallelExecutionError as exc:
            elapsed = time.monotonic() - pending.t_admitted
            if elapsed >= pending.deadline_s:
                self.metrics.inc("service.deadline_exceeded")
                code, message = wire.E_DEADLINE_EXCEEDED, (
                    f"deadline of {pending.deadline_s}s exceeded; the "
                    f"worker was killed and replaced"
                )
                retry_after = None
            else:
                self.metrics.inc("service.worker_crashes")
                code, message = wire.E_WORKER_CRASHED, (
                    f"worker kept failing: {exc}"
                )
                retry_after = self._retry_after()
            self.metrics.inc(f"service.errors.{code}")
            self._log(
                "request-failed", slot=slot, id=str(request.id),
                method=request.method, code=code,
            )
            await conn.send(
                wire.error_response(
                    request.id, code, message, retry_after_s=retry_after
                ),
                max_bytes,
            )
            return
        finally:
            self._in_flight -= 1
            self._observe_latency(time.monotonic() - t0)
            for key, value in stats.items():
                self.metrics.inc(f"service.pool_{key}", value)
        if envelope.get("ok"):
            self.metrics.inc("service.responses_ok")
            response = wire.ok_response(request.id, envelope["result"])
        else:
            error = envelope.get("error") or {}
            code = error.get("code", wire.E_INTERNAL)
            self.metrics.inc("service.errors_total")
            self.metrics.inc(f"service.errors.{code}")
            response = wire.error_response(
                request.id, code, error.get("message", "request failed")
            )
        await conn.send(response, max_bytes)


def serve(config: ServiceConfig) -> int:
    """Run the daemon to completion (the ``repro-sched serve`` body)."""
    service = SchedulerService(config)
    try:
        return asyncio.run(service.run())
    except KeyboardInterrupt:  # pragma: no cover - non-unix fallback
        return 0

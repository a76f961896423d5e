"""``daemon_rpc``: the scheduler daemon, closed loop over 2 connections.

The daemon is ``python -m repro serve`` with its defaults (2 workers,
queue limit 16) and a state directory of the run's own.  One client
process opens 2 connections; each sends its next request when the answer
to the last one arrives, as ``repro-sched call`` callers do.  Requests
carry inline ``instance`` documents in a fixed cycle of 8: 5 × ``solve``
n = 100, 2 × ``solve`` n = 1000, 1 × ``stats`` n = 1000.

Today every request pays a worker process spawn
(``parallel_map(isolate=True)``), which dominates the round trip; the
n = 1000 and ``stats`` requests keep the engine, ``core.validate`` and
the framing visible.  ``perf.parallel`` is shared with ``sweep_srt``
(single-item isolated maps here, batched pools there).

Untraced requests go through :class:`repro.service.ServiceClient`.  The
traced run speaks the same protocol through :class:`FrameClient`, which
puts a span around the encode, the wait and the decode of each request.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import repro
from repro.io import instance_from_dict, instance_to_dict
from repro.obs import SpanContext, activated
from repro.obs.spans import iter_span_shards
from repro.perf import parallel_map, seed_for
from repro.service import ServiceClient
from repro.service import protocol as wire
from repro.service.handlers import execute_request
from repro.workloads import make_instance

from harness import Window, Workload, completion_digest, engine_metrics, per_op

CONNECTIONS = 2
M = 8
#: the request cycle: (method, family, n)
CYCLE = (
    [("solve", family, 100) for family in
     ("uniform", "bimodal", "heavy_tail", "correlated", "anti_correlated")]
    + [("solve", "uniform", 1000), ("solve", "bimodal", 1000),
       ("stats", "heavy_tail", 1000)]
)
#: cycles of requests run in-process and isolated by the traced run
PROBE_CYCLES = 2
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
TRANSPORT_ERRORS = (OSError, ValueError)


def make_requests(seed: int) -> List[Dict]:
    """The cycle of 8 requests of *seed*: method and params."""
    requests = []
    for i, (method, family, n) in enumerate(CYCLE):
        instance = make_instance(family, random.Random(seed_for(seed, i)),
                                 M, n)
        requests.append({
            "method": method,
            "params": {"instance": instance_to_dict(instance),
                       "backend": "int"},
        })
    return requests


class FrameClient:
    """One traced connection: the wire protocol with a span per phase.

    The encode, wait and decode spans share their boundary timestamps, so
    a thread that waits for the interpreter lock between two phases is
    charged to the next phase instead of falling between spans.
    """

    def __init__(self, host: str, port: int, tracer) -> None:
        self.sock = socket.create_connection((host, port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.tracer = tracer
        self.next_id = 0
        self.bytes_out = self.bytes_in = 0

    def _recv(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self.sock.recv(n)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def call(self, method: str, params: Dict) -> Dict:
        t0 = perf_counter()
        self.next_id += 1
        frame = wire.encode_frame(
            wire.make_request(self.next_id, method, params))
        t1 = perf_counter()
        self.sock.sendall(frame)
        (length,) = struct.unpack(">I", self._recv(wire.HEADER_SIZE))
        body = self._recv(length)
        t2 = perf_counter()
        response = wire.validate_response(wire.decode_payload(body))
        t3 = perf_counter()
        self.tracer.record("service.encode", t0, t1)
        self.tracer.record("service.rtt", t1, t2)
        self.tracer.record("service.decode", t2, t3)
        self.bytes_out += len(frame)
        self.bytes_in += wire.HEADER_SIZE + length
        return response

    def close(self) -> None:
        self.sock.close()
        self.tracer.count("service.bytes_out", self.bytes_out)
        self.tracer.count("service.bytes_in", self.bytes_in)


class DaemonRpc(Workload):
    name = "daemon_rpc"
    cycle = len(CYCLE)

    def prepare(self) -> None:
        self.requests = make_requests(self.seed)
        self.jobs = [len(r["params"]["instance"]["jobs"])
                     for r in self.requests]
        #: distinct answers seen per cycle slot; each must hold exactly
        #: the in-process answer at the end
        self.answers: Dict[int, set] = {i: set() for i in range(self.cycle)}
        self.lock = threading.Lock()
        self.state_dir = Path(self.workdir) / "service"
        self.proc: Optional[subprocess.Popen] = None
        self.server: Dict[str, float] = {}

    # -- daemon lifecycle -------------------------------------------------

    def boot(self) -> None:
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        self.log = open(Path(self.workdir) / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(self.state_dir)],
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log,
            env=env,
        )
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        state = {}
        while state.get("status") != "serving":
            if self.proc.poll() is not None or time.monotonic() > deadline:
                with open(self.log.name, "rb") as fh:
                    tail = fh.read()[-2000:].decode(errors="replace")
                raise RuntimeError(f"the daemon did not start:\n{tail}")
            time.sleep(0.005)
            try:
                with open(self.state_dir / "SERVICE.json") as fh:
                    state = json.load(fh)
            except (OSError, ValueError):
                state = {}
        self.address = (state["host"], state["port"])
        with ServiceClient(*self.address) as client:
            client.ping()

    def close(self) -> None:
        """SIGTERM drain: must exit 0 and checkpoint nothing."""
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        self.proc = None
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        self.log.close()
        self.expect(code == 0, f"daemon drain exited {code}")
        checkpoint = self.state_dir / "SERVICE_CHECKPOINT.jsonl"
        self.expect(not checkpoint.exists() or not checkpoint.read_text(),
                    "the drain checkpointed requests")

    def status(self) -> Dict:
        with ServiceClient(*self.address) as client:
            return client.status()["metrics"]

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon (the client's only child process)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- ops --------------------------------------------------------------

    def op(self, index: int, traced: bool, client=None):
        request = self.requests[index % self.cycle]
        if client is None:
            with ServiceClient(*self.address) as client:
                return client.call(request["method"], request["params"])
        if traced:
            with self.tracer.op(index):
                return client.call(request["method"], request["params"])
        return client.call(request["method"], request["params"])

    def verify(self, index: int, response) -> int:
        slot = index % self.cycle
        if not response["ok"]:
            raise RuntimeError(f"request {index}: {response['error']}")
        answer = self.answer(slot, response["result"])
        with self.lock:
            self.answers[slot].add(answer)
        return self.jobs[slot]

    def answer(self, slot: int, result: Dict) -> tuple:
        """The deterministic part of an answer (``stats`` answers also
        carry timings)."""
        if self.requests[slot]["method"] == "stats":
            return (result["makespan"], result["valid"])
        return (result["makespan"],
                tuple(completion_digest(result["completion_times"])))

    def window(self, seconds: float, traced: bool) -> Window:
        win = Window()
        if traced:
            before = self.status()
        t0 = perf_counter()

        def connection() -> None:
            client = None
            while perf_counter() - t0 < seconds:
                with self.lock:
                    index = self.next_index
                    self.next_index += 1
                    win.attempted += 1
                try:
                    if client is None:
                        client = (FrameClient(*self.address, self.tracer)
                                  if traced
                                  else ServiceClient(*self.address).connect())
                    t = perf_counter()
                    response = self.op(index, traced, client)
                    jobs = self.verify(index, response)
                except (*TRANSPORT_ERRORS, RuntimeError) as exc:
                    with self.lock:
                        win.failed += 1
                    print(f"daemon_rpc: request {index} failed: {exc}",
                          file=sys.stderr)
                    if client is not None:
                        client.close()
                        client = None
                    continue
                with self.lock:
                    win.latencies.append(perf_counter() - t)
                    win.jobs += jobs
            if client is not None:
                client.close()

        threads = [threading.Thread(target=connection)
                   for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        win.seconds = perf_counter() - t0
        if traced:
            after = self.status()
            self.server = _status_delta(before, after)
            self.probe_handlers()
        return win

    # -- traced-run measurements -----------------------------------------

    def probe_handlers(self) -> None:
        """Run a sample of the cycle's tasks in-process and isolated.

        In-process runs ``execute_request`` under an active span context,
        so the engine's phase spans land in a span shard; they are read
        back as children of the handler span.
        """
        tracer = self.tracer
        span_dir = Path(self.workdir) / "spans"
        handlers = []
        with tracer.span("probe"):
            for i in range(PROBE_CYCLES * self.cycle):
                request = self.requests[i % self.cycle]
                task = {"method": request["method"],
                        "params": request["params"], "allow_faults": False}
                ctx = SpanContext(span_dir=str(span_dir),
                                  trace_id="perfbench", span_id=f"task-{i}")
                with tracer.span("service.handler." + request["method"]) \
                        as handler:
                    with activated(ctx):
                        envelope = execute_request(task)
                handlers.append((handler, ctx.span_id))
                with tracer.span("service.isolate"):
                    isolated = parallel_map(execute_request, [task],
                                            workers=1, isolate=True)[0]
                slot = i % self.cycle
                self.expect(
                    isolated["ok"] and envelope["ok"]
                    and self.answer(slot, isolated["result"])
                    == self.answer(slot, envelope["result"]),
                    f"task {i}: isolated answer differs from in-process")
        phases: Dict[str, List[Dict]] = {}
        for record in iter_span_shards(span_dir):
            phases.setdefault(record["parent_id"], []).append(record)
        for handler, span_id in handlers:
            start = tracer.spans[handler].start
            for record in phases.get(span_id, ()):
                tracer.child_at(handler, "engine." + record["name"], start,
                                record["seconds"])
                start += record["seconds"]
                if record["name"] == "loop":
                    tracer.count("engine.calls")

    # -- checks -----------------------------------------------------------

    def check(self) -> None:
        """Every answer must equal an in-process solve of its instance."""
        for slot, request in enumerate(self.requests):
            instance = instance_from_dict(request["params"]["instance"])
            result = repro.solve_srj(instance, backend="int")
            with self.tracer.span("core.validate"):
                report = repro.validate_result(result)
            self.tracer.count("core.violations", len(report.violations))
            self.expect(report.ok, f"slot {slot}: in-process schedule "
                        "invalid")
            if request["method"] == "stats":
                expected = (result.makespan, True)
            else:
                expected = (result.makespan,
                            tuple(completion_digest(result.completion_times)))
            seen = self.answers[slot]
            self.expect(seen <= {expected},
                        f"slot {slot}: daemon answers {sorted(seen)[:3]} != "
                        f"in-process {expected}")

    def layer_metrics(self, window: Window) -> Dict[str, float]:
        tracer = self.tracer
        requests = window.attempted
        sample = PROBE_CYCLES * self.cycle
        methods = [r["method"] for r in self.requests] * PROBE_CYCLES
        rtt = per_op(tracer.total("service.rtt"), requests)
        server = self.server
        server_s = per_op(server["request_seconds"], server["requests"])
        handler_total = 0.0
        metrics = engine_metrics(tracer, sample)
        for method in sorted(set(methods)):
            total = tracer.total("service.handler." + method)
            handler_total += total
            metrics["service.handler_s." + method] = per_op(
                total, methods.count(method))
        isolate = per_op(tracer.total("service.isolate"), sample)
        metrics.update({
            "service.rtt_s": rtt,
            "service.encode_s": per_op(tracer.total("service.encode"),
                                       requests),
            "service.decode_s": per_op(tracer.total("service.decode"),
                                       requests),
            "service.bytes_out": per_op(tracer.counts["service.bytes_out"],
                                        requests),
            "service.bytes_in": per_op(tracer.counts["service.bytes_in"],
                                       requests),
            "service.server_s": server_s,
            "service.client_wait_s": rtt - server_s,
            "service.isolate_s": isolate,
            "service.dispatch_s": isolate - per_op(handler_total, sample),
            "service.requests": requests,
            "service.ok": requests - window.failed,
            "service.errors": window.failed,
            "service.shed": server["shed_total"],
            "service.deadline_exceeded": server["deadline_exceeded"],
            "service.worker_crashes": server["worker_crashes"],
            "service.queue_depth_max": server["queue_depth_max"],
            "perf.retries": server["pool_retries"],
            "perf.timeouts": server["pool_timeouts"],
            "perf.broken_pools": server["pool_broken_pools"],
        })
        return metrics


def _status_delta(before: Dict, after: Dict) -> Dict[str, float]:
    """What the daemon's ``status`` counters say about one window."""

    def counter(snapshot: Dict, name: str) -> float:
        return snapshot["counters"].get("service." + name, 0)

    def histogram(snapshot: Dict, field: str) -> float:
        hist = snapshot["histograms"].get("service.request_seconds", {})
        return hist.get(field, 0)

    delta = {
        name: counter(after, name) - counter(before, name)
        for name in ("shed_total", "deadline_exceeded", "worker_crashes",
                     "pool_retries", "pool_timeouts", "pool_broken_pools")
    }
    delta["request_seconds"] = (histogram(after, "total")
                                - histogram(before, "total"))
    delta["requests"] = histogram(after, "count") - histogram(before, "count")
    delta["queue_depth_max"] = after["gauges"].get(
        "service.queue_depth_max", 0)
    return delta

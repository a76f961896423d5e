"""Supervised serve-smoke battery (``make serve-smoke``).

Starts a real daemon as a subprocess, then attacks it the way the ISSUE's
acceptance criteria demand: concurrent well-formed requests, malformed
frames, injected worker crashes and hangs, deadline overruns, an
admission-queue flood, and finally a SIGTERM drain.  The invariant under
all of it: **every well-formed request gets either a correct result —
validated bit-identical to a direct in-process ``solve_srj`` call — or a
structured error response**, the connection loop survives bad frames,
and the daemon drains and exits 0.

The injected-fault phase replays a schedule derived from a seeded
:class:`repro.faults.FaultPlan` via :func:`repro.faults.injection_schedule`
(processor crash → worker crash, capacity dip → hanging worker, job
abort → malformed frame, restore → recovery probe), so the battery is
deterministic and its fault mix follows the paper's fault vocabulary.

Run directly::

    PYTHONPATH=src python -m repro.service.smoke [--dir .repro-service-smoke]

Exits 0 when every check passes; on failure prints the failed check and
the daemon's log tail, and exits 1.  The daemon's state directory (log,
heartbeat, checkpoint files) is left behind as the CI artifact.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict

from . import protocol as wire
from .client import RetryableServiceError, ServiceClient, ServiceError
from .server import CHECKPOINT_NAME, HEARTBEAT_NAME, LOG_NAME, STATE_NAME

__all__ = ["main", "run_battery"]

#: seed of the fault-plan-derived injection phase (any fixed value works;
#: chosen once so the battery replays the same mix forever)
SMOKE_SEED = 20170722

#: workload used by all correctness checks (small enough to solve in ms)
_WORKLOAD = {"family": "uniform", "m": 4, "n": 12, "seed": 3}


class SmokeFailure(AssertionError):
    """One battery check failed."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _note(message: str) -> None:
    print(f"serve-smoke: {message}", flush=True)


# ---------------------------------------------------------------------------
# Daemon supervision
# ---------------------------------------------------------------------------


class _Daemon:
    """The daemon under test, supervised as a subprocess."""

    def __init__(self, state_dir: Path, log_path: Path) -> None:
        self.state_dir = state_dir
        self.log_path = log_path
        self._log_fh = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--state-dir", str(state_dir),
                "--host", "127.0.0.1", "--port", "0",
                "--workers", "1", "--queue-limit", "1",
                "--default-deadline", "20",
                "--retries", "1", "--backoff", "0.05",
                "--allow-test-faults",
                "--heartbeat-interval", "0.5",
            ],
            stdout=self._log_fh,
            stderr=subprocess.STDOUT,
        )

    def wait_serving(self, timeout: float = 30.0) -> Dict:
        """Poll SERVICE.json until the daemon reports itself serving."""
        deadline = time.monotonic() + timeout
        path = self.state_dir / STATE_NAME
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise SmokeFailure(
                    f"daemon exited with status {self.proc.returncode} "
                    f"before serving (see {self.log_path})"
                )
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    state = json.load(fh)
                if state.get("status") == "serving" and state.get("port"):
                    return state
            except (OSError, ValueError):
                pass
            time.sleep(0.05)
        raise SmokeFailure(f"daemon did not start serving within {timeout}s")

    def sigterm(self) -> None:
        self.proc.send_signal(signal.SIGTERM)

    def wait_exit(self, timeout: float = 30.0) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise SmokeFailure(
                f"daemon did not exit within {timeout}s of SIGTERM"
            )

    def cleanup(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log_fh.close()

    def log_tail(self, lines: int = 40) -> str:
        self._log_fh.flush()
        try:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return "<no log>"
        return "\n".join(text.splitlines()[-lines:])


# ---------------------------------------------------------------------------
# Reference results (computed in-process, bit-identical contract)
# ---------------------------------------------------------------------------


def _direct_solve() -> Dict:
    """What the service *must* return for ``_WORKLOAD``: a direct
    ``solve_srj`` call on the identically generated instance."""
    from ..core.bounds import makespan_lower_bound
    from ..engine.api import solve_srj
    from ..workloads import make_instance

    rng = random.Random(_WORKLOAD["seed"])
    instance = make_instance(
        _WORKLOAD["family"], rng, _WORKLOAD["m"], _WORKLOAD["n"]
    )
    result = solve_srj(instance, backend="auto")
    lb = makespan_lower_bound(instance)
    return {
        "makespan": result.makespan,
        "lower_bound": str(lb),
        "ratio": float(Fraction(result.makespan) / lb) if lb else None,
        "total_waste": str(result.total_waste),
        "completion_times": {
            str(j): t for j, t in sorted(result.completion_times.items())
        },
    }


def _assert_solve_matches(result: Dict, reference: Dict, where: str) -> None:
    for key, want in reference.items():
        _check(
            result.get(key) == want,
            f"{where}: field {key!r} differs from the direct solve_srj "
            f"call: service={result.get(key)!r} direct={want!r}",
        )


# ---------------------------------------------------------------------------
# Battery phases
# ---------------------------------------------------------------------------


def _phase_basics(client: ServiceClient, reference: Dict) -> None:
    pong = client.ping()
    _check(pong.get("pong") is True, "ping did not pong")
    _check(
        pong.get("protocol") == wire.PROTOCOL_VERSION,
        f"daemon speaks protocol {pong.get('protocol')}, "
        f"expected {wire.PROTOCOL_VERSION}",
    )
    result = client.call_checked("solve", dict(_WORKLOAD))
    _assert_solve_matches(result, reference, "solve")
    sim = client.call_checked(
        "simulate", {**_WORKLOAD, "policy": "window"}
    )
    _check(
        isinstance(sim.get("makespan"), int) and sim["makespan"] > 0,
        "simulate returned no makespan",
    )
    stats = client.call_checked("stats", dict(_WORKLOAD))
    _check(stats.get("valid") is True, "stats validity cross-check failed")
    _check(
        stats.get("makespan") == reference["makespan"],
        "stats makespan differs from the direct solve",
    )
    status = client.status()
    _check(
        status.get("protocol") == wire.PROTOCOL_VERSION
        and isinstance(status.get("metrics"), dict),
        "status response lacks protocol/metrics",
    )
    _note("basics: ping/solve/simulate/stats OK (solve bit-identical)")


def _phase_malformed_isolation(host: str, port: int) -> None:
    """Bad frames must never kill the connection loop (non-fatal) and
    must close it cleanly on stream desync (fatal)."""
    with ServiceClient(host, port, timeout=30.0) as client:
        # complete frame, invalid JSON payload -> non-fatal error
        client.send_raw(len(b"{oops").to_bytes(4, "big") + b"{oops")
        resp = client.recv_response()
        _check(
            resp["ok"] is False
            and resp["error"]["code"] == wire.E_MALFORMED_FRAME,
            f"garbage payload answered {resp!r}, "
            f"expected {wire.E_MALFORMED_FRAME}",
        )
        # complete frame, JSON but not an object -> non-fatal error
        client.send_payload([1, 2, 3])  # type: ignore[arg-type]
        resp = client.recv_response()
        _check(
            resp["error"]["code"] == wire.E_MALFORMED_FRAME,
            "non-object payload not rejected as malformed_frame",
        )
        # schema violations -> structured per-request errors
        for payload, want in [
            ({"v": 99, "id": 1, "method": "ping"},
             wire.E_UNSUPPORTED_VERSION),
            ({"v": 1, "id": 2, "method": "warp"}, wire.E_UNKNOWN_METHOD),
            ({"v": 1, "id": 3, "method": "ping", "deadline_s": -1},
             wire.E_INVALID_REQUEST),
            ({"v": 1, "id": 4, "method": "solve",
              "params": {"backend": "quantum"}}, wire.E_INVALID_PARAMS),
        ]:
            client.send_payload(payload)
            resp = client.recv_response()
            _check(
                resp["ok"] is False and resp["error"]["code"] == want,
                f"payload {payload!r} answered "
                f"{resp.get('error', {}).get('code')!r}, expected {want!r}",
            )
        # ...and the very same connection still serves good requests
        pong = client.call_checked("ping")
        _check(
            pong.get("pong") is True,
            "connection did not survive the malformed frames",
        )
    # corrupt header (implausible length) -> fatal: error then close
    with ServiceClient(host, port, timeout=30.0) as client:
        client.send_raw(b"\xff\xff\xff\xff" + b"junk")
        resp = client.recv_response()
        _check(
            resp["error"]["code"] == wire.E_FRAME_TOO_LARGE,
            "corrupt header not rejected as frame_too_large",
        )
        try:
            client.call("ping")
        except (ConnectionError, OSError):
            pass
        else:
            raise SmokeFailure(
                "connection stayed open after an unsynchronizable header"
            )
    _note("malformed-request isolation: 6 bad frames, connection survived")


def _phase_crash_recovery(
    client: ServiceClient, state_dir: Path, reference: Dict
) -> None:
    # crash once: the worker dies mid-request, the retry succeeds and the
    # result must still be bit-identical to the direct call
    token = state_dir / "crash-once.token"
    result = client.call_checked(
        "solve",
        {**_WORKLOAD,
         "_fault": {"kind": "crash_once", "token": str(token)}},
    )
    _assert_solve_matches(result, reference, "solve after worker crash")
    _check(token.exists(), "crash_once fault did not actually fire")
    # persistent crash: retries exhausted -> structured retryable error
    try:
        client.call_checked("solve", {**_WORKLOAD, "_fault": {"kind": "crash"}})
    except RetryableServiceError as exc:
        _check(
            exc.code == wire.E_WORKER_CRASHED,
            f"persistent crash answered {exc.code!r}",
        )
    else:
        raise SmokeFailure("persistently crashing worker reported success")
    # the injected-handler-bug path: structured internal, not a hang/crash
    try:
        client.call_checked("solve", {**_WORKLOAD, "_fault": {"kind": "error"}})
    except ServiceError as exc:
        _check(exc.code == wire.E_INTERNAL,
               f"handler error answered {exc.code!r}")
    else:
        raise SmokeFailure("injected handler error reported success")
    _note("worker-crash recovery: re-run OK (bit-identical), "
          "persistent crash -> worker_crashed")


def _phase_deadline(client: ServiceClient, reference: Dict) -> None:
    t0 = time.monotonic()
    try:
        client.call_checked(
            "solve",
            {**_WORKLOAD, "_fault": {"kind": "hang", "seconds": 30}},
            deadline_s=1.0,
        )
    except ServiceError as exc:
        _check(
            exc.code == wire.E_DEADLINE_EXCEEDED,
            f"over-deadline request answered {exc.code!r}",
        )
    else:
        raise SmokeFailure("hung worker's request reported success")
    elapsed = time.monotonic() - t0
    _check(
        elapsed < 1.9,
        f"deadline response took {elapsed:.1f}s — worker not reclaimed "
        f"at the 1.0s deadline, or retried past it",
    )
    # the slot was reclaimed: the next request on the same connection works
    result = client.call_checked("solve", dict(_WORKLOAD))
    _assert_solve_matches(result, reference, "solve after deadline overrun")
    _note(f"deadlines: hung worker killed after {elapsed:.1f}s, "
          f"slot reclaimed")


def _phase_overload(host: str, port: int) -> None:
    """Fill the single worker slot and the length-1 queue, then watch the
    next request get shed with a retry hint."""
    hang = {**_WORKLOAD, "_fault": {"kind": "hang", "seconds": 1.2}}
    with ServiceClient(host, port, timeout=30.0) as busy, \
            ServiceClient(host, port, timeout=30.0) as queued, \
            ServiceClient(host, port, timeout=30.0) as shed:
        busy.send_payload(wire.make_request("busy", "solve", hang, 15.0))
        time.sleep(0.4)  # the dispatcher takes it; the slot is now busy
        queued.send_payload(wire.make_request("queued", "solve", hang, 15.0))
        time.sleep(0.2)  # it sits in the admission queue (depth 1 = full)
        shed_resp = shed.call("solve", dict(_WORKLOAD))
        _check(
            shed_resp["ok"] is False
            and shed_resp["error"]["code"] == wire.E_OVERLOADED,
            f"flood request answered {shed_resp!r}, expected overloaded",
        )
        retry_after = shed_resp["error"].get("retry_after_s")
        _check(
            isinstance(retry_after, (int, float)) and retry_after > 0,
            f"overloaded response carries no retry_after_s hint "
            f"({shed_resp['error']!r})",
        )
        # load-shedding protects, it does not corrupt: both admitted
        # requests still complete correctly
        for client, label in [(busy, "busy"), (queued, "queued")]:
            resp = wire.validate_response(client.recv_response())
            _check(
                resp["ok"] is True and resp["id"] == label,
                f"admitted request {label!r} failed under overload: {resp!r}",
            )
        # and a post-flood retry (honoring the hint) succeeds
        time.sleep(min(float(retry_after), 5.0))
        ok = shed.call_checked("ping")
        _check(ok.get("pong") is True, "daemon unreachable after the flood")
    _note(f"admission control: shed with retry_after_s={retry_after}, "
          f"admitted requests unharmed")


def _phase_fault_plan_battery(
    host: str, port: int, state_dir: Path, reference: Dict
) -> None:
    """Replay a FaultPlan-derived injection schedule; every well-formed
    request must end in a correct result or a structured error."""
    from ..faults import FaultPlan, injection_schedule

    plan = FaultPlan.random(
        SMOKE_SEED, m=4, n_jobs=_WORKLOAD["n"], horizon=50, events=6
    )
    schedule = injection_schedule(plan)
    _check(bool(schedule), "fault plan produced an empty schedule")
    outcomes = []
    with ServiceClient(host, port, timeout=60.0) as client:
        for i, injection in enumerate(schedule):
            kind = injection["kind"]
            if kind == "worker_crash":
                token = state_dir / f"plan-crash-{i}.token"
                result = client.call_checked(
                    "solve",
                    {**_WORKLOAD,
                     "_fault": {"kind": "crash_once", "token": str(token)}},
                )
                _assert_solve_matches(
                    result, reference, f"injection {i} (worker_crash)"
                )
            elif kind == "slow":
                try:
                    result = client.call_checked(
                        "solve",
                        {**_WORKLOAD,
                         "_fault": {"kind": "hang", "seconds": 0.3}},
                        deadline_s=10.0,
                    )
                    _assert_solve_matches(
                        result, reference, f"injection {i} (slow)"
                    )
                except ServiceError as exc:
                    _check(
                        exc.code in wire.ERROR_CODES,
                        f"injection {i}: unstructured error {exc.code!r}",
                    )
            elif kind == "malformed":
                client.send_raw(
                    len(b"\x00garbage").to_bytes(4, "big") + b"\x00garbage"
                )
                resp = client.recv_response()
                _check(
                    resp["error"]["code"] == wire.E_MALFORMED_FRAME,
                    f"injection {i}: malformed frame not isolated",
                )
            else:  # recover
                pong = client.call_checked("ping")
                _check(pong.get("pong") is True,
                       f"injection {i}: recovery probe failed")
            outcomes.append(kind)
    _note(f"fault-plan battery (seed {SMOKE_SEED}): "
          f"{', '.join(outcomes)} — all isolated")


def _phase_drain(daemon: _Daemon, host: str, port: int) -> None:
    """SIGTERM with one request in flight and one queued: the in-flight
    one finishes, the queued one is checkpointed, the daemon exits 0."""
    client = ServiceClient(host, port, timeout=30.0)
    client.connect()
    client.send_payload(wire.make_request(
        "inflight", "solve",
        {**_WORKLOAD, "_fault": {"kind": "hang", "seconds": 1.0}}, 15.0,
    ))
    time.sleep(0.4)  # dispatched: now in flight
    client.send_payload(
        wire.make_request("parked", "solve", dict(_WORKLOAD), 15.0)
    )
    time.sleep(0.2)  # parked in the admission queue
    daemon.sigterm()
    first = wire.validate_response(client.recv_response())
    _check(
        first["id"] == "inflight" and first["ok"] is True,
        f"in-flight request did not finish during drain: {first!r}",
    )
    second = wire.validate_response(client.recv_response())
    _check(
        second["id"] == "parked" and second["ok"] is False
        and second["error"]["code"] == wire.E_SHUTTING_DOWN,
        f"queued request not answered shutting_down: {second!r}",
    )
    client.close()
    status = daemon.wait_exit()
    _check(status == 0, f"daemon exited {status} after SIGTERM, expected 0")
    checkpoint = daemon.state_dir / CHECKPOINT_NAME
    _check(checkpoint.is_file(), "drain wrote no SERVICE_CHECKPOINT.jsonl")
    entries = [
        json.loads(line)
        for line in checkpoint.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    _check(
        any(e.get("id") == "parked" for e in entries),
        f"queued request missing from the drain checkpoint: {entries!r}",
    )
    with open(daemon.state_dir / STATE_NAME, "r", encoding="utf-8") as fh:
        final_state = json.load(fh)
    _check(
        final_state.get("status") == "stopped",
        f"final state is {final_state.get('status')!r}, expected 'stopped'",
    )
    _check(
        (daemon.state_dir / HEARTBEAT_NAME).is_file(),
        "daemon emitted no heartbeat file",
    )
    _note("graceful drain: in-flight finished, queued checkpointed, exit 0")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_battery(work_dir: Path) -> None:
    """The full battery against one supervised daemon; raises
    :class:`SmokeFailure` on the first violated invariant."""
    state_dir = work_dir / "daemon"
    daemon = _Daemon(state_dir, work_dir / "serve-smoke.log")
    try:
        state = daemon.wait_serving()
        host, port = state["host"], state["port"]
        _note(f"daemon up: pid {state['pid']} on {host}:{port}")
        reference = _direct_solve()
        with ServiceClient(host, port, timeout=60.0) as client:
            _phase_basics(client, reference)
        _phase_malformed_isolation(host, port)
        with ServiceClient(host, port, timeout=60.0) as client:
            _phase_crash_recovery(client, state_dir, reference)
            _phase_deadline(client, reference)
        _phase_overload(host, port)
        _phase_fault_plan_battery(host, port, state_dir, reference)
        _phase_drain(daemon, host, port)
        # post-mortem: the log artifact must carry the full story
        log = (state_dir / LOG_NAME)
        _check(log.is_file(), "daemon wrote no structured log")
    except SmokeFailure:
        print("--- daemon log tail ---", file=sys.stderr)
        print(daemon.log_tail(), file=sys.stderr)
        raise
    finally:
        daemon.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.smoke", description=__doc__
    )
    parser.add_argument(
        "--dir", default=".repro-service-smoke",
        help="working directory (wiped; left behind as the CI artifact)",
    )
    args = parser.parse_args(argv)
    work_dir = Path(args.dir)
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    t0 = time.monotonic()
    try:
        run_battery(work_dir)
    except SmokeFailure as exc:
        print(f"serve-smoke: FAIL: {exc}", file=sys.stderr)
        return 1
    _note(f"all phases passed in {time.monotonic() - t0:.1f}s "
          f"(artifacts in {work_dir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

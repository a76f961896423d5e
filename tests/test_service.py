"""Tests for the scheduler service (repro.service).

Protocol framing and validation are pure and tested directly; the
daemon's behavior under fire (crashes, hangs, floods, drain) lives in
the supervised ``make serve-smoke`` battery (repro.service.smoke) — here
a short-lived real daemon covers the request/response happy path, the
malformed-frame isolation contract, and the ``repro-sched call`` CLI.
"""

import json
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from repro.cli import main
from repro.service import protocol as wire
from repro.service import (
    RetryableServiceError,
    ServiceClient,
    ServiceError,
    ServiceConfig,
    locate_service,
)
from repro.service.handlers import execute_request
from repro.service.server import STATE_NAME


class TestFraming:
    def test_round_trip(self):
        payload = {"v": 1, "id": 7, "method": "ping"}
        frame = wire.encode_frame(payload)
        assert frame[: wire.HEADER_SIZE] == (
            len(frame) - wire.HEADER_SIZE
        ).to_bytes(4, "big")
        assert wire.decode_payload(frame[wire.HEADER_SIZE:]) == payload

    def test_encode_rejects_oversize(self):
        with pytest.raises(wire.ProtocolError) as exc_info:
            wire.encode_frame({"blob": "x" * 100}, max_bytes=32)
        assert exc_info.value.code == wire.E_FRAME_TOO_LARGE
        assert exc_info.value.fatal

    def test_decode_rejects_garbage(self):
        with pytest.raises(wire.ProtocolError) as exc_info:
            wire.decode_payload(b"\xff\xfe not json")
        assert exc_info.value.code == wire.E_MALFORMED_FRAME
        assert not exc_info.value.fatal  # frame was consumed exactly

    def test_decode_rejects_non_object(self):
        with pytest.raises(wire.ProtocolError) as exc_info:
            wire.decode_payload(b"[1, 2, 3]")
        assert exc_info.value.code == wire.E_MALFORMED_FRAME

    def test_error_response_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            wire.error_response(1, "made_up_code", "nope")

    def test_retryable_codes_are_error_codes(self):
        assert wire.RETRYABLE_CODES < wire.ERROR_CODES


class TestValidateRequest:
    def _req(self, **over):
        payload = {"v": 1, "id": 1, "method": "ping"}
        payload.update(over)
        return payload

    def test_good_request(self):
        req = wire.validate_request(
            self._req(params={"m": 4}, deadline_s=2)
        )
        assert req.method == "ping"
        assert req.params == {"m": 4}
        assert req.deadline_s == 2.0

    def test_missing_deadline_is_none(self):
        assert wire.validate_request(self._req()).deadline_s is None

    @pytest.mark.parametrize(
        "over, code",
        [
            ({"v": 99}, wire.E_UNSUPPORTED_VERSION),
            ({"id": None}, wire.E_INVALID_REQUEST),
            ({"id": True}, wire.E_INVALID_REQUEST),
            ({"method": 7}, wire.E_INVALID_REQUEST),
            ({"method": "quantum"}, wire.E_UNKNOWN_METHOD),
            ({"params": [1]}, wire.E_INVALID_PARAMS),
            ({"deadline_s": -1}, wire.E_INVALID_REQUEST),
            ({"deadline_s": "soon"}, wire.E_INVALID_REQUEST),
            ({"surprise": 1}, wire.E_INVALID_REQUEST),
        ],
    )
    def test_rejections(self, over, code):
        with pytest.raises(wire.ProtocolError) as exc_info:
            wire.validate_request(self._req(**over))
        assert exc_info.value.code == code
        assert not exc_info.value.fatal

    def test_salvage_id(self):
        assert wire.salvage_id({"id": 9}) == 9
        assert wire.salvage_id({"id": "r-1"}) == "r-1"
        assert wire.salvage_id({"id": [1]}) is None
        assert wire.salvage_id({}) is None


class TestExecuteRequestEnvelope:
    """The worker-side never-raises contract."""

    def test_solve_ok(self):
        out = execute_request({
            "method": "solve",
            "params": {"family": "uniform", "m": 4, "n": 8, "seed": 0},
        })
        assert out["ok"] and out["result"]["makespan"] > 0

    def test_bad_params_become_invalid_params(self):
        out = execute_request({
            "method": "solve", "params": {"backend": "quantum"},
        })
        assert not out["ok"]
        assert out["error"]["code"] == "invalid_params"

    def test_unknown_method_envelope(self):
        out = execute_request({"method": "transmogrify", "params": {}})
        assert not out["ok"]
        assert out["error"]["code"] == "unknown_method"

    def test_fault_param_needs_opt_in(self):
        out = execute_request({
            "method": "solve",
            "params": {"_fault": {"kind": "error"}},
            "allow_faults": False,
        })
        assert not out["ok"]
        assert out["error"]["code"] == "invalid_params"


class TestServiceConfig:
    def test_defaults_validate(self):
        ServiceConfig().validate()

    @pytest.mark.parametrize(
        "over",
        [
            {"workers": 0},
            {"queue_limit": -1},
            {"default_deadline_s": 0},
            {"retries": -1},
            {"port": 70000},
            {"heartbeat_interval_s": 0},
        ],
    )
    def test_bad_configs_rejected(self, over):
        with pytest.raises(ValueError):
            ServiceConfig(**over).validate()


class TestLocateService:
    def test_missing_state(self, tmp_path):
        with pytest.raises(ValueError, match="no service state"):
            locate_service(tmp_path)

    def test_corrupt_state(self, tmp_path):
        (tmp_path / STATE_NAME).write_text("{torn")
        with pytest.raises(ValueError, match="corrupt service state"):
            locate_service(tmp_path)

    def test_non_object_state(self, tmp_path):
        (tmp_path / STATE_NAME).write_text("[1]")
        with pytest.raises(ValueError, match="not a JSON object"):
            locate_service(tmp_path)

    def test_unusable_address(self, tmp_path):
        (tmp_path / STATE_NAME).write_text(
            json.dumps({"host": "127.0.0.1", "port": 0})
        )
        with pytest.raises(ValueError, match="host/port"):
            locate_service(tmp_path)

    def test_stopped_daemon(self, tmp_path):
        (tmp_path / STATE_NAME).write_text(json.dumps(
            {"host": "127.0.0.1", "port": 4242, "status": "stopped"}
        ))
        with pytest.raises(ValueError, match="stopped"):
            locate_service(tmp_path)


def _start_daemon(state_dir, *flags):
    """Boot ``repro serve`` in *state_dir*; returns ``(proc, state)``."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", str(state_dir), "--port", "0",
            "--heartbeat-interval", "0.5", *flags,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError("daemon exited during startup")
        try:
            return proc, locate_service(state_dir)
        except ValueError:
            time.sleep(0.05)
    proc.kill()
    proc.wait()
    raise RuntimeError("daemon never published its address")


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """A real short-lived daemon; torn down with a clean SIGTERM drain."""
    state_dir = tmp_path_factory.mktemp("svc")
    proc, state = _start_daemon(
        state_dir, "--workers", "1", "--queue-limit", "4",
        "--default-deadline", "30",
    )
    yield {"state_dir": state_dir, "state": state, "proc": proc}
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0  # graceful drain exits 0


class TestLiveDaemon:
    def test_ping_and_status(self, daemon):
        with ServiceClient.from_state_dir(daemon["state_dir"]) as client:
            pong = client.ping()
            assert pong["protocol"] == wire.PROTOCOL_VERSION
            status = client.status()
            assert status["draining"] is False
            assert status["queue_depth"] >= 0

    def test_solve_matches_direct_run(self, daemon):
        from repro.core.bounds import makespan_lower_bound
        from repro.engine.api import solve_srj
        from repro.workloads import make_instance

        inst = make_instance("uniform", random.Random(5), 4, 10)
        direct = solve_srj(inst, backend="auto")
        with ServiceClient.from_state_dir(daemon["state_dir"]) as client:
            result = client.call_checked("solve", {
                "family": "uniform", "m": 4, "n": 10, "seed": 5,
            })
        assert result["makespan"] == direct.makespan
        assert Fraction(result["lower_bound"]) == makespan_lower_bound(inst)
        assert Fraction(result["total_waste"]) == direct.total_waste

    def test_malformed_frames_do_not_kill_connection(self, daemon):
        with ServiceClient.from_state_dir(daemon["state_dir"]) as client:
            client.send_payload({"v": 1})  # invalid: no id/method
            response = client.recv_response()
            assert not response["ok"]
            assert response["error"]["code"] in (
                wire.E_INVALID_REQUEST, wire.E_UNSUPPORTED_VERSION,
            )
            client.send_payload({"v": 1, "id": 3, "method": "nope"})
            response = client.recv_response()
            assert response["id"] == 3
            assert response["error"]["code"] == wire.E_UNKNOWN_METHOD
            # the same connection still serves well-formed requests
            assert client.ping()["protocol"] == wire.PROTOCOL_VERSION

    def test_invalid_params_are_isolated(self, daemon):
        with ServiceClient.from_state_dir(daemon["state_dir"]) as client:
            with pytest.raises(ServiceError) as exc_info:
                client.call_checked("solve", {"backend": "quantum"})
            assert exc_info.value.code == wire.E_INVALID_PARAMS
            assert not isinstance(exc_info.value, RetryableServiceError)
            assert client.ping()["protocol"] == wire.PROTOCOL_VERSION

    def test_cli_call_round_trip(self, daemon, capsys):
        assert main([
            "call", "solve",
            "--state-dir", str(daemon["state_dir"]),
            "--params",
            '{"family": "uniform", "m": 4, "n": 10, "seed": 5}',
        ]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["m"] == 4 and result["makespan"] > 0

    def test_cli_call_structured_error_exit_1(self, daemon, capsys):
        assert main([
            "call", "solve",
            "--state-dir", str(daemon["state_dir"]),
            "--params", '{"backend": "quantum"}',
        ]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"]["code"] == wire.E_INVALID_PARAMS


class TestWorkerPoolReuse:
    """The daemon's one pool: workers are reused, lost ones replaced."""

    def test_workers_reused_and_reclaimed(self, tmp_path):
        from repro.engine.api import solve_srj
        from repro.workloads import make_instance

        proc, _ = _start_daemon(
            tmp_path, "--workers", "2", "--allow-test-faults",
            "--retries", "1", "--backoff", "0.05",
        )
        params = {"family": "uniform", "m": 4, "n": 10, "seed": 5}
        direct = solve_srj(
            make_instance("uniform", random.Random(5), 4, 10), backend="auto"
        )
        try:
            with ServiceClient.from_state_dir(tmp_path, timeout=10.0) \
                    as client:
                def started():
                    gauges = client.status()["metrics"]["gauges"]
                    return gauges["service.pool_workers_started"]

                assert started() == 2
                answers = [client.call_checked("solve", params)
                           for _ in range(20)]
                assert started() == 2
                crashed = client.call_checked("solve", {
                    **params,
                    "_fault": {"kind": "crash_once",
                               "token": str(tmp_path / "crash.token")},
                })
                assert (tmp_path / "crash.token").exists()
                assert all(answer == crashed for answer in answers)
                assert crashed["makespan"] == direct.makespan
                assert Fraction(crashed["total_waste"]) == direct.total_waste
                assert crashed["completion_times"] == {
                    str(j): t
                    for j, t in sorted(direct.completion_times.items())
                }
                assert started() == 3
                t0 = time.monotonic()
                with pytest.raises(ServiceError) as exc_info:
                    client.call_checked(
                        "solve",
                        {**params, "_fault": {"kind": "hang",
                                              "seconds": 60}},
                        deadline_s=1.0,
                    )
                assert exc_info.value.code == wire.E_DEADLINE_EXCEEDED
                assert time.monotonic() - t0 < 1.9  # no retry past it
                assert started() == 4
                # the replacements hold no copy of this connection: when
                # the daemon drops it after a fatal frame, the peer sees EOF
                client.send_raw((2 ** 31).to_bytes(4, "big"))
                assert client.recv_response()["error"]["code"] == (
                    wire.E_FRAME_TOO_LARGE
                )
                with pytest.raises(ConnectionError):
                    client.recv_response()
        finally:
            t0 = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            try:
                status = proc.wait(timeout=5)
            finally:
                proc.kill()
                proc.wait()
        assert status == 0
        assert time.monotonic() - t0 < 5.0

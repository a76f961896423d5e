"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


#: expected argument set per subcommand — a parity audit: every scheduler
#: subcommand must expose --backend, every trace-bearing one --trace-out.
EXPECTED_FLAGS = {
    "demo": {"backend"},
    "srj": {"family", "m", "n", "seed", "backend", "trace_out", "fault_plan"},
    "binpack": {"k", "n", "seed", "backend"},
    "tasks": {
        "family", "m", "k", "seed", "backend", "trace_out", "fault_plan",
    },
    "experiment": {"id", "scale", "seed", "csv"},
    "generate": {"family", "m", "n", "seed", "output"},
    "solve": {
        "input", "algorithm", "gantt", "output", "max_steps", "backend",
        "trace_out", "fault_plan",
    },
    "validate": {"instance", "schedule"},
    "stats": {
        "input", "family", "m", "n", "seed", "algorithm", "json",
        "backend", "trace_out",
    },
    "faults": {
        "input", "family", "m", "n", "seed", "plan", "fault_seed",
        "events", "horizon", "checkpoint_every", "save_plan", "json",
        "backend", "trace_out",
    },
    "sweep": {
        "action", "name", "scale", "seed", "cache_dir", "shard",
        "workers", "out", "json", "follow", "interval", "trace_spans",
        "timings", "timeout", "retries", "backoff",
    },
    "perf": {
        "action", "file", "bench", "gate", "window", "history_dir",
        "json", "ingest",
    },
    "lint": {"paths", "rule", "json"},
    "serve": {
        "host", "port", "state_dir", "workers", "queue_limit",
        "default_deadline", "timeout", "retries", "backoff",
        "heartbeat_interval", "allow_test_faults",
    },
    "call": {
        "method", "params", "deadline", "state_dir", "host", "port",
        "timeout", "retries",
    },
    "selftest": {"trials", "seed"},
    "report": {"output", "scale", "seed", "only"},
}


def _subcommand_parsers(parser):
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            return action.choices
    raise AssertionError("no subparsers found")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        p = build_parser()
        for cmd in (
            ["demo"],
            ["srj", "-m", "4", "-n", "10"],
            ["binpack", "-k", "3"],
            ["tasks", "-m", "6"],
            ["experiment", "e1"],
            ["stats", "-m", "4", "-n", "10"],
        ):
            args = p.parse_args(cmd)
            assert callable(args.func)

    def test_flag_sets_per_subcommand(self):
        subs = _subcommand_parsers(build_parser())
        assert set(subs) == set(EXPECTED_FLAGS)
        for name, sp in subs.items():
            dests = {
                a.dest for a in sp._actions if a.dest != "help"
            }
            assert dests == EXPECTED_FLAGS[name], f"subcommand {name!r}"


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "timeline" in out

    def test_srj(self, capsys):
        assert main(["srj", "-m", "5", "-n", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ratio=" in out

    def test_binpack(self, capsys):
        assert main(["binpack", "-k", "3", "-n", "20"]) == 0
        out = capsys.readouterr().out
        assert "sliding window" in out

    def test_tasks(self, capsys):
        assert main(["tasks", "-m", "8", "-k", "6"]) == 0
        out = capsys.readouterr().out
        assert "sum completion times" in out

    def test_binpack_backend_flag(self, capsys):
        outs = []
        for backend in ("fraction", "int"):
            assert main(
                ["binpack", "-k", "3", "-n", "20", "--backend", backend]
            ) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]  # bit-identical backends

    def test_stats_table(self, capsys):
        assert main(["stats", "-m", "5", "-n", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "per-case step counts" in out
        assert "agreement with scheduler result: OK" in out
        assert "phase timings" in out

    def test_stats_json(self, capsys):
        import json

        assert main(
            ["stats", "-m", "5", "-n", "20", "--json", "--backend", "int"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agreement"] is True
        assert payload["valid"] is True
        assert payload["metrics"]["counters"]["steps_total"] == (
            payload["makespan"]
        )

    def test_stats_unit_algorithm(self, capsys):
        assert main(
            ["stats", "-m", "4", "-n", "15", "--algorithm", "unit",
             "--family", "unit"]
        ) == 0
        assert "agreement with scheduler result: OK" in (
            capsys.readouterr().out
        )

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "zzz"]) == 2

    def test_experiment_e8(self, capsys):
        # e8 is the fastest experiment; run it end-to-end
        assert main(["experiment", "e8", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "[E8]" in out


class TestFileCommands:
    def test_generate_solve_validate_pipeline(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        sched_path = tmp_path / "sched.json"
        assert main(
            [
                "generate", "--family", "uniform", "-m", "4", "-n", "10",
                "--seed", "2", "-o", str(inst_path),
            ]
        ) == 0
        assert inst_path.exists()
        assert main(
            [
                "solve", "--input", str(inst_path), "--gantt",
                "-o", str(sched_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "makespan=" in out
        assert "p0" in out  # gantt rendered
        assert main(
            [
                "validate", "--instance", str(inst_path),
                "--schedule", str(sched_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK")

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "-m", "3", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert '"jobs"' in out

    def test_solve_baseline_algorithms(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["generate", "-m", "3", "-n", "8", "-o", str(inst_path)])
        capsys.readouterr()
        for algo in ("list", "greedy"):
            assert main(
                ["solve", "--input", str(inst_path), "--algorithm", algo]
            ) == 0
            assert "makespan=" in capsys.readouterr().out

    def test_faults_subcommand(self, capsys):
        assert main(
            ["faults", "-m", "4", "-n", "12", "--fault-seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "degradation" in out
        assert "recovered schedule: valid" in out

    def test_faults_json_and_save_plan(self, tmp_path, capsys):
        import json

        plan_path = tmp_path / "plan.json"
        assert main(
            [
                "faults", "-m", "4", "-n", "12", "--fault-seed", "5",
                "--save-plan", str(plan_path), "--json",
            ]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["valid"] is True
        assert plan_path.exists()
        # the saved plan drives srj/solve/tasks via --fault-plan
        assert main(
            ["srj", "-m", "4", "-n", "12", "--fault-plan", str(plan_path)]
        ) == 0
        assert "degradation" in capsys.readouterr().out
        assert main(
            ["tasks", "-m", "4", "-k", "5", "--fault-plan", str(plan_path)]
        ) == 0
        assert "faulted sum completion times" in capsys.readouterr().out

    def test_solve_fault_plan(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        plan_path = tmp_path / "plan.json"
        main(["generate", "-m", "4", "-n", "10", "-o", str(inst_path)])
        main(
            ["faults", "-m", "4", "-n", "10", "--fault-seed", "1",
             "--save-plan", str(plan_path)]
        )
        capsys.readouterr()
        assert main(
            ["solve", "--input", str(inst_path),
             "--fault-plan", str(plan_path)]
        ) == 0
        assert "faulted makespan" in capsys.readouterr().out
        # only the window algorithm supports fault plans
        assert main(
            ["solve", "--input", str(inst_path), "--algorithm", "greedy",
             "--fault-plan", str(plan_path)]
        ) == 2

    def test_malformed_instance_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("this is not json\n")
        assert main(["solve", "--input", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-sched: error:")
        assert "Traceback" not in captured.err

    def test_missing_instance_exits_cleanly(self, tmp_path, capsys):
        assert main(
            ["solve", "--input", str(tmp_path / "nope.json")]
        ) == 2
        assert "repro-sched: error:" in capsys.readouterr().err

    def test_malformed_fault_plan_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text('{"m": 2}\n')
        assert main(
            ["srj", "-m", "4", "-n", "8", "--fault-plan", str(bad)]
        ) == 2
        assert "repro-sched: error:" in capsys.readouterr().err

    def test_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["srj", "-m", "4", "-n", "8", "--backend", "bogus"])
        assert exc_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_perf_round_trip_and_regression_gate(self, tmp_path, capsys):
        import json

        def bench_file(name, scale=1.0):
            path = tmp_path / name
            path.write_text(json.dumps({
                "schema": 2, "bench": "cli round trip",
                "rows": [{"m": 4, "n": 16, "solve_s": 0.01 * scale}],
            }))
            return str(path)

        hist = ["--history-dir", str(tmp_path / "hist")]
        base = bench_file("base.json")
        # fresh history: every point is new, and --ingest records it
        assert main(["perf", "compare", base, "--ingest", *hist]) == 0
        out = capsys.readouterr().out
        assert "no history yet" in out and "PASS" in out
        assert main(["perf", "history", *hist]) == 0
        assert "cli-round-trip" in capsys.readouterr().out
        # identical re-run passes; a 50% slowdown trips the 10% gate
        assert main(["perf", "compare", base, *hist]) == 0
        capsys.readouterr()
        slow = bench_file("slow.json", scale=1.5)
        assert main(["perf", "compare", slow, *hist]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED solve_s" in out
        # a generous gate lets the same report through
        assert main(
            ["perf", "compare", slow, "--gate", "0.60", *hist]
        ) == 0

    def test_perf_errors_exit_cleanly(self, tmp_path, capsys):
        assert main(["perf", "compare"]) == 2
        assert "repro-sched: error:" in capsys.readouterr().err
        assert main(
            ["perf", "ingest", str(tmp_path / "missing.json")]
        ) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err

    def test_sweep_status_missing_checkpoint_exits_cleanly(
        self, tmp_path, capsys
    ):
        missing = ["faultsweep", "--cache-dir", str(tmp_path / "none")]
        assert main(
            ["sweep", "status", *missing, "--follow", "--interval", "0.01"]
        ) == 2
        captured = capsys.readouterr()
        assert "repro-sched: error:" in captured.err
        assert "Traceback" not in captured.err
        assert main(["sweep", "trace", *missing]) == 2
        assert "repro-sched: error:" in capsys.readouterr().err

    def test_faultsweep_gates_on_invalid_trials(
        self, tmp_path, capsys, monkeypatch
    ):
        """The faultsweep summary records ``passed``, and ``sweep run``
        exits 1 when a trial's recovered schedule is invalid."""
        import dataclasses

        from repro.sweep.registry import SWEEPS

        entry = SWEEPS["faultsweep"]
        assert entry.summarize([{"valid": True}]) == {
            "trials": 1, "invalid": 0, "passed": True,
        }
        args = ["sweep", "run", "faultsweep", "--cache-dir", str(tmp_path),
                "-o", str(tmp_path / "FAULTSWEEP.json")]
        assert main(args) == 0
        assert '"passed": true' in (tmp_path / "FAULTSWEEP.json").read_text()

        def one_invalid(rows):
            return entry.summarize([dict(rows[0], valid=False)] + rows[1:])

        monkeypatch.setitem(
            SWEEPS, "faultsweep",
            dataclasses.replace(entry, summarize=one_invalid),
        )
        assert main(args) == 1
        capsys.readouterr()

    def test_sweep_trace_spans_round_trip(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(
            ["sweep", "run", "faultsweep", *cache, "--trace-spans",
             "-o", str(tmp_path / "FAULTSWEEP.json")]
        ) == 0
        capsys.readouterr()
        assert main(["sweep", "trace", "faultsweep", *cache]) == 0
        out = capsys.readouterr().out
        assert "merged" in out and "TRACE.jsonl" in out
        # one-shot status now includes the live telemetry block
        assert main(["sweep", "status", "faultsweep", *cache]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "pts/s" in out

    def test_perf_non_object_report_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "rows.json"
        bad.write_text("[1, 2, 3]\n")
        assert main(["perf", "ingest", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "expected a BENCH report object" in captured.err
        assert "Traceback" not in captured.err
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["perf", "compare", str(garbage)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_experiment_unknown_id_error_contract(self, capsys):
        assert main(["experiment", "zz"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-sched: error:")
        assert "unknown experiment" in captured.err

    def test_call_bad_params_exits_cleanly(self, capsys):
        assert main(["call", "ping", "--params", "{not json"]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert main(["call", "ping", "--params", "[1]"]) == 2
        assert "JSON object" in capsys.readouterr().err
        assert main(["call", "ping", "--host", "127.0.0.1"]) == 2
        assert "--host requires --port" in capsys.readouterr().err

    def test_call_no_daemon_exits_cleanly(self, tmp_path, capsys):
        assert main(
            ["call", "ping", "--state-dir", str(tmp_path / "nope")]
        ) == 2
        captured = capsys.readouterr()
        assert "repro-sched: error:" in captured.err
        assert "Traceback" not in captured.err

    def test_serve_invalid_config_exits_cleanly(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "repro-sched: error:" in capsys.readouterr().err
        assert main(["serve", "--queue-limit", "-1"]) == 2
        assert "repro-sched: error:" in capsys.readouterr().err

    def test_validate_rejects_mismatched_schedule(self, tmp_path, capsys):
        inst_a = tmp_path / "a.json"
        inst_b = tmp_path / "b.json"
        sched = tmp_path / "s.json"
        main(["generate", "-m", "4", "-n", "10", "--seed", "1", "-o", str(inst_a)])
        main(["generate", "-m", "4", "-n", "10", "--seed", "9", "-o", str(inst_b)])
        main(["solve", "--input", str(inst_a), "-o", str(sched)])
        capsys.readouterr()
        # validating a's schedule against b's instance must fail
        assert main(
            ["validate", "--instance", str(inst_b), "--schedule", str(sched)]
        ) == 1
        assert "INVALID" in capsys.readouterr().out

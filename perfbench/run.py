"""The repository benchmark: one command, four workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload srj_solve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                 # every workload, one after another

Each workload runs in fresh interpreters started here: ``SETUPS - 1``
set-up-only runs and one full run (set-up, timed window, answer checks).
``setup_s`` is the median set-up time over all of them.  With
``--trace 1`` the full run also makes the traced window and the result
carries the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is a diagnostic and is never gated: the host-drift probe (a fixed
stdlib-only loop timed before and after the workload) with ``nproc``,
the Python version and the platform, and on untraced runs the p90 op
latency with the number of samples beyond it.  A wrong answer prints
``"correct": false`` and exits 1; a run that cannot finish exits non-zero
without a result line.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh-interpreter set-ups per run (one of them is the full run)
SETUPS = 3
#: a run gives up (and kills what it started) after this long
RUN_TIMEOUT_S = 170.0


def metric_units(kind: str) -> dict:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def drift_probe() -> float:
    """Seconds for a fixed stdlib-only loop: the median of 5 timings."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc = (acc * 31 + i) % 1_000_003
        sorted(str(i * 7919 % 10_007) for i in range(60_000))
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_child(args, workdir: str, setup_only: bool, deadline: float) -> dict:
    """Start one workload interpreter and return its JSON line.

    The child runs in its own process group, so a child that overruns
    *deadline* is killed together with everything it started (the
    daemon and its workers).
    """
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, TMPDIR=workdir)
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{args.workload} overran {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        drift_before = drift_probe()
        setups = []
        if not args.trace:
            for i in range(SETUPS - 1):
                probe_dir = os.path.join(workdir, f"setup-{i}")
                os.mkdir(probe_dir)
                setups.append(
                    run_child(args, probe_dir, True, deadline)["setup_s"])
        main_dir = os.path.join(workdir, "run")
        os.mkdir(main_dir)
        child = run_child(args, main_dir, False, deadline)
        drift_after = drift_probe()
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass

    if args.trace:
        values = child["per_layer"]
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        setups.append(child["setup_s"])
        child["setup_s"] = statistics.median(setups)
        attempted = child["attempted"]
        child["ok_ratio"] = (attempted - child["failed"]) / attempted
        metrics = {name: {"value": child[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    host = {
        "workload": args.workload,
        "drift_probe_before_s": drift_before,
        "drift_probe_after_s": drift_after,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if not args.trace:
        host.update(
            latency_p90_ms={"value": child["latency_p90_ms"], "unit": "ms"},
            samples=child["samples"], beyond_p90=child["beyond_p90"],
            window_s=child["window_s"], setup_runs_s=setups)
    for problem in child["problems"]:
        print(f"perfbench: wrong answer: {problem}", file=sys.stderr)
    print(json.dumps({"host": host}))
    correct = not child["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload through its own ``run.py`` process, then a table."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})")
            status = 1
            if not lines:
                continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:32s} {value['value']:>16.6g} {value['unit']}")
        p90 = json.loads(lines[-2])["host"].get("latency_p90_ms")
        if p90 is not None:
            print(f"  {'latency_p90_ms':32s} {p90['value']:>16.6g} "
                  f"{p90['unit']} (diagnostic, not gated)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

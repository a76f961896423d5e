"""One workload in one fresh interpreter (started by ``run.py``).

Set-up (import, inputs, daemon boot, one warm-up op, ``gc.collect()``) is
timed from the moment ``run.py`` started this process.  With
``--setup-only`` the process stops there.  Otherwise it runs the timed
window — with ``--trace 1`` an untraced and a traced half, for the
tracing overhead and the per-layer numbers — then the end-of-run answer
checks, and prints one JSON line for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: workload name -> (module, class)
WORKLOADS = {
    "srj_solve": ("srj_solve", "SrjSolve"),
    "binpack": ("binpack", "Binpack"),
    "sweep_srt": ("sweep_srt", "SweepSrt"),
    "daemon_rpc": ("daemon_rpc", "DaemonRpc"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when run.py started us")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    setup = {}
    t = time.monotonic()
    sys.path.insert(0, str(ROOT / "src"))
    module_name, class_name = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    from tracing import Tracer
    from harness import percentile

    setup["import"] = time.monotonic() - t
    tracer = Tracer()
    workload = getattr(module, class_name)(
        args.seed, args.workdir, tracer, traced_run=traced)
    try:
        for phase, step in (("inputs", workload.prepare),
                            ("boot", workload.boot),
                            ("warmup", workload.warmup)):
            t = time.monotonic()
            step()
            setup[phase] = time.monotonic() - t
        gc.collect()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if traced:
            base = workload.window(args.seconds / 2, traced=False)
            gc.collect()
            window = workload.window(args.seconds / 2, traced=True)
            windows = [base, window]
        else:
            window = workload.window(args.seconds, traced=False)
            windows = [window]
        workload.check()
    finally:
        workload.close()

    result = {
        "problems": workload.problems,
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "setup_s": setup_s,
    }
    if not traced:
        lat = window.latencies
        p90 = percentile(lat, 0.9)
        result.update({
            "jobs_per_s": window.jobs / window.seconds,
            "latency_p50_ms": percentile(lat, 0.5) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "samples": len(lat),
            "beyond_p90": sum(1 for x in lat if x > p90),
            "window_s": window.seconds,
            "peak_rss_mb": workload.peak_rss_mb(),
        })
    else:
        layers = workload.layer_metrics(window)
        coverage = tracer.op_coverage()
        layers.update({
            "core.validate_s": tracer.total("core.validate"),
            "core.violations": tracer.counts["core.violations"],
            **{f"setup.{phase}_s": seconds
               for phase, seconds in setup.items()},
            "trace.ops": window.attempted,
            "trace.coverage_min": min(coverage) if coverage else 0.0,
            "trace.overhead": (
                (window.jobs / window.op_seconds())
                / (base.jobs / base.op_seconds())
            ),
        })
        result["per_layer"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded fault-injection sweep: many instances x many fault plans.

This is the stress harness for the fault-tolerant runner
(:func:`repro.faults.run_with_faults`): each trial generates a workload
instance and a random :class:`~repro.faults.FaultPlan` from a per-trial
seed (:func:`repro.perf.parallel.seed_for`), executes the instance under
the plan on the scaled-integer backend, and validates the recovered
schedule with :func:`repro.faults.validate_faulted`.

The sweep runs on the experiment fabric (:mod:`repro.sweep`), which fans
trials out over the hardened :class:`repro.perf.WorkerPool` — and,
because every trial is a pure function of its parameters, the result
table is bit-identical for any worker count, shard count or cache state
(tested in ``tests/test_parallel_hardening.py`` and
``tests/test_sweep.py``).  With ``--cache-dir``, an enlarged sweep (say
``--trials 40`` after ``--trials 8``) only solves the 32 new trials: the
first 8 share content addresses and come from the cache.

Run it from the command line::

    PYTHONPATH=src python -m repro.perf.faultsweep --trials 40 -m 4 -n 24

Exit status is 1 if any trial produced an invalid recovered schedule.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..faults import FaultPlan, run_with_faults, validate_faulted
from ..sweep import SweepSpec, run_sweep
from ..workloads import make_instance
from .parallel import seed_for

__all__ = ["fault_trial", "fault_sweep", "faultsweep_spec"]

#: content-address salt; bump when the trial row schema changes
VERSION = "v1"


def fault_trial(params: Dict) -> Dict:
    """One sweep cell: build instance + plan from the seed, run, validate.

    *params* has keys ``family, m, n, seed, events, horizon``.  A pure
    module-level function of its parameters, so it pickles into pool
    workers and its result is content-addressable.
    """
    family, m, n = params["family"], params["m"], params["n"]
    seed, events, horizon = params["seed"], params["events"], params["horizon"]
    rng = random.Random(seed)
    instance = make_instance(family, rng, m, n)
    plan = FaultPlan.random(
        seed_for(seed, 1),
        m=m,
        n_jobs=n,
        horizon=horizon,
        events=events,
    )
    result = run_with_faults(instance, plan, backend="int")
    report = validate_faulted(result)
    degradation = result.degradation
    return {
        "seed": seed,
        "family": family,
        "m": m,
        "n": n,
        "events": len(plan),
        "applied": result.n_applied(),
        "makespan": result.makespan,
        "fault_free": result.fault_free_makespan,
        "degradation": None if degradation is None else str(degradation),
        "aborted": len(result.aborted),
        "segments": len(result.segments),
        "valid": report.ok,
        "violations": list(report.violations),
    }


def faultsweep_spec(
    family: str = "uniform",
    m: int = 4,
    n: int = 24,
    trials: int = 20,
    seed: int = 2026,
    events: int = 6,
    horizon: int = 200,
) -> SweepSpec:
    """The fault-injection sweep as a fabric spec (one point per trial)."""
    params_list = [
        {"family": family, "m": m, "n": n, "seed": seed_for(seed, i),
         "events": events, "horizon": horizon}
        for i in range(trials)
    ]
    return SweepSpec.from_points(
        "faultsweep", fault_trial, params_list, version=VERSION
    )


def fault_sweep(
    family: str = "uniform",
    m: int = 4,
    n: int = 24,
    trials: int = 20,
    seed: int = 2026,
    events: int = 6,
    horizon: int = 200,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: Optional[float] = None,
    cache_dir: Optional[str] = None,
    shard: Optional[Tuple[int, int]] = None,
    spans: bool = False,
) -> List[Dict]:
    """Run *trials* independent fault-injection trials; ordered rows.

    Every row's randomness derives from ``seed_for(seed, index)``, so the
    table does not depend on *workers*, *timeout*, *retries*, *cache_dir*
    or *shard* — those only shape how (and whether) the work is executed.
    """
    spec = faultsweep_spec(
        family=family, m=m, n=n, trials=trials, seed=seed,
        events=events, horizon=horizon,
    )
    extra = {} if backoff is None else {"backoff": backoff}
    report = run_sweep(
        spec, cache_dir=cache_dir, workers=workers, shard=shard,
        timeout=timeout, retries=retries, spans=spans, **extra,
    )
    return report.rows


def _main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import json

    from .bench import add_sweep_flags, parse_shard

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.faultsweep",
        description="Seeded fault-injection sweep over random instances.",
    )
    parser.add_argument("--family", default="uniform")
    parser.add_argument("-m", type=int, default=4, dest="m")
    parser.add_argument("-n", type=int, default=24, dest="n")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--events", type=int, default=6)
    parser.add_argument("--horizon", type=int, default=200)
    parser.add_argument(
        "--json", action="store_true", help="emit rows as JSON lines"
    )
    # --timeout/--retries/--backoff now come from the shared fabric flags
    add_sweep_flags(parser)
    args = parser.parse_args(argv)

    rows = fault_sweep(
        family=args.family,
        m=args.m,
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        events=args.events,
        horizon=args.horizon,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        cache_dir=args.cache_dir,
        shard=parse_shard(args.shard),
    )
    bad = 0
    if args.json:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
            bad += not row["valid"]
    else:
        print(
            f"{'seed':>20} {'events':>6} {'applied':>7} {'mk':>6} "
            f"{'ff':>6} {'degr':>8} {'ok':>3}"
        )
        worst = Fraction(0)
        for row in rows:
            d = row["degradation"]
            if d is not None:
                worst = max(worst, Fraction(d))
            print(
                f"{row['seed']:>20} {row['events']:>6} {row['applied']:>7} "
                f"{row['makespan']:>6} {row['fault_free']:>6} "
                f"{'-' if d is None else format(float(Fraction(d)), '.3f'):>8} "
                f"{'ok' if row['valid'] else 'BAD':>3}"
            )
            bad += not row["valid"]
        print(
            f"{len(rows)} trials, {bad} invalid, "
            f"worst degradation {worst} ({float(worst):.3f})"
        )
    return 1 if bad else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(_main())

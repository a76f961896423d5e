"""Named report sweeps and the one function that builds their reports.

:data:`SWEEPS` is the table behind ``repro-sched sweep run|resume|status``:
each row names a sweep, its report title and default artifact, a spec
builder (so ``sweep status`` can report cache coverage without solving
anything) and the summary of a complete run.  :func:`run_report` runs any
row on the fabric and writes its report, so the CLI, the Makefile, CI and
the benchmark wrappers all drive the same point enumerations and the same
report layout.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..perf import bench
from ..perf.faultsweep import faultsweep_spec
from .runner import run_sweep
from .spec import SweepSpec

__all__ = ["SweepEntry", "SWEEPS", "get_sweep", "run_report"]


@dataclass(frozen=True)
class SweepEntry:
    """One CLI-addressable report sweep."""

    name: str
    #: the report's ``bench`` field (perf-history series are keyed on it)
    title: str
    default_out: str
    #: ``(scale, seed, reps=None) -> SweepSpec``
    build_spec: Callable[..., SweepSpec]
    #: the ``summary`` of a complete run's rows
    summarize: Callable[[List[Dict]], Dict]


#: faultsweep scale presets (the fault analogue of the bench grids)
_FAULT_SCALE = {
    "small": {"trials": 8, "m": 4, "n": 16, "events": 5, "horizon": 100},
    "full": {"trials": 40, "m": 4, "n": 24, "events": 6, "horizon": 200},
}


def _faultsweep_spec(
    scale: str, seed: int, reps: Optional[int] = None
) -> SweepSpec:
    if scale not in _FAULT_SCALE:
        raise ValueError(f"unknown scale {scale!r}")
    return faultsweep_spec(seed=seed, **_FAULT_SCALE[scale])


def _faultsweep_summary(rows: List[Dict]) -> Dict:
    invalid = sum(1 for r in rows if not r["valid"])
    return {"trials": len(rows), "invalid": invalid, "passed": not invalid}


SWEEPS: Dict[str, SweepEntry] = {
    e.name: e
    for e in (
        SweepEntry(
            "bench", "E4 runtime, fraction vs int backend", "BENCH_1.json",
            bench.bench_spec, bench.summarize_bench,
        ),
        SweepEntry(
            "bench-srt", "SRT runtime, fraction vs int backend",
            "BENCH_2.json", bench.bench_srt_spec, bench.summarize_srt,
        ),
        SweepEntry(
            "bench-obs", "observer overhead, SRJ int kernel", "BENCH_3.json",
            bench.bench_obs_spec, bench.summarize_obs,
        ),
        SweepEntry(
            "faultsweep", "fault-injection stress sweep (validated recovery)",
            "FAULTSWEEP.json", _faultsweep_spec, _faultsweep_summary,
        ),
    )
}


def get_sweep(name: str) -> SweepEntry:
    """The named entry; raises :class:`ValueError` with the valid names."""
    try:
        return SWEEPS[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep {name!r} (choose from: {', '.join(sorted(SWEEPS))})"
        ) from None


def run_report(
    name: str,
    scale: str = "small",
    seed: int = 0,
    *,
    reps: Optional[int] = None,
    out: Optional[str] = None,
    **fabric,
) -> Dict[str, object]:
    """Run sweep *name* on the fabric; return (and with *out*, write) its
    report.

    *fabric* passes through to :func:`~repro.sweep.run_sweep`
    (``cache_dir``, ``workers``, ``shard``, ``spans``, ``timeout``,
    ``retries``, ``backoff``).  With a cache, previously solved points
    are reused (their recorded timings included); a sharded or otherwise
    incomplete run is marked ``partial`` and has no summary until an
    unsharded run assembles the full report from the cache.
    """
    entry = get_sweep(name)
    spec = entry.build_spec(scale, seed, reps)
    sweep = run_sweep(spec, **fabric)
    report: Dict[str, object] = {
        "schema": bench.SCHEMA,
        "bench": entry.title,
        "scale": scale,
        "seed": seed,
        "reps": spec.points[0].params.get("reps") if spec.points else reps,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cache": {"hits": sweep.cache_hits, "solved": sweep.solved},
        "rows": sweep.rows,
    }
    if sweep.complete:
        report["summary"] = entry.summarize(sweep.rows)
    else:
        report["partial"] = True
    if out:
        bench.write_report(report, out)
    return report

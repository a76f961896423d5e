"""Live sweep monitoring: the read side of the runner's telemetry files.

The sweep runner (:func:`repro.sweep.run_sweep`) is the *monitor* half of
an Uberun-style master/monitor split: alongside ``STATE.json`` it
appends per-worker heartbeat records to ``HEARTBEAT.jsonl`` in the run's
checkpoint directory — one line at the start, per persisted batch, on
interrupt and at the end, carrying the writing process's pid and shard,
point throughput, cache hits, retry/fault counters and an ETA.  Because shard
runners on different machines share the checkpoint directory, their
heartbeats interleave in the one file at line granularity.

This module is the *master* half: it reads those files back without ever
touching the sweep itself.

* :func:`read_heartbeats` — tolerant JSONL reader (a torn trailing line
  from a live writer is skipped, mid-file garbage raises);
* :func:`live_status` — one structured snapshot: the checkpointed state,
  the latest heartbeat per worker (pid × shard) with per-worker
  throughput/ETA, and the aggregate progress — raises
  :class:`ValueError` for a missing/empty checkpoint directory (the CLI
  maps that to exit status 2, one line, no traceback);
* :func:`format_live_status` — the human rendering behind
  ``repro-sched sweep status``;
* :func:`follow` — the ``--follow`` loop: poll, print on change, stop
  when the sweep completes.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "HEARTBEAT_NAME",
    "STATE_NAME",
    "read_heartbeats",
    "live_status",
    "format_live_status",
    "follow",
]

#: filenames the runner writes into the checkpoint directory
HEARTBEAT_NAME = "HEARTBEAT.jsonl"
STATE_NAME = "STATE.json"


def read_heartbeats(path) -> List[Dict]:
    """All heartbeat records in *path* (file order).

    Blank lines are skipped; a torn **final** line — a writer may be
    appending right now — is skipped; corruption anywhere else raises
    :class:`ValueError` (append-only files can only tear at the tail).
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return []
    records: List[Dict] = []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if i == len(lines):
                continue
            raise ValueError(
                f"{path}:{i}: corrupt heartbeat record: {exc}"
            ) from exc
    return records


def _worker_key(record: Dict) -> str:
    shard = record.get("shard")
    shard_text = "-" if shard is None else f"{shard[0]}/{shard[1]}"
    return f"pid {record.get('pid', '?')} shard {shard_text}"


def live_status(checkpoint_dir, now: Optional[float] = None) -> Dict:
    """One structured snapshot of a (possibly running) sweep.

    *checkpoint_dir* is the run's directory (``<cache-dir>/<sweep-name>``,
    the one holding ``STATE.json`` / ``HEARTBEAT.jsonl``).  Raises
    :class:`ValueError` when the directory does not exist or carries no
    telemetry at all — the one-line exit-2 contract of the CLI.
    """
    root = Path(checkpoint_dir)
    if not root.is_dir():
        raise ValueError(f"no sweep checkpoint directory at {root}")
    state_path = root / STATE_NAME
    heartbeat_path = root / HEARTBEAT_NAME
    state: Optional[Dict] = None
    if state_path.is_file():
        try:
            with open(state_path, encoding="utf-8") as fh:
                state = json.load(fh)
        except (OSError, ValueError):
            state = None
    heartbeats = read_heartbeats(heartbeat_path)
    if state is None and not heartbeats:
        raise ValueError(
            f"no sweep telemetry under {root} (neither {STATE_NAME} nor "
            f"{HEARTBEAT_NAME}; has the sweep started with a cache dir?)"
        )
    now = time.time() if now is None else now

    latest: Dict[str, Dict] = {}
    for record in heartbeats:
        latest[_worker_key(record)] = record
    workers: List[Dict] = []
    for key in sorted(latest):
        hb = dict(latest[key])
        hb["worker"] = key
        ts = hb.get("ts")
        if isinstance(ts, (int, float)):
            hb["age_s"] = round(max(now - ts, 0.0), 3)
        workers.append(hb)

    done = state.get("done") if state else None
    selected = state.get("selected") if state else None
    if done is None and workers:
        done = max((w.get("done", 0) for w in workers), default=0)
    status: Dict = {
        "dir": str(root),
        "sweep": (state or {}).get("sweep"),
        "spec_key": (state or {}).get("spec_key"),
        "state": state,
        "done": done,
        "selected": selected,
        "complete": bool((state or {}).get("complete")),
        "workers": workers,
    }
    throughputs = [
        w["throughput"] for w in workers
        if isinstance(w.get("throughput"), (int, float)) and w["throughput"] > 0
    ]
    if throughputs:
        status["throughput"] = round(sum(throughputs), 3)
    etas = [
        w["eta_s"] for w in workers
        if isinstance(w.get("eta_s"), (int, float))
    ]
    if etas and not status["complete"]:
        status["eta_s"] = round(max(etas), 3)
    return status


def format_live_status(status: Dict) -> str:
    """Human rendering of a :func:`live_status` snapshot."""
    lines: List[str] = []
    done = status.get("done")
    selected = status.get("selected")
    progress = (
        f"{done}/{selected}" if done is not None and selected is not None
        else "?"
    )
    head = (
        f"{status.get('sweep') or status['dir']}: {progress} points done "
        f"({'complete' if status.get('complete') else 'running'})"
    )
    if "throughput" in status:
        head += f", {status['throughput']:.2f} pts/s"
    if "eta_s" in status:
        head += f", ETA {status['eta_s']:.0f}s"
    lines.append(head)
    for w in status.get("workers", []):
        parts = [f"  {w['worker']}:"]
        if "solved" in w:
            parts.append(f"{w['solved']} solved")
        if "cache_hits" in w:
            parts.append(f"{w['cache_hits']} cached")
        if isinstance(w.get("throughput"), (int, float)):
            parts.append(f"{w['throughput']:.2f} pts/s")
        if isinstance(w.get("eta_s"), (int, float)):
            parts.append(f"ETA {w['eta_s']:.0f}s")
        for counter in ("retries", "timeouts", "broken_pools", "faults"):
            value = w.get(counter)
            if value:
                parts.append(f"{counter}={value}")
        if "age_s" in w:
            parts.append(f"(last beat {w['age_s']:.1f}s ago)")
        lines.append(" ".join(parts))
    return "\n".join(lines)


def follow(
    checkpoint_dir,
    interval: float = 2.0,
    stream=None,
    max_polls: Optional[int] = None,
) -> int:
    """Poll *checkpoint_dir* and print status lines until the sweep
    completes (or *max_polls* snapshots were taken; tests pass 1).

    The first poll validates the directory — a missing path raises
    :class:`ValueError` immediately rather than spinning forever.
    Returns 0 once the sweep reports complete, 3 when following stopped
    while the sweep was still incomplete (poll budget exhausted or
    interrupted with Ctrl-C).
    """
    if interval <= 0:
        raise ValueError("interval must be > 0")
    stream = stream if stream is not None else sys.stdout
    polls = 0
    last_rendered: Optional[str] = None
    while True:
        status = live_status(checkpoint_dir)
        rendered = format_live_status(status)
        if rendered != last_rendered:
            print(rendered, file=stream, flush=True)
            last_rendered = rendered
        if status.get("complete"):
            return 0
        polls += 1
        if max_polls is not None and polls >= max_polls:
            return 3
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 3

"""ASCII Gantt rendering of schedules — used by the CLI and examples.

Renders one row per processor plus a resource-utilization footer::

    p0 |  0  0  0  4  4 .  .
    p1 |  1  1  3  3  .  .  .
    res|  ##########  ######

Each column is one time step; the cell shows the job id running there
(``.`` = idle).  The footer shades per-step resource utilization in tenths.

Both renderers accept either a materialized
:class:`~repro.core.schedule.Schedule` or any result object exposing the
canonical trace protocol (``instance``, ``makespan``, ``iter_steps()`` —
e.g. :class:`~repro.engine.trace.SRJResult`); results are streamed
step-by-step, so a 10^6-step schedule never has to be expanded to render
its (truncated) chart.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, Tuple

#: utilization shading, 0%..100% in tenths
_SHADES = " .:-=+*#%@"

#: one rendered step: job id -> (processor, share)
_StepMap = Dict[int, Tuple[int, object]]


def _stream_steps(schedule_or_result) -> Tuple[object, int, Iterator[_StepMap]]:
    """Normalize input to ``(instance, makespan, step-map iterator)``.

    Prefers the canonical trace protocol (``iter_steps``) and falls back to
    a materialized ``Schedule``'s step list.
    """
    obj = schedule_or_result
    if hasattr(obj, "iter_steps"):
        return obj.instance, obj.makespan, iter(obj.iter_steps())
    steps = (
        {p.job_id: (p.processor, p.share) for p in step.pieces}
        for step in obj.steps
    )
    return obj.instance, obj.makespan, steps


def render_gantt(
    schedule_or_result, max_width: int = 120
) -> str:
    """Render a schedule (or trace-bearing result) as an ASCII Gantt chart.

    Schedules longer than *max_width* steps are right-truncated with an
    ellipsis marker (rendering a 10^6-step schedule is never useful).
    """
    inst, makespan, stream = _stream_steps(schedule_or_result)
    steps: List[_StepMap] = list(islice(stream, max_width))
    truncated = makespan > max_width
    width = max((len(str(j.id)) for j in inst.jobs), default=1)
    cell = width + 1

    rows: List[List[str]] = [
        ["." * width for _ in steps] for _ in range(inst.m)
    ]
    for t, step in enumerate(steps):
        for job_id, (processor, _share) in step.items():
            if processor < inst.m:
                rows[processor][t] = str(job_id).rjust(width)

    lines = []
    label_w = len(f"p{inst.m - 1}")
    for i, row in enumerate(rows):
        label = f"p{i}".ljust(label_w)
        lines.append(f"{label} |" + "".join(c.rjust(cell) for c in row))
    # utilization footer
    shades = []
    for step in steps:
        u = float(sum(share for _p, share in step.values()))
        idx = min(int(round(u * (len(_SHADES) - 1))), len(_SHADES) - 1)
        shades.append(_SHADES[idx] * width)
    lines.append(
        "res".ljust(label_w) + " |" + "".join(s.rjust(cell) for s in shades)
    )
    if truncated:
        lines.append(f"... truncated at {max_width} of {makespan} steps")
    return "\n".join(lines)


def render_utilization_sparkline(
    schedule_or_result, max_width: int = 240
) -> str:
    """One-line utilization sparkline (for very long schedules)."""
    _inst, _makespan, stream = _stream_steps(schedule_or_result)
    utils = [
        float(sum(share for _p, share in step.values())) for step in stream
    ]
    if not utils:
        return "(empty schedule)"
    if len(utils) > max_width:
        # bucket-average down to max_width columns
        bucket = len(utils) / max_width
        utils = [
            sum(utils[int(i * bucket): max(int((i + 1) * bucket), int(i * bucket) + 1)])
            / max(len(utils[int(i * bucket): max(int((i + 1) * bucket), int(i * bucket) + 1)]), 1)
            for i in range(max_width)
        ]
    return "".join(
        _SHADES[min(int(round(u * (len(_SHADES) - 1))), len(_SHADES) - 1)]
        for u in utils
    )

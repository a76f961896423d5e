"""JSON (de)serialization for instances, schedules and results.

Fractions are encoded as strings (``"3/4"``) so round-trips are exact.
The formats are deliberately simple so instances can be produced by other
tools and fed to the CLI (``repro-sched solve --input inst.json``).

Instance format::

    {
      "m": 4,
      "jobs": [{"size": 3, "requirement": "1/5"}, ...]   # original order
    }

Task-instance format::

    {"m": 8, "tasks": [["1/5", "1/2"], ["1/10", ...], ...]}

Schedule format (produced by :func:`schedule_to_json`)::

    {
      "m": 4, "makespan": 9,
      "steps": [[{"job": 0, "proc": 1, "share": "1/5"}, ...], ...]
    }
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, Union

from .core.instance import Instance
from .core.schedule import Schedule
from .tasks.model import TaskInstance


def _frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(
        x.numerator
    )


def _frac_from_any(value: Union[str, int, float]) -> Fraction:
    if isinstance(value, str):
        return Fraction(value)
    from .numeric import to_fraction

    return to_fraction(value)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def instance_to_dict(instance: Instance) -> Dict[str, Any]:
    """Serialize in the *original* job order (before canonicalization)."""
    by_original = sorted(
        range(instance.n), key=lambda i: instance.original_ids[i]
    )
    return {
        "m": instance.m,
        "jobs": [
            {
                "size": instance.jobs[i].size,
                "requirement": _frac_to_str(instance.jobs[i].requirement),
            }
            for i in by_original
        ],
    }


def instance_from_dict(data: Dict[str, Any]) -> Instance:
    """Parse an instance dict (see module docstring for the format)."""
    try:
        m = int(data["m"])
        jobs = data["jobs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
    sizes = []
    reqs = []
    for i, job in enumerate(jobs):
        try:
            sizes.append(int(job.get("size", 1)))
            reqs.append(_frac_from_any(job["requirement"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed job #{i}: {exc}") from exc
    return Instance.from_requirements(m, reqs, sizes)


def instance_to_json(instance: Instance, indent: int = 2) -> str:
    return json.dumps(instance_to_dict(instance), indent=indent)


def instance_from_json(text: str) -> Instance:
    return instance_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Task instances
# ---------------------------------------------------------------------------


def task_instance_to_dict(instance: TaskInstance) -> Dict[str, Any]:
    return {
        "m": instance.m,
        "tasks": [
            [_frac_to_str(r) for r in task.requirements]
            for task in instance.tasks
        ],
    }


def task_instance_from_dict(data: Dict[str, Any]) -> TaskInstance:
    try:
        m = int(data["m"])
        lists = [
            [_frac_from_any(r) for r in reqs] for reqs in data["tasks"]
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed task document: {exc}") from exc
    return TaskInstance.create(m, lists)


def task_instance_to_json(instance: TaskInstance, indent: int = 2) -> str:
    return json.dumps(task_instance_to_dict(instance), indent=indent)


def task_instance_from_json(text: str) -> TaskInstance:
    return task_instance_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    return {
        "m": schedule.instance.m,
        "makespan": schedule.makespan,
        "steps": [
            [
                {
                    "job": p.job_id,
                    "proc": p.processor,
                    "share": _frac_to_str(p.share),
                }
                for p in step.pieces
            ]
            for step in schedule.steps
        ],
    }


def schedule_from_dict(
    data: Dict[str, Any], instance: Instance
) -> Schedule:
    """Rebuild a schedule against *instance* (canonical job ids)."""
    schedule = Schedule(instance=instance)
    try:
        for step in data["steps"]:
            pieces = {
                int(p["job"]): (int(p["proc"]), _frac_from_any(p["share"]))
                for p in step
            }
            schedule.append_step(pieces)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed schedule document: {exc}") from exc
    return schedule


def schedule_to_json(schedule: Schedule, indent: int = 2) -> str:
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def schedule_from_json(text: str, instance: Instance) -> Schedule:
    return schedule_from_dict(json.loads(text), instance)

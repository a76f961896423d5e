"""Exact, picklable snapshots of engine state and runner checkpoints.

Two snapshot granularities exist:

* :class:`StateSnapshot` — a point-in-time copy of an
  :class:`~repro.engine.state.EngineState` on either backend, with every
  working-domain quantity converted to an exact
  :class:`~fractions.Fraction`.  It is a
  plain dataclass of dicts/ints — picklable as-is — and round-trips
  through JSON with the same ``"p/q"`` exact-fraction convention as the
  JSONL traces.  :meth:`StateSnapshot.restore` rebuilds a live state on
  any numeric backend; continuing a restored state reproduces the
  original run bit for bit (tested in ``tests/test_faults_snapshot.py``).

* :class:`Checkpoint` — the fault-tolerant runner's durable record at a
  segment boundary: wall-clock step, residual volumes
  ``v_j = s_j − (resource delivered so far)``, completions so far, the
  machine condition (down processors, current capacity) and the cursor
  into the fault plan.  ``run_with_faults(..., from_checkpoint=cp)``
  resumes from it and reproduces the straight-through run's tail exactly.

The trace (an emission artifact) and observer wiring are deliberately
*not* part of either snapshot; restoring starts a fresh trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Tuple

from ..engine.backends.fraction import FractionContext
from ..engine.state import EngineState
from .model import FaultPlanError

__all__ = ["StateSnapshot", "Checkpoint", "snapshot_state", "restore_state"]


def _frac(value) -> Fraction:
    return Fraction(value)


@dataclass
class StateSnapshot:
    """Exact copy of an :class:`EngineState` at one point in time.

    Job keys are kept as the live Python objects (ints, or tuples for the
    SRT/assigned layers), so pickling is lossless.  The JSON form
    stringifies keys; :meth:`from_jsonable` parses them back with
    ``eval``-free literal parsing for ints and int-tuples (the two key
    shapes the engine uses).
    """

    m: int
    t: int
    requirements: Dict
    totals: Dict
    remaining: Dict
    processor_of: Dict
    completion_times: Dict
    steps_full_jobs: int = 0
    steps_full_resource: int = 0
    waste_units: Fraction = Fraction(0)

    # ------------------------------------------------------------------

    @classmethod
    def capture(cls, state: EngineState) -> "StateSnapshot":
        conv = state.ctx.to_fraction
        return cls(
            m=state.m,
            t=state.t,
            requirements={k: Fraction(conv(v)) for k, v in state.req.items()},
            totals={k: Fraction(conv(v)) for k, v in state.total.items()},
            remaining={
                k: Fraction(conv(v)) for k, v in state.remaining.items()
            },
            processor_of=dict(state.processor_of),
            completion_times=dict(state.completion_times),
            steps_full_jobs=state.steps_full_jobs,
            steps_full_resource=state.steps_full_resource,
            waste_units=Fraction(conv(state.waste_units)),
        )

    def restore(self, ctx=None) -> EngineState:
        """Rebuild a live :class:`EngineState` from this snapshot.

        *ctx* selects the numeric backend (default: a fresh exact
        :class:`FractionContext`).  A scaled-integer context is accepted
        as long as the snapshot's values lie on its ``1/D`` lattice —
        which holds whenever the context was built from the same budget
        and requirements.
        """
        if ctx is None:
            ctx = FractionContext()
        state = EngineState(
            self.m,
            ctx,
            {k: ctx.scale(v) for k, v in self.requirements.items()},
            {k: ctx.scale(v) for k, v in self.totals.items()},
            record_trace=True,
        )
        remaining = {k: ctx.scale(v) for k, v in self.remaining.items()}
        state.remaining = remaining
        state._unfinished = sorted(k for k, v in remaining.items() if v > 0)
        state.t = self.t
        state.completion_times = dict(self.completion_times)
        state.processor_of = {
            k: p
            for k, p in self.processor_of.items()
            if k in state.remaining
        }
        state._busy_processors = {
            p
            for k, p in state.processor_of.items()
            if remaining.get(k, 0) > 0
        }
        state.steps_full_jobs = self.steps_full_jobs
        state.steps_full_resource = self.steps_full_resource
        state.waste_units = ctx.scale(self.waste_units)
        return state

    # ------------------------------------------------------------------
    # Exact JSON round-trip
    # ------------------------------------------------------------------

    def to_jsonable(self) -> Dict:
        def fdict(d: Dict) -> Dict:
            return {_key_out(k): str(Fraction(v)) for k, v in d.items()}

        return {
            "schema": 1,
            "m": self.m,
            "t": self.t,
            "requirements": fdict(self.requirements),
            "totals": fdict(self.totals),
            "remaining": fdict(self.remaining),
            "processor_of": {
                _key_out(k): p for k, p in self.processor_of.items()
            },
            "completion_times": {
                _key_out(k): ct for k, ct in self.completion_times.items()
            },
            "steps_full_jobs": self.steps_full_jobs,
            "steps_full_resource": self.steps_full_resource,
            "waste_units": str(self.waste_units),
        }

    @classmethod
    def from_jsonable(cls, data: Dict) -> "StateSnapshot":
        def pdict(d: Dict) -> Dict:
            return {_key_in(k): Fraction(v) for k, v in d.items()}

        return cls(
            m=data["m"],
            t=data["t"],
            requirements=pdict(data["requirements"]),
            totals=pdict(data["totals"]),
            remaining=pdict(data["remaining"]),
            processor_of={
                _key_in(k): p for k, p in data["processor_of"].items()
            },
            completion_times={
                _key_in(k): ct for k, ct in data["completion_times"].items()
            },
            steps_full_jobs=data.get("steps_full_jobs", 0),
            steps_full_resource=data.get("steps_full_resource", 0),
            waste_units=Fraction(data.get("waste_units", 0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StateSnapshot":
        return cls.from_jsonable(json.loads(text))


def _key_out(key) -> str:
    """Serialize a job key: ``7`` -> ``"7"``, ``(2, 3)`` -> ``"2,3"``."""
    if isinstance(key, tuple):
        return ",".join(str(part) for part in key)
    return str(key)


def _key_in(text: str):
    """Inverse of :func:`_key_out` for int and int-tuple keys."""
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return int(text)


def snapshot_state(state: EngineState) -> StateSnapshot:
    """Convenience alias for :meth:`StateSnapshot.capture`."""
    return StateSnapshot.capture(state)


def restore_state(snapshot: StateSnapshot, ctx=None) -> EngineState:
    """Convenience alias for :meth:`StateSnapshot.restore`."""
    return snapshot.restore(ctx)


@dataclass
class Checkpoint:
    """The fault-tolerant runner's durable record at a segment boundary."""

    #: wall-clock step the checkpoint was taken at
    t: int
    #: original job id -> residual volume v_j > 0 (finished jobs absent)
    residual: Dict[int, Fraction] = field(default_factory=dict)
    #: original job id -> completion step, for jobs finished so far
    completed: Dict[int, int] = field(default_factory=dict)
    #: original job id -> abort step, for jobs cancelled so far
    aborted: Dict[int, int] = field(default_factory=dict)
    #: processors offline at the checkpoint
    down: Tuple[int, ...] = ()
    #: per-step resource capacity in effect
    capacity: Fraction = Fraction(1)
    #: index of the next unapplied event in the plan
    next_event: int = 0

    def to_jsonable(self) -> Dict:
        return {
            "schema": 1,
            "t": self.t,
            "residual": {str(j): str(Fraction(v)) for j, v in self.residual.items()},
            "completed": {str(j): ct for j, ct in self.completed.items()},
            "aborted": {str(j): ct for j, ct in self.aborted.items()},
            "down": list(self.down),
            "capacity": str(Fraction(self.capacity)),
            "next_event": self.next_event,
        }

    @classmethod
    def from_jsonable(cls, data: Dict) -> "Checkpoint":
        if not isinstance(data, dict) or "t" not in data:
            raise FaultPlanError("checkpoint document must carry a 't' field")
        return cls(
            t=data["t"],
            residual={
                int(j): Fraction(v) for j, v in data.get("residual", {}).items()
            },
            completed={
                int(j): ct for j, ct in data.get("completed", {}).items()
            },
            aborted={int(j): ct for j, ct in data.get("aborted", {}).items()},
            down=tuple(data.get("down", ())),
            capacity=Fraction(data.get("capacity", 1)),
            next_event=data.get("next_event", 0),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"malformed checkpoint JSON: {exc}") from exc
        return cls.from_jsonable(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

"""Deterministic fault plans: typed events, seeded generation, JSON I/O.

A :class:`FaultPlan` is an immutable, time-sorted list of
:class:`FaultEvent` records.  Four kinds exist, matching the degraded
regimes studied by the related work (Damerius–Kling–Schneider; Maack–
Pukrop–Rau):

* ``crash`` — processor ``p`` goes offline at the start of step ``t+1``;
* ``restore`` — processor ``p`` comes back online;
* ``dip`` — the per-step resource total drops to ``capacity``
  (``R_total(t) = capacity ≤ 1``; ``capacity = 1`` ends a dip, ``0``
  models a full resource outage);
* ``abort`` — job ``job`` is cancelled (its residual volume is dropped).

:class:`Machine` is the one place that applies crash, restore and dip
events: the segmented runners and the simulator each drive one and keep
only their own ``abort``.

Everything is exact and reproducible: capacities are
:class:`~fractions.Fraction` values, :meth:`FaultPlan.random` derives the
whole plan from one integer seed via :class:`random.Random`, and the JSON
round-trip (:meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`)
preserves capacities exactly as ``"p/q"`` strings — the same convention
as the JSONL traces.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..numeric import to_fraction

__all__ = [
    "KINDS", "FaultPlanError", "FaultRecoveryError", "FaultEvent",
    "FaultPlan", "Machine",
]

#: the supported event kinds
KINDS = ("crash", "restore", "dip", "abort")


class FaultPlanError(ValueError):
    """A malformed fault event or plan."""


class FaultRecoveryError(RuntimeError):
    """The plan leaves the machine unable to finish (e.g. every
    processor down with no restore event pending)."""


@dataclass(frozen=True)
class FaultEvent:
    """One fault at (the start of) step ``t + 1``.

    Exactly one of the kind-specific fields is set: ``processor`` for
    ``crash``/``restore``, ``capacity`` for ``dip``, ``job`` for
    ``abort``.
    """

    t: int
    kind: str
    processor: Optional[int] = None
    capacity: Optional[Fraction] = None
    job: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}"
            )
        if not isinstance(self.t, int) or self.t < 0:
            raise FaultPlanError(f"event time must be an int >= 0, got {self.t!r}")
        if self.kind in ("crash", "restore"):
            if not isinstance(self.processor, int) or self.processor < 0:
                raise FaultPlanError(
                    f"{self.kind} event needs a processor index >= 0"
                )
            if self.capacity is not None or self.job is not None:
                raise FaultPlanError(
                    f"{self.kind} event takes only a processor"
                )
        elif self.kind == "dip":
            if self.capacity is None:
                raise FaultPlanError("dip event needs a capacity")
            try:
                # accept "p/q" strings (the JSON convention) alongside
                # the numeric types to_fraction handles
                cap = (
                    Fraction(self.capacity)
                    if isinstance(self.capacity, str)
                    else to_fraction(self.capacity)
                )
            except (ValueError, ZeroDivisionError) as exc:
                raise FaultPlanError(
                    f"bad dip capacity {self.capacity!r}: {exc}"
                ) from exc
            if cap < 0 or cap > 1:
                raise FaultPlanError(
                    f"dip capacity must lie in [0, 1], got {cap}"
                )
            object.__setattr__(self, "capacity", cap)
            if self.processor is not None or self.job is not None:
                raise FaultPlanError("dip event takes only a capacity")
        else:  # abort
            if not isinstance(self.job, int) or self.job < 0:
                raise FaultPlanError("abort event needs a job id >= 0")
            if self.processor is not None or self.capacity is not None:
                raise FaultPlanError("abort event takes only a job id")

    def to_jsonable(self) -> Dict:
        record: Dict = {"t": self.t, "kind": self.kind}
        if self.processor is not None:
            record["processor"] = self.processor
        if self.capacity is not None:
            record["capacity"] = str(self.capacity)
        if self.job is not None:
            record["job"] = self.job
        return record

    @classmethod
    def from_jsonable(cls, data: Dict) -> "FaultEvent":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault event must be an object, got {data!r}")
        known = {"t", "kind", "processor", "capacity", "job"}
        extra = set(data) - known
        if extra:
            raise FaultPlanError(f"unknown fault event fields {sorted(extra)}")
        capacity = data.get("capacity")
        if capacity is not None:
            try:
                capacity = Fraction(capacity)
            except (ValueError, ZeroDivisionError) as exc:
                raise FaultPlanError(f"bad capacity {capacity!r}: {exc}") from exc
        return cls(
            t=data.get("t", -1),
            kind=data.get("kind", "?"),
            processor=data.get("processor"),
            capacity=capacity,
            job=data.get("job"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A time-sorted tuple of :class:`FaultEvent` records.

    Construction normalizes the order (stable sort by ``t``, so same-step
    events keep their given relative order — a ``restore`` written after a
    ``crash`` at the same ``t`` is applied after it).
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: e.t)
        )
        object.__setattr__(self, "events", ordered)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def counts(self) -> Dict[str, int]:
        """Event counts per kind (only kinds that occur)."""
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def horizon(self) -> int:
        """Time of the last event (0 for an empty plan)."""
        return self.events[-1].t if self.events else 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls(())

    @classmethod
    def create(cls, events: Iterable[FaultEvent]) -> "FaultPlan":
        return cls(tuple(events))

    @classmethod
    def random(
        cls,
        seed: int,
        m: int,
        n_jobs: Optional[int] = None,
        horizon: int = 100,
        events: int = 6,
        allow_aborts: bool = True,
    ) -> "FaultPlan":
        """A seeded random plan over ``m`` processors.

        Deterministic given the arguments (pure :class:`random.Random`
        integer draws — stable across platforms and worker counts).  The
        generator keeps the plan *self-consistent*: it never crashes the
        last online processor, only restores crashed ones, and alternates
        dips with recoveries to full capacity.
        """
        if m < 1:
            raise FaultPlanError("m must be >= 1")
        if events < 0:
            raise FaultPlanError("events must be >= 0")
        rng = random.Random(seed)
        down: set = set()
        dipped = False
        out: List[FaultEvent] = []
        gap = max(1, horizon // max(events, 1))
        t = 0
        for _ in range(events):
            t += rng.randint(1, gap)
            kinds = ["dip"]
            if len(down) < m - 1:
                kinds.append("crash")
            if down:
                kinds.append("restore")
            if allow_aborts and n_jobs:
                kinds.append("abort")
            kind = rng.choice(kinds)
            if kind == "crash":
                p = rng.choice(sorted(set(range(m)) - down))
                down.add(p)
                out.append(FaultEvent(t=t, kind="crash", processor=p))
            elif kind == "restore":
                p = rng.choice(sorted(down))
                down.discard(p)
                out.append(FaultEvent(t=t, kind="restore", processor=p))
            elif kind == "dip":
                if dipped:
                    cap = Fraction(1)
                else:
                    cap = Fraction(rng.randint(1, 3), 4)
                dipped = not dipped
                out.append(FaultEvent(t=t, kind="dip", capacity=cap))
            else:
                out.append(
                    FaultEvent(t=t, kind="abort", job=rng.randrange(n_jobs))
                )
        return cls(tuple(out))

    # ------------------------------------------------------------------
    # Exact JSON round-trip
    # ------------------------------------------------------------------

    def to_jsonable(self) -> Dict:
        return {
            "schema": 1,
            "events": [ev.to_jsonable() for ev in self.events],
        }

    @classmethod
    def from_jsonable(cls, data: Dict) -> "FaultPlan":
        if not isinstance(data, dict) or "events" not in data:
            raise FaultPlanError(
                "fault plan document must be an object with an 'events' list"
            )
        events = data["events"]
        if not isinstance(events, list):
            raise FaultPlanError("'events' must be a list")
        return cls(tuple(FaultEvent.from_jsonable(ev) for ev in events))

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"malformed fault plan JSON: {exc}") from exc
        return cls.from_jsonable(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())



class Machine:
    """The machine condition a :class:`FaultPlan` drives: the crashed
    processors (:attr:`down`), the per-step capacity and the plan cursor."""

    def __init__(self, plan: Optional[FaultPlan], m: int, down=(),
                 capacity=Fraction(1), next_event: int = 0) -> None:
        self.events = plan.events if plan else ()
        self.m, self.down = m, set(down)
        self.capacity, self.next_event = Fraction(capacity), next_event

    @property
    def online(self) -> Tuple[int, ...]:
        return tuple(p for p in range(self.m) if p not in self.down)

    def next_time(self) -> Optional[int]:
        """The step of the next pending event (None when none is left)."""
        if self.next_event < len(self.events):
            return self.events[self.next_event].t
        return None

    def advance(
        self, t: int, abort: Callable[[FaultEvent], bool], observer=None,
        layer: str = "",
    ) -> List[Tuple[FaultEvent, bool]]:
        """Apply the events due by step *t* in plan order; return each with
        whether it took effect.  A crash of a down or unknown processor, a
        restore of an up one and a dip to the capacity in effect are moot;
        ``abort(event)`` applies an abort.  *observer* gets ``on_fault``
        for each event, tagged with *layer*."""
        applied: List[Tuple[FaultEvent, bool]] = []
        events, down = self.events, self.down
        while self.next_event < len(events) and events[self.next_event].t <= t:
            ev = events[self.next_event]
            self.next_event += 1
            if ev.kind == "crash":
                ok = ev.processor < self.m and ev.processor not in down
                if ok:
                    down.add(ev.processor)
            elif ev.kind == "restore":
                ok = ev.processor in down
                down.discard(ev.processor)
            elif ev.kind == "dip":
                ok, self.capacity = ev.capacity != self.capacity, ev.capacity
            else:
                ok = abort(ev)
            applied.append((ev, ok))
            if observer is not None:
                observer.on_fault(ev, {"t": t, "applied": ok, "layer": layer})
        return applied

    def stall(self, t: int) -> Optional[int]:
        """None when the machine can run step ``t + 1``; when it is stalled
        (no online processor or zero capacity), the step of the next event.
        Raises :class:`FaultRecoveryError` if it is stalled for good."""
        if len(self.down) < self.m and self.capacity > 0:
            return None
        resume = self.next_time()
        if resume is None:
            raise FaultRecoveryError(
                f"machine stalled at step {t + 1} (no online processor or "
                "zero capacity) with no restoring event left in the plan"
            )
        return resume

"""What the four workloads share: the op loop, answer digests, percentiles.

A workload is a :class:`Workload` subclass.  Its process generates the
inputs from the seed (``prepare``), may boot a service (``boot``), runs
one warm-up op, then the timed window: ops back to back until the window
has lasted ``seconds`` and, for workloads that cycle through a fixed
input list, until the cycle is whole, so every input weighs the same in
every window.
"""

from __future__ import annotations

import math
import resource
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

from tracing import Tracer

__all__ = ["Window", "Workload", "completion_digest", "engine_metrics",
           "per_op", "percentile"]


def completion_digest(completion_times: Dict) -> List[int]:
    """Order-independent exact checksum of ``job -> completion step``.

    Job ids may arrive as ints (library results) or as strings (daemon
    answers); both give the same digest.
    """
    weighted = 0
    total = 0
    for job, step in completion_times.items():
        weighted += (2 * int(job) + 1) * step
        total += step
    return [len(completion_times), total, weighted]


def percentile(values: List[float], q: float) -> float:
    """The *q* quantile by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Window:
    """What one timed window measured."""

    latencies: List[float] = field(default_factory=list)
    jobs: int = 0
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0

    def op_seconds(self) -> float:
        return sum(self.latencies)


class Workload:
    """One benchmark workload; subclasses fill in the hooks below."""

    name = ""
    #: ops per pass over the fixed input list; a window ends on a pass
    #: boundary so each input is measured equally often
    cycle = 1

    def __init__(self, seed: int, workdir: str, tracer: Tracer,
                 traced_run: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        #: this process makes the traced run (untraced + traced windows)
        self.traced_run = traced_run
        self.problems: List[str] = []
        self.next_index = 0

    # -- hooks ------------------------------------------------------------

    def prepare(self) -> None:
        """Generate the inputs from the seed."""
        raise NotImplementedError

    def boot(self) -> None:
        """Start the service under test, if the workload has one."""

    def op(self, index: int, traced: bool):
        """Run op *index*; return what :meth:`verify` needs."""
        raise NotImplementedError

    def verify(self, index: int, answer) -> int:
        """Check one answer (record problems); return its job count."""
        raise NotImplementedError

    def probe(self, index: int) -> None:
        """Traced run only: layer measurements after op *index*, outside
        the op span."""

    def check(self) -> None:
        """End-of-run answer checks."""

    def close(self) -> None:
        """Stop what :meth:`boot` started."""

    def layer_metrics(self, window: Window) -> Dict[str, float]:
        """Per-layer metrics of the traced window (missing ones read 0)."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest process of this workload, in MiB."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, kids) / 1024.0

    # -- driving ----------------------------------------------------------

    def warmup(self) -> None:
        index = self.next_index
        self.next_index += 1
        self.verify(index, self.op(index, traced=False))

    def window(self, seconds: float, traced: bool) -> Window:
        """Run ops for *seconds* (whole cycles); tracing adds op spans."""
        win = Window()
        t0 = perf_counter()
        while win.attempted % self.cycle or perf_counter() - t0 < seconds:
            index = self.next_index
            self.next_index += 1
            win.attempted += 1
            answer = self._timed(index, traced, win)
            if answer is not None:
                win.jobs += self.verify(index, answer)
            if traced:
                self.probe(index)
        win.seconds = perf_counter() - t0
        return win

    def _timed(self, index: int, traced: bool, win: Window):
        t = perf_counter()
        try:
            if traced:
                with self.tracer.op(index):
                    answer = self.op(index, traced=True)
            else:
                answer = self.op(index, traced=False)
        except Exception:  # noqa: BLE001 - a raised op counts as failed
            win.failed += 1
            if win.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None
        win.latencies.append(perf_counter() - t)
        return answer

    def expect(self, ok: bool, message: str) -> None:
        """Record *message* as a wrong answer unless *ok*."""
        if not ok and len(self.problems) < 20:
            self.problems.append(message)


def per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def engine_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """The engine layer's per-op numbers from :class:`LayerObserver` spans
    and counts, over *ops* ops."""
    counts = tracer.counts
    decisions = counts["engine.decisions"]
    return {
        "engine.calls": per_op(counts["engine.calls"], ops),
        "engine.busy_s": per_op(tracer.busy("engine"), ops),
        "engine.scale_s": per_op(tracer.total("engine.scale"), ops),
        "engine.loop_s": per_op(tracer.total("engine.loop"), ops),
        "engine.emit_s": per_op(tracer.total("engine.emit"), ops),
        "engine.decisions": per_op(decisions, ops),
        "engine.steps": per_op(counts["engine.steps"], ops),
        "engine.steps_per_decision": per_op(counts["engine.steps"], decisions),
    }


"""In-memory spans and counts for the benchmark's traced run.

Spans are recorded by the benchmark around its calls into the program's
public functions; nothing inside ``src/`` is instrumented.  Each span has
a name, start, end, parent and op id; every span of one op or request
shares the op id.  The layer of a span is the part of its name before the
first dot (``engine.loop`` belongs to ``engine``).

A span's *self time* is its duration minus the part its child spans
cover.  A layer's busy time is the sum of the self times of its spans, so
phases recorded as children in the same layer (``engine`` →
``engine.loop``) add back up to the whole call.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from repro.obs import Observer

__all__ = ["Span", "Tracer", "LayerObserver"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Tracer:
    """Spans and counts, kept in memory until the run reports them.

    Safe to share between the daemon workload's two connection threads:
    each thread keeps its own span stack and op id.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> int:
        """A child of the innermost open span, timed by the caller."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        op = getattr(self._local, "op", None)
        with self._lock:
            self.spans.append(Span(name, start, end, parent, op))
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        """Time the block as a child of the innermost open span."""
        index = self.record(name, perf_counter(), 0.0)
        stack = self._stack()
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = perf_counter()

    @contextmanager
    def op(self, op_id: int):
        """An ``op`` root span; every span opened inside shares *op_id*."""
        self._local.op = op_id
        try:
            with self.span("op") as index:
                yield index
        finally:
            self._local.op = None

    def closed(self, name: str, seconds: float) -> None:
        """A child span that just ended after *seconds* (observer phases)."""
        end = perf_counter()
        self.record(name, end - seconds, end)

    def child_at(self, parent: int, name: str, start: float,
                 seconds: float) -> None:
        """A child of span *parent* recorded after the fact."""
        with self._lock:
            self.spans.append(Span(name, start, start + seconds, parent,
                                   self.spans[parent].op))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- reading --------------------------------------------------------

    def _children(self) -> Dict[int, List[int]]:
        children: Dict[int, List[int]] = defaultdict(list)
        for index, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(index)
        return children

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def busy(self, layer: str) -> float:
        """Summed self time of the spans of *layer*."""
        children = self._children()
        busy = 0.0
        for index, s in enumerate(self.spans):
            if s.layer != layer:
                continue
            inner = [
                (max(c.start, s.start), min(c.end, s.end))
                for c in (self.spans[i] for i in children.get(index, ()))
            ]
            busy += s.seconds - _covered(iv for iv in inner if iv[1] > iv[0])
        return busy

    def op_coverage(self) -> List[float]:
        """Per op span: the share of its time its child spans cover."""
        children = self._children()
        shares = []
        for index, s in enumerate(self.spans):
            if s.name != "op" or s.seconds <= 0:
                continue
            inner = [(self.spans[i].start, self.spans[i].end)
                     for i in children.get(index, ())]
            shares.append(_covered(inner) / s.seconds)
        return shares


class LayerObserver(Observer):
    """Turns a layer's ``observer=`` events into spans and counts.

    ``on_span`` phases become child spans named ``<layer>.<phase>`` (the
    sweep runner's ``sweep/lookup`` becomes ``sweep.lookup``);
    ``on_run_start`` counts an engine run and ``on_decision`` counts
    decisions and the time steps they cover.
    """

    def __init__(self, tracer: Tracer, layer: str) -> None:
        self.tracer = tracer
        self.layer = layer
        self.decisions = 0
        self.steps = 0

    def on_run_start(self, meta: Dict) -> None:
        self.tracer.count(f"{self.layer}.calls")

    def on_decision(self, state, decision) -> None:
        self.decisions += 1
        self.steps += decision.count

    def on_span(self, name: str, seconds: float) -> None:
        self.tracer.closed(f"{self.layer}.{name.rsplit('/', 1)[-1]}", seconds)

    def on_run_end(self, state, summary: Dict) -> None:
        self.tracer.count(f"{self.layer}.decisions", self.decisions)
        self.tracer.count(f"{self.layer}.steps", self.steps)
        self.decisions = self.steps = 0

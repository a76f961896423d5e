"""Mergeable metrics: counters, gauges and streaming histograms.

One :class:`MetricsRegistry` aggregates step-level quantities over any
number of engine runs.  The design constraints come from the parallel
sweep runner (:mod:`repro.perf.parallel`):

* **picklable** — a registry crosses a worker-process boundary as
  a plain object (only dicts, numbers and :class:`~fractions.Fraction`
  inside);
* **mergeable and order-insensitive** — :func:`merge_snapshots` of
  per-worker registries is independent of how trials were sharded, so a
  ``workers=4`` sweep aggregates to exactly the ``workers=1`` result
  (counters and histogram buckets add; gauges combine by max);
* **exact where it matters** — counters hold ``int``/``float``/``Fraction``
  values, so the accumulated ``total_waste`` equals the engine's
  field-for-field (the cross-check test in ``tests/test_obs.py``).

Histograms are streaming and fixed-size: values are bucketed by binary
exponent (bucket ``k`` covers ``[2^(k-1), 2^k)``; zero has its own
bucket), with exact ``count``/``total``/``min``/``max`` kept alongside —
enough for waste/utilization/window-size profiles without storing samples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Optional

__all__ = ["Histogram", "MetricsRegistry", "merge_snapshots"]


def _jsonable_number(value):
    """Counters/gauges may be exact Fractions; JSON gets them as strings."""
    if isinstance(value, Fraction):
        return str(value)
    return value


class Histogram:
    """Streaming log₂-bucketed histogram of non-negative floats."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: binary exponent -> observation count; 0.0 lands in bucket None
        self.buckets: Dict[Optional[int], int] = {}

    def observe(self, value: float, weight: int = 1, _frexp=math.frexp) -> None:
        # hot path: called once per engine decision by StatsObserver; the
        # locals/default-arg shaping keeps it inside the bench_obs gate
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        self.count += weight
        self.total += value * weight
        mn = self.min
        if mn is None or value < mn:
            self.min = value
        mx = self.max
        if mx is None or value > mx:
            self.max = value
        buckets = self.buckets
        key = None if value == 0 else _frexp(value)[1]
        buckets[key] = buckets.get(key, 0) + weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        for bound in ("min", "max"):
            mine, theirs = getattr(self, bound), getattr(other, bound)
            if theirs is not None and (
                mine is None or (theirs < mine if bound == "min" else theirs > mine)
            ):
                setattr(self, bound, theirs)
        for key, n in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + n

    def quantile(self, q: float) -> float:
        """Approximate *q*-quantile: the upper edge of the bucket in which
        the q-th observation falls (exact for the min/max endpoints)."""
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for key in sorted(self.buckets, key=lambda k: (-1, 0) if k is None else (0, k)):
            seen += self.buckets[key]
            if seen >= target:
                return 0.0 if key is None else float(2.0 ** key)
        return self.max or 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.count == other.count
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
            and self.buckets == other.buckets
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, mean={self.mean:.4g}, "
            f"min={self.min}, max={self.max})"
        )

    def to_jsonable(self) -> Dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": {
                "zero" if k is None else str(k): n
                for k, n in sorted(
                    self.buckets.items(),
                    key=lambda kv: (-1, 0) if kv[0] is None else (0, kv[0]),
                )
            },
        }


class MetricsRegistry:
    """Named counters, max-gauges and histograms; the unit of aggregation.

    The registry doubles as its own snapshot: it is picklable as-is, and
    :meth:`merge` folds another registry (e.g. from a worker process) into
    this one.  Counter values may be ``int``, ``float`` or ``Fraction``
    (exactness is preserved under ``+``); gauges combine by ``max`` so the
    merge result is independent of worker sharding.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, object] = {}
        self.gauges: Dict[str, object] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def inc(self, name: str, amount=1) -> None:
        """Add *amount* (int, float or Fraction) to counter *name*."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge_max(self, name: str, value) -> None:
        """Raise gauge *name* to *value* if larger (merge-stable)."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, value: float, weight: int = 1) -> None:
        """Record *value* into histogram *name* (created on first use)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value, weight)

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use.  Hot callers cache
        the returned object and call :meth:`Histogram.observe` directly."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        return hist

    # ------------------------------------------------------------------
    # Reading / aggregation
    # ------------------------------------------------------------------

    def counter(self, name: str, default=0):
        return self.counters.get(name, default)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other* into this registry; returns ``self``."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            self.gauge_max(name, value)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(hist)
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return (
            self.counters == other.counters
            and self.gauges == other.gauges
            and self.histograms == other.histograms
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )

    def to_jsonable(self) -> Dict:
        """Plain-JSON view (Fractions as strings, histograms summarized)."""
        return {
            "counters": {
                k: _jsonable_number(v) for k, v in sorted(self.counters.items())
            },
            "gauges": {
                k: _jsonable_number(v) for k, v in sorted(self.gauges.items())
            },
            "histograms": {
                k: h.to_jsonable() for k, h in sorted(self.histograms.items())
            },
        }


def merge_snapshots(snapshots: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Merge per-worker registries into a fresh one (order-insensitive for
    counters/histograms/gauges by construction)."""
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.merge(snap)
    return merged

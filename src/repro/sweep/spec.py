"""Declarative sweep specifications with deterministic point identities.

A :class:`SweepSpec` names a sweep, enumerates its points (either an
explicit ordered list of parameter dicts or the cartesian product of named
axes) and carries the pure ``run_point`` callable that solves one point.
Three invariants make the fabric work:

* **Determinism** — a point's parameters fully determine its result.  All
  randomness must come from a seed *inside* ``params`` (conventionally
  injected via :func:`repro.perf.seed_for` at spec-build time), never from
  global state, so a point re-run on any worker, shard or resume produces
  the same row.
* **Content addressing** — every point gets a stable key: the SHA-256 of
  the canonical JSON of ``{sweep, version, params}``.  Two sweeps that
  enumerate the same parameters share keys, so overlapping sweeps only
  solve new points (see :mod:`repro.sweep.store`).
* **Picklability** — ``run_point`` must be a module-level function taking
  one ``dict`` argument and returning a JSON-serializable row, so it fans
  out to :class:`repro.perf.WorkerPool` worker processes.

``version`` is the code-version salt: bump it (e.g. when the kernel or the
row schema changes) and every cached result is invalidated at once.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["SweepPoint", "SweepSpec", "canonical_json", "point_key"]


def canonical_json(obj) -> str:
    """The one canonical JSON text of *obj*: sorted keys, no whitespace.

    Raises :class:`TypeError` for values that do not round-trip through
    JSON (sets, Fractions, …) — point parameters must be JSON-native so
    the content address is platform- and run-independent.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
        ensure_ascii=True,
    )


def point_key(sweep: str, version: str, params: Mapping) -> str:
    """Content address of one sweep point (64 hex chars)."""
    text = canonical_json(
        {"sweep": sweep, "version": version, "params": dict(params)}
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep: its position, parameters and content address."""

    index: int
    params: Dict
    key: str


@dataclass
class SweepSpec:
    """A named, versioned, enumerable sweep.

    Build one with :meth:`from_points` (explicit ordered parameter dicts —
    the general case, e.g. an n-sweep concatenated with an m-sweep) or
    :meth:`from_axes` (cartesian product of named axes in insertion
    order).  ``serial=True`` forces single-process execution of uncached
    points — required for timing benches, where concurrent workers would
    contend for cores and distort the measured wall clock.
    """

    name: str
    run_point: Callable[[Dict], object]
    points: List[SweepPoint] = field(default_factory=list)
    version: str = ""
    serial: bool = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_points(
        cls,
        name: str,
        run_point: Callable[[Dict], object],
        params_list: Sequence[Mapping],
        version: str = "",
        serial: bool = False,
    ) -> "SweepSpec":
        """Spec over an explicit ordered list of parameter dicts."""
        points = [
            SweepPoint(
                index=i, params=dict(p), key=point_key(name, version, p)
            )
            for i, p in enumerate(params_list)
        ]
        return cls(
            name=name, run_point=run_point, points=points,
            version=version, serial=serial,
        )

    @classmethod
    def from_axes(
        cls,
        name: str,
        run_point: Callable[[Dict], object],
        axes: Mapping[str, Sequence],
        base_seed: Optional[int] = None,
        seed_key: str = "seed",
        version: str = "",
        serial: bool = False,
    ) -> "SweepSpec":
        """Spec over the cartesian product of *axes* (insertion order; the
        last axis varies fastest).  When *base_seed* is given, each point
        additionally gets ``params[seed_key] = seed_for(base_seed, index)``
        — the same per-index derivation every existing sweep uses, so the
        grid stays worker-count and shard-count independent.
        """
        from ..perf.parallel import seed_for

        names = list(axes)
        params_list = []
        for i, combo in enumerate(
            itertools.product(*(axes[a] for a in names))
        ):
            params = dict(zip(names, combo))
            if base_seed is not None:
                params[seed_key] = seed_for(base_seed, i)
            params_list.append(params)
        return cls.from_points(
            name, run_point, params_list, version=version, serial=serial
        )

    # ------------------------------------------------------------------
    # Identity / selection
    # ------------------------------------------------------------------

    @property
    def spec_key(self) -> str:
        """Identity of the whole enumeration (first 16 hex chars)."""
        text = canonical_json(
            {"name": self.name, "version": self.version,
             "keys": [p.key for p in self.points]}
        )
        return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]

    def select(self, shard: Optional[Tuple[int, int]] = None) -> List[SweepPoint]:
        """The points this process should handle: all of them, or the
        ``index % k == i`` residue class for ``shard=(i, k)``."""
        if shard is None:
            return list(self.points)
        i, k = shard
        if k < 1 or not (0 <= i < k):
            raise ValueError(f"invalid shard {i}/{k}: need 0 <= i < k")
        return [p for p in self.points if p.index % k == i]

    def __len__(self) -> int:
        return len(self.points)

"""Content-addressed result store: one JSON file per solved sweep point.

Layout under ``<cache_dir>/<sweep-name>/``::

    ab/<64-hex-key>.json     one payload {"key", "params", "row"} per point
    STATE.json               last checkpointed progress (see runner)
    HEARTBEAT.jsonl          start/batch/interrupt/end records (see runner)

Writes are atomic (temp file + :func:`os.replace` in the same directory),
so a killed sweep never leaves a torn payload — at worst the in-flight
batch is absent and gets re-solved on resume.  Because the key is the
SHA-256 of the point's canonical parameters (:func:`repro.sweep.spec.point_key`),
repeated and overlapping sweeps — a resumed run, another shard, a larger
grid sharing cells — all hit the same files and only solve new points.

A corrupt or unreadable payload is treated as a miss (and re-solved),
never as an error: the cache is an accelerator, not a source of truth.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping, Optional

__all__ = ["ResultStore", "NullStore", "DEFAULT_CACHE_DIR"]

#: default on-disk location (gitignored; override with ``--cache-dir``)
DEFAULT_CACHE_DIR = ".repro-cache/sweeps"


class ResultStore:
    """Filesystem-backed content-addressed store for one sweep's rows."""

    def __init__(self, root, sweep: str) -> None:
        self.dir = Path(root) / sweep
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.dir / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------

    def get(self, key: str):
        """The cached row for *key*, or ``None`` (counted as hit/miss)."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            row = payload["row"]
        except (OSError, ValueError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return row

    def contains(self, key: str) -> bool:
        """Existence check that does not touch the hit/miss counters."""
        return self._path(key).is_file()

    def put(self, key: str, params: Mapping, row) -> None:
        """Atomically persist *row* under *key*."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # the pid keeps concurrent writers' temp files apart; the content
        # key itself is pid-free (hash of canonical params)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"  # lint: ok-derived-identity temp-file name only, never an identity
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"key": key, "params": dict(params), "row": row}, fh)
            fh.write("\n")
        os.replace(tmp, path)

    def count(self) -> int:
        """Number of cached point payloads on disk."""
        if not self.dir.is_dir():
            return 0
        return sum(1 for _ in self.dir.glob("??/*.json"))


class NullStore:
    """Cache-disabled stand-in: every lookup misses, nothing persists."""

    dir: Optional[Path] = None

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        self.misses += 1
        return None

    def contains(self, key: str) -> bool:
        return False

    def put(self, key: str, params: Mapping, row) -> None:
        pass

    def count(self) -> int:
        return 0

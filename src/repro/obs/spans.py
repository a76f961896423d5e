"""Hierarchical trace spans with deterministic identities.

One *trace* describes one distributed run — typically a sweep — as a
rooted tree of *spans*: the sweep itself is the root, its ``sweep/lookup``
and ``sweep/solve`` phases hang off the root, every solved point hangs off
``sweep/solve``, and the engine phases (``scale``/``loop``/``emit``/
``validate``) of the solves performed *inside pool workers* hang off their
point.  The pieces that make this work across processes:

* **Deterministic identities** — ``trace_id`` is derived from the sweep's
  content identity (name, version, ``spec_key``) and every ``span_id`` is
  a hash of its parent id plus a stable discriminator (the phase name and
  its per-parent sequence number; the point's content-address key).  No
  clock, pid or RNG enters an id, so the same sweep produces the same
  tree whether it ran on 1 worker or 64, in one process or across shards.
* **Sharded emission** — each process appends records to its own
  ``spans-<pid>.jsonl`` shard under the run's checkpoint directory (one
  :class:`DegradingJsonlWriter` per shard: a write failure warns once and
  disables itself — telemetry can never kill a sweep).
* **Context propagation** — the sweep runner hands each pool task a
  :class:`SpanContext`; the worker activates it around the solve, and
  :func:`repro.obs.setup_observer` composes a :class:`SpanShardObserver`
  for every engine entry point that runs while a context is active, so
  engine phase spans land in the worker's shard, parented to the point.
* **Deterministic merge** — :func:`merge_spans` reads every shard,
  de-duplicates by ``span_id`` (a re-solved point re-emits structurally
  identical records), validates that the result is one rooted tree, and
  orders records canonically.  :func:`canonical_trace_lines` renders them
  without wall-clock fields, so the merged trace is **byte-identical**
  across worker counts, shard layouts and interrupt patterns — the
  property ``make telemetry-smoke`` gates.

The module is stdlib-only (like the rest of :mod:`repro.obs`) and holds
no engine imports; the active context is plain module state, cheap enough
that un-traced runs pay one ``is None`` check.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .observer import Observer

__all__ = [
    "SPAN_SCHEMA",
    "MERGED_TRACE_NAME",
    "DegradingJsonlWriter",
    "SpanContext",
    "SpanShardObserver",
    "activate_context",
    "deactivate_context",
    "active_context",
    "activated",
    "derive_trace_id",
    "derive_span_id",
    "shard_path",
    "shard_writer",
    "write_span",
    "iter_span_shards",
    "merge_spans",
    "canonical_trace_lines",
    "write_merged_trace",
]

#: schema version stamped on every span record
SPAN_SCHEMA = 1

#: canonical filename of the merged trace written next to the shards
MERGED_TRACE_NAME = "TRACE.jsonl"

#: span-shard filename prefix (suffix is the writing process's pid)
_SHARD_PREFIX = "spans-"

#: record fields that carry wall-clock (excluded from the canonical view)
_TIMING_FIELDS = ("seconds", "ts")


def derive_trace_id(*parts: str) -> str:
    """Deterministic 32-hex trace identity from *parts* (no clock/RNG)."""
    text = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def derive_span_id(*parts: str) -> str:
    """Deterministic 16-hex span identity from *parts*.

    Callers pass the parent span id plus a stable discriminator (phase
    name and sequence number, or a point's content-address key), so equal
    work gets equal ids in every process layout.
    """
    text = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Degrading JSONL writer (shared by span shards and heartbeats)
# ---------------------------------------------------------------------------


class DegradingJsonlWriter:
    """Append JSON records to *path*; never raises out of :meth:`write`.

    The contract every telemetry emitter in the repo follows (it matches
    :class:`~repro.obs.trace_out.JsonlTraceObserver`): on the first
    :class:`OSError`/:class:`ValueError` the writer emits one
    :class:`RuntimeWarning` and disables itself — all further writes are
    no-ops, and whatever was already written is left intact.  Each record
    is written with its own open/append/close so concurrent processes
    (shard runners appending heartbeats to one file) interleave at line
    granularity.
    """

    __slots__ = ("path", "label", "disabled")

    def __init__(self, path, label: str = "telemetry") -> None:
        self.path = Path(path)
        self.label = label
        self.disabled = False

    def write(self, record: Dict) -> None:
        if self.disabled:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
                fh.write("\n")
        except (OSError, ValueError) as exc:
            self.disabled = True
            warnings.warn(
                f"{self.label} output to {str(self.path)!r} failed ({exc}); "
                f"{self.label} disabled for the rest of the run",
                RuntimeWarning,
                stacklevel=2,
            )


# ---------------------------------------------------------------------------
# Span context (propagated into pool workers by the sweep runner)
# ---------------------------------------------------------------------------


@dataclass
class SpanContext:
    """The ambient span a process is currently working under.

    ``span_id`` is the parent for any span recorded while the context is
    active; ``seq`` hands out per-name sequence numbers so repeated
    phases (one engine run per rep, several segments per fault run) get
    distinct — but deterministic — identities.
    """

    span_dir: str
    trace_id: str
    span_id: str
    seq: Dict[str, int] = field(default_factory=dict)

    def next_seq(self, name: str) -> int:
        n = self.seq.get(name, 0)
        self.seq[name] = n + 1
        return n


#: the process-local active context (``None`` = spans disabled: the only
#: cost an un-traced engine run pays is this read)
_ACTIVE: Optional[SpanContext] = None


def activate_context(ctx: SpanContext) -> None:
    """Install *ctx* as this process's active span context."""
    global _ACTIVE
    _ACTIVE = ctx


def deactivate_context() -> None:
    """Clear the active span context."""
    global _ACTIVE
    _ACTIVE = None


def active_context() -> Optional[SpanContext]:
    """The active :class:`SpanContext`, or ``None``."""
    return _ACTIVE


@contextmanager
def activated(ctx: SpanContext):
    """Activate *ctx* for the duration of the block (restores the
    previous context on exit, so nesting is safe)."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = ctx
    try:
        yield ctx
    finally:
        _ACTIVE = prev


# ---------------------------------------------------------------------------
# Shard emission
# ---------------------------------------------------------------------------


def shard_path(span_dir) -> Path:
    """This process's span-shard file under *span_dir*."""
    # the pid names the per-process *shard file* only; span identities are
    # pid-free and the merge de-duplicates, so the layout never leaks into
    # the canonical trace
    return Path(span_dir) / f"{_SHARD_PREFIX}{os.getpid()}.jsonl"  # lint: ok-derived-identity shard filename only, never an identity


#: per-process writer cache, keyed by span dir — so a broken span dir
#: warns once per process, not once per task
_WRITERS: Dict[str, DegradingJsonlWriter] = {}


def shard_writer(span_dir) -> DegradingJsonlWriter:
    """The (cached) degrading writer for this process's shard."""
    key = str(span_dir)
    writer = _WRITERS.get(key)
    if writer is None:
        writer = _WRITERS[key] = DegradingJsonlWriter(
            shard_path(span_dir), label="span shard"
        )
    return writer


def write_span(
    writer: DegradingJsonlWriter,
    trace_id: str,
    span_id: str,
    parent_id: Optional[str],
    name: str,
    seconds: Optional[float] = None,
    attrs: Optional[Dict] = None,
) -> Dict:
    """Write one span record; returns the record (tests, chaining)."""
    record: Dict = {
        "schema": SPAN_SCHEMA,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
    }
    if attrs:
        record["attrs"] = attrs
    if seconds is not None:
        record["seconds"] = round(seconds, 9)
    writer.write(record)
    return record


class SpanShardObserver(Observer):
    """Turn engine ``on_span`` phase events into span-shard records.

    Composed by :func:`repro.obs.setup_observer` whenever a
    :class:`SpanContext` is active in the process, so a pool worker's
    engine phases nest under the point span its runner assigned — without
    the pure ``run_point`` function knowing anything about telemetry.
    """

    __slots__ = ("ctx", "writer")

    def __init__(
        self,
        ctx: SpanContext,
        writer: Optional[DegradingJsonlWriter] = None,
    ) -> None:
        self.ctx = ctx
        self.writer = writer if writer is not None else shard_writer(
            ctx.span_dir
        )

    def on_span(self, name: str, seconds: float) -> None:
        ctx = self.ctx
        seq = ctx.next_seq(name)
        write_span(
            self.writer,
            trace_id=ctx.trace_id,
            span_id=derive_span_id(ctx.span_id, name, str(seq)),
            parent_id=ctx.span_id,
            name=name,
            seconds=seconds,
            attrs={"seq": seq},
        )


def span_observer_from_context() -> Optional[SpanShardObserver]:
    """A :class:`SpanShardObserver` for the active context, or ``None``."""
    ctx = _ACTIVE
    if ctx is None:
        return None
    return SpanShardObserver(ctx)


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


def iter_span_shards(span_dir) -> Iterator[Dict]:
    """Stream raw records from every shard under *span_dir* (filename
    order; blank and torn trailing lines are skipped, mid-file garbage
    raises — a shard is append-only, so only its tail can be torn)."""
    root = Path(span_dir)
    for shard in sorted(root.glob(f"{_SHARD_PREFIX}*.jsonl")):
        with open(shard, encoding="utf-8") as fh:
            lines = fh.readlines()
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                if line_no == len(lines):
                    continue  # torn final line of a killed writer
                raise ValueError(
                    f"{shard}:{line_no}: invalid span record: {exc}"
                ) from exc


def _structural_key(record: Dict) -> str:
    """Canonical text of a record's non-timing fields (dedup identity)."""
    return json.dumps(
        {k: v for k, v in record.items() if k not in _TIMING_FIELDS},
        sort_keys=True, separators=(",", ":"),
    )


def merge_spans(span_dir) -> List[Dict]:
    """Merge every shard under *span_dir* into one validated, canonically
    ordered rooted trace.

    * records are de-duplicated by ``span_id`` (identities are
      deterministic, so a re-solved point re-emits structurally identical
      records; of duplicates, the one with the smallest wall clock is
      kept — ambient load only ever inflates a measurement);
    * the result must be **one rooted tree**: exactly one record with
      ``parent_id: null`` and every other parent resolvable, else
      :class:`ValueError`;
    * ordering is canonical: each record sorts by its root-to-span path,
      children ordered by ``(point index, name, span_id)`` — independent
      of shard layout, worker count and filesystem enumeration order.
    """
    by_id: Dict[str, Dict] = {}
    n_records = 0
    for record in iter_span_shards(span_dir):
        n_records += 1
        span_id = record.get("span_id")
        if not span_id:
            raise ValueError(f"span record without span_id: {record}")
        current = by_id.get(span_id)
        if current is None:
            by_id[span_id] = record
            continue
        if _structural_key(current) != _structural_key(record):
            raise ValueError(
                f"span id collision with divergent structure: {span_id}"
            )
        if record.get("seconds", 0.0) < current.get("seconds", 0.0):
            by_id[span_id] = record
    if not by_id:
        raise ValueError(f"no span records under {str(span_dir)!r}")

    roots = [r for r in by_id.values() if r.get("parent_id") is None]
    if len(roots) != 1:
        raise ValueError(
            f"merged trace must have exactly one root span, found "
            f"{len(roots)} (of {len(by_id)} spans)"
        )
    orphans = [
        r["span_id"]
        for r in by_id.values()
        if r.get("parent_id") is not None and r["parent_id"] not in by_id
    ]
    if orphans:
        raise ValueError(
            f"{len(orphans)} span(s) have unresolvable parents "
            f"(e.g. {orphans[0]}) — trace is not a single rooted tree"
        )

    def sort_part(record: Dict) -> Tuple:
        attrs = record.get("attrs") or {}
        index = attrs.get("index")
        return (
            0 if isinstance(index, int) else 1,
            index if isinstance(index, int) else 0,
            record["name"],
            record["span_id"],
        )

    paths: Dict[str, Tuple] = {}

    def path_of(record: Dict) -> Tuple:
        span_id = record["span_id"]
        cached = paths.get(span_id)
        if cached is None:
            parent_id = record.get("parent_id")
            prefix = () if parent_id is None else path_of(by_id[parent_id])
            cached = paths[span_id] = prefix + (sort_part(record),)
        return cached

    return sorted(by_id.values(), key=path_of)


def canonical_trace_lines(
    records: List[Dict], timings: bool = False
) -> List[str]:
    """Render merged *records* as canonical JSONL lines.

    Without *timings* every wall-clock field is dropped, so the text is
    **byte-identical** across worker counts and shard layouts (the
    identities and ordering already are); with ``timings=True`` the
    measured ``seconds`` ride along for human consumption.
    """
    lines = []
    for record in records:
        if not timings:
            record = {
                k: v for k, v in record.items() if k not in _TIMING_FIELDS
            }
        lines.append(json.dumps(record, sort_keys=True,
                                separators=(",", ":")))
    return lines


def write_merged_trace(
    span_dir, out: Optional[str] = None, timings: bool = False
) -> Path:
    """Merge the shards under *span_dir* and write the canonical trace.

    Default output is ``TRACE.jsonl`` next to the shards; returns the
    written path.  Raises :class:`ValueError` for a missing/empty shard
    directory or a non-rooted trace.
    """
    records = merge_spans(span_dir)
    path = Path(out) if out is not None else Path(span_dir) / MERGED_TRACE_NAME
    text = "\n".join(canonical_trace_lines(records, timings=timings))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path

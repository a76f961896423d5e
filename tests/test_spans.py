"""Tests for hierarchical trace spans (:mod:`repro.obs.spans`).

The subsystem's contract, verified end to end:

* span identities are pure functions of content (no clock/pid/RNG), so
  the same sweep yields the same ids in every process layout;
* shard writers degrade like every other telemetry emitter — one
  :class:`RuntimeWarning`, then silence;
* :func:`merge_spans` de-duplicates by id, validates one rooted tree and
  orders canonically; the canonical text drops wall-clock fields;
* a spanned ``run_sweep`` produces a merged trace **byte-identical**
  across worker counts and shard layouts, with engine phases nested
  under their point.
"""

import json
import warnings

import pytest

from repro.obs.spans import (
    DegradingJsonlWriter,
    SpanContext,
    SpanShardObserver,
    activated,
    active_context,
    canonical_trace_lines,
    derive_span_id,
    derive_trace_id,
    iter_span_shards,
    merge_spans,
    shard_path,
    write_merged_trace,
)
from repro.sweep import SweepSpec
from repro.sweep.runner import SPAN_DIR_NAME, run_sweep
from repro.sweep.store import ResultStore


def _double(params):
    return {"x": params["x"], "y": params["x"] * 2}


def _spec(n=6, name="span-sweep"):
    return SweepSpec.from_axes(
        name, _double, {"x": list(range(n))}, base_seed=3, version="v1"
    )


def _shard_file(span_dir, name, records):
    span_dir.mkdir(parents=True, exist_ok=True)
    with open(span_dir / name, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def _rec(span_id, parent_id, name, seconds=None, **attrs):
    record = {
        "schema": 1, "trace_id": "t" * 32, "span_id": span_id,
        "parent_id": parent_id, "name": name,
    }
    if attrs:
        record["attrs"] = attrs
    if seconds is not None:
        record["seconds"] = seconds
    return record


# ---------------------------------------------------------------------------
# Identities and context
# ---------------------------------------------------------------------------


class TestIdentities:
    def test_derivation_is_deterministic(self):
        assert derive_trace_id("a", "b") == derive_trace_id("a", "b")
        assert derive_span_id("p", "loop", "0") == derive_span_id(
            "p", "loop", "0"
        )
        assert derive_trace_id("a", "b") != derive_trace_id("b", "a")
        assert len(derive_trace_id("x")) == 32
        assert len(derive_span_id("x")) == 16

    def test_part_boundaries_matter(self):
        # "ab"+"c" must not collide with "a"+"bc"
        assert derive_span_id("ab", "c") != derive_span_id("a", "bc")

    def test_context_activation_restores_previous(self):
        outer = SpanContext("d", "t" * 32, "o" * 16)
        inner = SpanContext("d", "t" * 32, "i" * 16)
        assert active_context() is None
        with activated(outer):
            assert active_context() is outer
            with activated(inner):
                assert active_context() is inner
            assert active_context() is outer
        assert active_context() is None

    def test_context_sequence_numbers(self):
        ctx = SpanContext("d", "t" * 32, "p" * 16)
        assert [ctx.next_seq("loop"), ctx.next_seq("loop")] == [0, 1]
        assert ctx.next_seq("emit") == 0

    def test_observer_derives_distinct_sequenced_ids(self, tmp_path):
        ctx = SpanContext(str(tmp_path), "t" * 32, "p" * 16)
        obs = SpanShardObserver(
            ctx, writer=DegradingJsonlWriter(tmp_path / "spans-x.jsonl")
        )
        obs.on_span("loop", 0.5)
        obs.on_span("loop", 0.25)
        records = list(iter_span_shards(tmp_path))
        assert [r["attrs"]["seq"] for r in records] == [0, 1]
        assert records[0]["span_id"] != records[1]["span_id"]
        assert all(r["parent_id"] == "p" * 16 for r in records)
        # replaying the same work re-derives the same ids
        replay = SpanContext(str(tmp_path), "t" * 32, "p" * 16)
        assert derive_span_id(
            replay.span_id, "loop", str(replay.next_seq("loop"))
        ) == records[0]["span_id"]


# ---------------------------------------------------------------------------
# Degrading writer
# ---------------------------------------------------------------------------


class TestDegradingWriter:
    def test_warns_once_then_disables(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        writer = DegradingJsonlWriter(
            blocker / "x.jsonl", label="span shard"
        )
        with pytest.warns(RuntimeWarning, match="span shard"):
            writer.write({"a": 1})
        assert writer.disabled
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            writer.write({"a": 2})  # silent no-op

    def test_appends_sorted_compact_lines(self, tmp_path):
        writer = DegradingJsonlWriter(tmp_path / "w.jsonl")
        writer.write({"b": 2, "a": 1})
        writer.write({"c": 3})
        lines = (tmp_path / "w.jsonl").read_text().splitlines()
        assert lines == ['{"a":1,"b":2}', '{"c":3}']


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


class TestMerge:
    def test_dedup_keeps_min_seconds(self, tmp_path):
        root = _rec("r" * 16, None, "sweep")
        _shard_file(tmp_path, "spans-1.jsonl",
                    [root, _rec("a" * 16, "r" * 16, "point", seconds=2.0)])
        _shard_file(tmp_path, "spans-2.jsonl",
                    [_rec("a" * 16, "r" * 16, "point", seconds=1.0)])
        merged = merge_spans(tmp_path)
        assert len(merged) == 2
        point = [r for r in merged if r["name"] == "point"][0]
        assert point["seconds"] == 1.0

    def test_structural_divergence_raises(self, tmp_path):
        _shard_file(tmp_path, "spans-1.jsonl",
                    [_rec("r" * 16, None, "sweep"),
                     _rec("a" * 16, "r" * 16, "point")])
        _shard_file(tmp_path, "spans-2.jsonl",
                    [_rec("a" * 16, "r" * 16, "other-name")])
        with pytest.raises(ValueError, match="divergent"):
            merge_spans(tmp_path)

    def test_zero_or_two_roots_raise(self, tmp_path):
        _shard_file(tmp_path, "spans-1.jsonl",
                    [_rec("r" * 16, None, "sweep"),
                     _rec("s" * 16, None, "sweep2")])
        with pytest.raises(ValueError, match="exactly one root"):
            merge_spans(tmp_path)

    def test_orphan_parent_raises(self, tmp_path):
        _shard_file(tmp_path, "spans-1.jsonl",
                    [_rec("r" * 16, None, "sweep"),
                     _rec("a" * 16, "missing0000000000", "point")])
        with pytest.raises(ValueError, match="unresolvable parents"):
            merge_spans(tmp_path)

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no span records"):
            merge_spans(tmp_path / "nothing")

    def test_torn_tail_skipped_midfile_garbage_raises(self, tmp_path):
        good = json.dumps(_rec("r" * 16, None, "sweep"))
        (tmp_path / "spans-1.jsonl").write_text(good + "\n{\"torn")
        assert len(merge_spans(tmp_path)) == 1
        (tmp_path / "spans-1.jsonl").write_text("{\"broken\n" + good + "\n")
        with pytest.raises(ValueError, match="invalid span record"):
            merge_spans(tmp_path)

    def test_canonical_lines_drop_wall_clock(self, tmp_path):
        _shard_file(tmp_path, "spans-1.jsonl",
                    [_rec("r" * 16, None, "sweep", seconds=1.25)])
        lines = canonical_trace_lines(merge_spans(tmp_path))
        assert "seconds" not in lines[0]
        timed = canonical_trace_lines(merge_spans(tmp_path), timings=True)
        assert '"seconds":1.25' in timed[0]

    def test_children_ordered_by_point_index(self, tmp_path):
        records = [_rec("r" * 16, None, "sweep")]
        for i in (2, 0, 1):
            records.append(
                _rec(f"{i}" * 16, "r" * 16, "point", index=i)
            )
        _shard_file(tmp_path, "spans-1.jsonl", records)
        merged = merge_spans(tmp_path)
        assert [r.get("attrs", {}).get("index") for r in merged] == [
            None, 0, 1, 2,
        ]


# ---------------------------------------------------------------------------
# End to end through run_sweep
# ---------------------------------------------------------------------------


class TestSweepSpans:
    def _trace(self, cache, workers, shards=None):
        spec = _spec()
        if shards:
            for i in range(shards):
                run_sweep(spec, cache_dir=str(cache), workers=workers,
                          shard=(i, shards), spans=True, checkpoint_every=2)
        run_sweep(spec, cache_dir=str(cache), workers=workers, spans=True,
                  checkpoint_every=2)
        span_dir = ResultStore(str(cache), spec.name).dir / SPAN_DIR_NAME
        return "\n".join(canonical_trace_lines(merge_spans(span_dir)))

    def test_byte_identity_across_layouts(self, tmp_path):
        t1 = self._trace(tmp_path / "a", workers=1)
        t4 = self._trace(tmp_path / "b", workers=4)
        tsh = self._trace(tmp_path / "c", workers=2, shards=2)
        assert t1 == t4 == tsh

    def test_tree_shape_and_point_coverage(self, tmp_path):
        text = self._trace(tmp_path / "a", workers=2)
        records = [json.loads(line) for line in text.splitlines()]
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "sweep"
        points = [r for r in records if r["name"] == "point"]
        assert len(points) == len(_spec())
        solve_id = derive_span_id(roots[0]["trace_id"], "sweep/solve")
        assert all(p["parent_id"] == solve_id for p in points)
        names = {r["name"] for r in records}
        assert {"sweep", "sweep/lookup", "sweep/solve"} <= names

    def test_cached_rerun_adds_no_new_spans(self, tmp_path):
        first = self._trace(tmp_path / "a", workers=2)
        again = self._trace(tmp_path / "a", workers=2)
        assert first == again

    def test_write_merged_trace_file(self, tmp_path):
        spec = _spec()
        run_sweep(spec, cache_dir=str(tmp_path), spans=True)
        span_dir = ResultStore(str(tmp_path), spec.name).dir / SPAN_DIR_NAME
        out = write_merged_trace(span_dir)
        assert out.name == "TRACE.jsonl"
        lines = out.read_text().splitlines()
        assert lines == canonical_trace_lines(merge_spans(span_dir))

    def test_spans_without_cache_dir_rejected(self):
        with pytest.raises(ValueError, match="cache_dir"):
            run_sweep(_spec(), spans=True)

    def test_shard_path_is_per_pid(self, tmp_path):
        import os

        assert shard_path(tmp_path).name == f"spans-{os.getpid()}.jsonl"

    def test_run_start_records_carry_trace_context(self, tmp_path,
                                                   monkeypatch):
        # a run trace recorded while a span context is active is
        # correlatable against the merged span tree (schema 2)
        import random

        from repro.engine.api import solve_srj
        from repro.obs import read_trace
        from repro.workloads import make_instance

        path = tmp_path / "run.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        ctx = SpanContext(str(tmp_path), "t" * 32, "p" * 16)
        with activated(ctx):
            solve_srj(
                make_instance("uniform", random.Random(0), 4, 12),
                backend="int",
            )
        starts = [
            r for r in read_trace(str(path)) if r["type"] == "run_start"
        ]
        assert starts and starts[0]["trace_id"] == "t" * 32
        assert starts[0]["parent_span"] == "p" * 16
        assert starts[0]["schema"] == 2

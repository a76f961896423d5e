"""Tests for the observability layer (repro.obs).

Covers the metrics registry (exactness, merging, pickling), observer
composition, the cross-check between the stats observer and the
scheduler's own accounting (both backends), JSONL trace round-trips,
the ``$REPRO_TRACE`` env hook, phase spans, and worker-count-independent
aggregation across ``parallel_map``.
"""

import pickle
import random
from fractions import Fraction

import pytest

from repro.core.scheduler import schedule_srj
from repro.core.unit import schedule_unit
from repro.core.validate import validate_result
from repro.engine.api import solve_srj
from repro.obs import (
    NULL_OBSERVER,
    Histogram,
    JsonlTraceObserver,
    MetricsRegistry,
    MultiObserver,
    Observer,
    StatsObserver,
    merge_snapshots,
    read_trace,
    setup_observer,
    span,
)
from repro.perf.parallel import parallel_map, seed_for
from repro.workloads import make_instance, unit_instance

BACKENDS = ("fraction", "int")


def _instance(seed, m=6, n=40, family="uniform"):
    return make_instance(family, random.Random(seed), m, n)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counters_preserve_exactness(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.inc("x", 2)
        reg.inc("waste", Fraction(1, 3))
        reg.inc("waste", Fraction(1, 6))
        assert reg.counter("x") == 3
        assert reg.counter("waste") == Fraction(1, 2)
        assert isinstance(reg.counter("waste"), Fraction)
        assert reg.counter("missing") == 0
        assert reg.counter("missing", None) is None

    def test_gauge_max(self):
        reg = MetricsRegistry()
        reg.gauge_max("g", 5)
        reg.gauge_max("g", 3)
        reg.gauge_max("g", 9)
        assert reg.gauges["g"] == 9

    def test_histogram_stats_and_zero_bucket(self):
        h = Histogram()
        h.observe(0.0, weight=2)
        h.observe(0.5)
        h.observe(3.0)
        assert h.count == 4
        assert h.total == pytest.approx(3.5)
        assert h.min == 0.0 and h.max == 3.0
        assert h.buckets[None] == 2  # zero bucket
        assert h.mean == pytest.approx(3.5 / 4)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) >= 3.0

    def test_histogram_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram().observe(-1.0)

    def test_histogram_merge_equals_combined(self):
        values = [0.0, 0.25, 1.0, 7.5, 0.1]
        a, b, combined = Histogram(), Histogram(), Histogram()
        for i, v in enumerate(values):
            (a if i % 2 else b).observe(v)
            combined.observe(v)
        a.merge(b)
        assert a == combined

    def test_merge_empty_and_nonempty_histograms(self):
        # a worker that saw no items contributes an empty registry; the
        # merge must be the identity in both directions (worker-count
        # independence for any shard layout, including empty shards)
        loaded = MetricsRegistry()
        loaded.inc("n", 3)
        loaded.observe("h", 0.5)
        loaded.observe("h", 4.0)
        empty = MetricsRegistry()
        a = merge_snapshots([loaded, empty])
        b = merge_snapshots([empty, loaded])
        assert a == b == loaded
        assert a.histograms["h"].count == 2
        both_empty = merge_snapshots([MetricsRegistry(), MetricsRegistry()])
        assert both_empty == MetricsRegistry()

    def test_registry_merge_and_snapshot_order_insensitive(self):
        regs = []
        for k in range(3):
            reg = MetricsRegistry()
            reg.inc("n", k + 1)
            reg.inc("waste", Fraction(1, k + 2))
            reg.gauge_max("peak", 10 * k)
            reg.observe("h", float(k))
            regs.append(reg)
        forward = merge_snapshots(regs)
        backward = merge_snapshots(reversed(regs))
        assert forward == backward
        assert forward.counter("n") == 6
        assert forward.counter("waste") == (
            Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4)
        )
        assert forward.gauges["peak"] == 20
        assert forward.histograms["h"].count == 3

    def test_registry_pickles(self):
        reg = MetricsRegistry()
        reg.inc("waste", Fraction(7, 30))
        reg.gauge_max("peak", 4)
        reg.observe("h", 2.5, weight=3)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone == reg
        assert clone.counter("waste") == Fraction(7, 30)

    def test_to_jsonable_renders_fractions_as_strings(self):
        import json

        reg = MetricsRegistry()
        reg.inc("waste", Fraction(1, 3))
        reg.observe("h", 0.0)
        payload = reg.to_jsonable()
        json.dumps(payload)  # must be plain JSON
        assert payload["counters"]["waste"] == "1/3"
        assert payload["histograms"]["h"]["buckets"] == {"zero": 1}


# ---------------------------------------------------------------------------
# Observer composition
# ---------------------------------------------------------------------------


class TestComposition:
    def test_setup_observer_default_is_bare(self):
        obs, metrics = setup_observer()
        assert obs is None and metrics is None

    def test_setup_observer_collect_stats(self):
        obs, metrics = setup_observer(collect_stats=True)
        assert isinstance(obs, StatsObserver)
        assert obs.metrics is metrics

    def test_setup_observer_composes_multi(self):
        extra = Observer()
        obs, metrics = setup_observer(observer=extra, collect_stats=True)
        assert isinstance(obs, MultiObserver)
        assert extra in obs.observers
        assert metrics is not None

    def test_span_none_is_passthrough(self):
        with span(None, "phase"):
            pass  # no observer, no clock

    def test_span_reports_to_observer(self):
        seen = []

        class Spy(Observer):
            def on_span(self, name, seconds):
                seen.append((name, seconds))

        with span(Spy(), "phase"):
            pass
        assert len(seen) == 1
        assert seen[0][0] == "phase"
        assert seen[0][1] >= 0.0


# ---------------------------------------------------------------------------
# Cross-check: observer accounting == scheduler result (Theorem 3.3 stats)
# ---------------------------------------------------------------------------


class TestStatsCrossCheck:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_srj_stats_match_result(self, backend, seed):
        inst = _instance(seed, m=4 + seed % 4, n=20 + 5 * seed)
        result = solve_srj(inst, backend=backend, collect_stats=True)
        reg = result.stats
        assert reg.counter("steps_total") == result.makespan
        assert reg.counter("steps_full_jobs") == result.steps_full_jobs
        assert (
            reg.counter("steps_full_resource") == result.steps_full_resource
        )
        # exact, bit-for-bit: accumulated in the working domain, converted
        # once per run
        assert reg.counter("total_waste") == result.total_waste
        assert reg.counter("runs_total") == 1
        assert reg.counter(f"runs_backend.{backend}") == (
            0 if backend == "auto" else 1
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_unit_stats_match_result(self, backend, seed):
        inst = unit_instance(random.Random(seed), 5, 30)
        result = schedule_unit(inst, backend=backend, collect_stats=True)
        reg = result.stats
        assert reg.counter("steps_total") == result.makespan
        assert reg.counter("total_waste") == result.total_waste
        assert reg.counter("steps_full_jobs") == result.steps_full_jobs
        assert reg.counter("runs_layer.unit") == 1

    def test_serial_m1_path_has_stats(self):
        inst = _instance(0, m=1, n=10)
        result = solve_srj(inst, collect_stats=True)
        reg = result.stats
        assert reg.counter("steps_total") == result.makespan
        assert reg.counter("total_waste") == result.total_waste

    @pytest.mark.parametrize("backend", ["fraction", "int"])
    def test_serial_m1_reports_its_backend(self, backend, tmp_path):
        # m = 1 computes in integers at D = lcm(L, den(budget)); the
        # telemetry names the backend the solve asked for, at that scale,
        # and a JSONL trace still reads back the exact shares
        inst = _instance(0, m=1, n=10)
        path = tmp_path / "serial.jsonl"
        tracer = JsonlTraceObserver(str(path))
        result = solve_srj(inst, backend=backend, observer=tracer,
                           collect_stats=True)
        tracer.close()
        reg = result.stats
        assert reg.counter(f"runs_backend.{backend}") == 1
        assert reg.gauges["denominator_bits_max"] == (
            inst.scale.bit_length() if backend == "int" else 1
        )
        runs = [r for r in read_trace(str(path)) if r["type"] == "run"]
        assert [r["shares"] for r in runs] == [
            {str(j): share for j, share in run.shares.items()}
            for run in result.trace
        ]

    def test_stats_histograms_populated(self):
        inst = _instance(1)
        result = solve_srj(inst, backend="int", collect_stats=True)
        hists = result.stats.histograms
        assert hists["step_waste"].count == result.makespan
        assert hists["window_size"].count == len(result.trace)
        assert hists["makespan"].count == 1
        assert hists["makespan"].max == float(result.makespan)


# ---------------------------------------------------------------------------
# Instrumentation must never change the schedule
# ---------------------------------------------------------------------------


class TestNoopEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_observer_does_not_change_result(self, backend):
        inst = _instance(7)
        bare = solve_srj(inst, backend=backend)
        observed = solve_srj(
            inst, backend=backend, observer=NULL_OBSERVER
        )
        stats = solve_srj(inst, backend=backend, collect_stats=True)
        for other in (observed, stats):
            assert other.makespan == bare.makespan
            assert other.completion_times == bare.completion_times
            assert other.total_waste == bare.total_waste
            assert other.trace == bare.trace


# ---------------------------------------------------------------------------
# JSONL traces
# ---------------------------------------------------------------------------


class TestJsonlTrace:
    def test_round_trip_matches_result_trace(self, tmp_path):
        inst = _instance(3)
        path = tmp_path / "run.jsonl"
        tracer = JsonlTraceObserver(str(path))
        result = solve_srj(inst, backend="int", observer=tracer)
        tracer.close()
        records = read_trace(str(path))
        runs = [r for r in records if r["type"] == "run"]
        starts = [r for r in records if r["type"] == "run_start"]
        summaries = [r for r in records if r["type"] == "summary"]
        assert len(starts) == 1 and len(summaries) == 1
        assert starts[0]["layer"] == "srj"
        assert starts[0]["backend"] == "int"
        # one record per RLE trace run, exact shares round-tripped
        assert len(runs) == len(result.trace)
        for rec, run in zip(runs, result.trace):
            assert rec["count"] == run.count
            assert rec["case"] == run.case
            assert rec["shares"] == {
                str(j): share for j, share in run.shares.items()
            }
            assert isinstance(rec["waste"], Fraction)
        assert sum(r["count"] for r in runs) == result.makespan
        s = summaries[0]
        assert s["makespan"] == result.makespan
        assert s["total_waste"] == result.total_waste

    def test_reader_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "run_start"}\n{oops\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(str(path))

    def test_env_var_appends_across_runs(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        solve_srj(_instance(4), backend="int")
        solve_srj(_instance(5), backend="fraction")
        records = read_trace(str(path))
        summaries = [r for r in records if r["type"] == "summary"]
        assert len(summaries) == 2
        backends = [
            r["backend"] for r in records if r["type"] == "run_start"
        ]
        assert backends == ["int", "fraction"]

    def test_env_var_not_double_applied_through_frontends(
        self, tmp_path, monkeypatch
    ):
        # schedule_srj pre-composes stats and passes an observer down to
        # the engine; the env tracer must still be installed exactly once
        path = tmp_path / "front.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        result = schedule_srj(_instance(6), collect_stats=True)
        records = read_trace(str(path))
        assert len([r for r in records if r["type"] == "run_start"]) == 1
        assert result.stats is not None

    def test_env_composes_with_explicit_observer(self, tmp_path,
                                                 monkeypatch):
        # $REPRO_TRACE composed alongside an explicit observer= must see
        # the same events the explicit observer sees — including spans —
        # and the explicit observer must behave exactly as it does when
        # tracing is off
        class Recorder(Observer):
            def __init__(self):
                self.events = []

            def on_run_start(self, meta):
                self.events.append(("run_start", meta.get("backend")))

            def on_decision(self, state, decision):
                self.events.append(("decision", decision.case))

            def on_span(self, name, seconds):
                self.events.append(("span", name))

            def on_run_end(self, state, summary):
                self.events.append(("run_end", summary.get("makespan")))

        inst = _instance(11, m=4, n=16)
        bare = Recorder()
        solve_srj(inst, backend="int", observer=bare)

        path = tmp_path / "composed.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        composed = Recorder()
        solve_srj(inst, backend="int", observer=composed)
        assert composed.events == bare.events

        records = read_trace(str(path))
        traced_spans = [
            r["name"] for r in records if r["type"] == "span"
        ]
        seen_spans = [
            name for kind, name in composed.events if kind == "span"
        ]
        assert traced_spans == seen_spans
        assert (
            len([r for r in records if r["type"] == "run"])
            == len([e for e in composed.events if e[0] == "decision"])
        )


# ---------------------------------------------------------------------------
# Phase spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_engine_phases_recorded(self):
        result = solve_srj(_instance(2), backend="int", collect_stats=True)
        counters = result.stats.counters
        for phase in ("scale", "loop", "emit"):
            assert counters[f"span_seconds.{phase}"] >= 0.0

    def test_validate_span(self):
        result = solve_srj(_instance(2), backend="int")
        obs = StatsObserver()
        report = validate_result(result, observer=obs)
        assert report.ok
        assert obs.metrics.counter("span_seconds.validate") > 0.0


# ---------------------------------------------------------------------------
# Aggregation across parallel workers
# ---------------------------------------------------------------------------


def _stats_shard(task):
    """Module-level (picklable) worker: solve one seeded instance and
    return its metrics registry, wall-clock spans stripped (they are the
    only non-deterministic entries)."""
    idx, s = task
    inst = make_instance("uniform", random.Random(s), 5, 24)
    reg = solve_srj(inst, backend="int", collect_stats=True).stats
    for key in [k for k in reg.counters if k.startswith("span_seconds.")]:
        del reg.counters[key]
    return reg


class TestParallelAggregation:
    def test_merged_snapshots_worker_count_independent(self):
        tasks = [(i, seed_for(13, i)) for i in range(8)]
        serial = merge_snapshots(parallel_map(_stats_shard, tasks, workers=1))
        fanned = merge_snapshots(parallel_map(_stats_shard, tasks, workers=4))
        assert serial == fanned
        assert serial.counter("runs_total") == len(tasks)
        assert serial.histograms["makespan"].count == len(tasks)


# ---------------------------------------------------------------------------
# Other layers expose the same surface
# ---------------------------------------------------------------------------


class TestOtherLayers:
    def test_srt_stats_aggregate_both_halves(self):
        from repro.tasks import solve_srt
        from repro.workloads import make_taskset

        ti = make_taskset("mixed", random.Random(0), 8, 10)
        res = solve_srt(ti, collect_stats=True)
        reg = res.stats
        assert reg.counter("runs_layer.sequential-tasks") == 2  # heavy+light
        assert reg.counter("steps_total") > 0

    def test_online_and_assigned_stats(self):
        from repro.assigned import schedule_assigned
        from repro.assigned.model import AssignedInstance
        from repro.online import schedule_online
        from repro.online.model import OnlineInstance, OnlineJob

        oi = OnlineInstance(
            m=3,
            jobs=(
                OnlineJob(id=0, size=2, requirement=Fraction(1, 2), release=1),
                OnlineJob(id=1, size=3, requirement=Fraction(1, 3), release=2),
            ),
        )
        res = schedule_online(oi, collect_stats=True)
        assert res.stats.counter("runs_layer.online") == 1
        assert res.stats.counter("steps_total") == res.makespan

        ai = AssignedInstance.create(
            [
                [(2, Fraction(1, 2)), (1, Fraction(1, 3))],
                [(3, Fraction(1, 4))],
            ]
        )
        ares = schedule_assigned(ai, collect_stats=True)
        assert ares.stats.counter("runs_layer.assigned") == 1
        assert ares.stats.counter("steps_total") == ares.makespan

    def test_simulator_stats(self):
        from repro.baselines import schedule_greedy_fill

        inst = _instance(9, m=4, n=12)
        res = schedule_greedy_fill(inst, collect_stats=True)
        assert res.stats.counter("runs_layer.simulator") == 1
        assert res.stats.counter("steps_total") == res.makespan

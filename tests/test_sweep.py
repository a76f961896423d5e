"""Tests for the experiment fabric (:mod:`repro.sweep`).

The fabric's contract, verified here end to end:

* cache hit/miss semantics — a second run of the same spec solves 0
  points; overlapping specs share content-addressed results;
* shard-count and worker-count independence of the merged report;
* kill-mid-sweep (deterministic ``stop_after`` interrupt) → resume
  produces a bit-identical final report.

Worker functions live at module level so they pickle into pool workers.
"""

import json

import pytest

from repro.perf.parallel import seed_for
from repro.sweep import (
    DEFAULT_CACHE_DIR,
    NullStore,
    ResultStore,
    SweepSpec,
    canonical_json,
    point_key,
    run_sweep,
    scale_grid,
    sweep_status,
)


def _double(params):
    """Cheap pure worker: deterministic in its params."""
    return {"x": params["x"], "y": params["x"] * 2, "seed": params["seed"]}


def _tupled(params):
    """Worker returning a tuple — must canonicalize to a list."""
    return (params["x"], params["x"] + 1)


def _spec(n=8, seed=7, name="test-sweep", version="v1"):
    return SweepSpec.from_axes(
        name, _double, {"x": list(range(n))}, base_seed=seed, version=version
    )


# ---------------------------------------------------------------------------
# Spec / content addressing
# ---------------------------------------------------------------------------


class TestSpec:
    def test_axes_product_order_and_seeds(self):
        spec = SweepSpec.from_axes(
            "s", _double, {"a": [1, 2], "b": ["x", "y"]}, base_seed=3
        )
        assert [p.params for p in spec.points] == [
            {"a": 1, "b": "x", "seed": seed_for(3, 0)},
            {"a": 1, "b": "y", "seed": seed_for(3, 1)},
            {"a": 2, "b": "x", "seed": seed_for(3, 2)},
            {"a": 2, "b": "y", "seed": seed_for(3, 3)},
        ]

    def test_point_keys_are_content_addresses(self):
        # same params -> same key, independent of index / enumeration
        k1 = point_key("s", "v1", {"a": 1, "b": 2})
        k2 = point_key("s", "v1", {"b": 2, "a": 1})
        assert k1 == k2 and len(k1) == 64
        # sweep name and version salt both invalidate
        assert point_key("s2", "v1", {"a": 1, "b": 2}) != k1
        assert point_key("s", "v2", {"a": 1, "b": 2}) != k1

    def test_canonical_json_rejects_non_json_params(self):
        with pytest.raises(TypeError):
            canonical_json({"bad": {1, 2}})

    def test_shard_selection(self):
        spec = _spec(n=7)
        all_indices = sorted(
            p.index for i in range(3) for p in spec.select((i, 3))
        )
        assert all_indices == list(range(7))
        with pytest.raises(ValueError):
            spec.select((3, 3))
        with pytest.raises(ValueError):
            spec.select((0, 0))

    def test_spec_key_stable(self):
        assert _spec().spec_key == _spec().spec_key
        assert _spec().spec_key != _spec(seed=8).spec_key


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


class TestStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = ResultStore(tmp_path, "s")
        assert store.get("ab" * 32) is None
        store.put("ab" * 32, {"a": 1}, {"row": [1, 2]})
        assert store.get("ab" * 32) == {"row": [1, 2]}
        assert (store.hits, store.misses) == (1, 1)
        assert store.count() == 1

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path, "s")
        key = "cd" * 32
        store.put(key, {}, {"v": 1})
        path = store._path(key)
        path.write_text("{not json")
        assert store.get(key) is None

    def test_null_store(self):
        store = NullStore()
        store.put("k", {}, {"v": 1})
        assert store.get("k") is None
        assert store.count() == 0

    def test_default_cache_dir_is_gitignored(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        ignored = (root / ".gitignore").read_text()
        assert DEFAULT_CACHE_DIR.split("/")[0] + "/" in ignored


# ---------------------------------------------------------------------------
# Runner: cache, shards, workers, resume
# ---------------------------------------------------------------------------


class TestRunner:
    def test_uncached_run_solves_everything(self):
        report = run_sweep(_spec())
        assert report.complete and report.solved == 8
        assert report.cache_hits == 0
        assert [r["x"] for r in report.rows] == list(range(8))

    def test_second_run_solves_zero_points(self, tmp_path):
        first = run_sweep(_spec(), cache_dir=tmp_path)
        second = run_sweep(_spec(), cache_dir=tmp_path)
        assert first.solved == 8 and second.solved == 0
        assert second.cache_hits == 8
        assert second.rows == first.rows

    def test_overlapping_sweeps_share_points(self, tmp_path):
        run_sweep(_spec(n=4), cache_dir=tmp_path)
        grown = run_sweep(_spec(n=8), cache_dir=tmp_path)
        # the first 4 points have identical content addresses
        assert grown.cache_hits == 4 and grown.solved == 4

    def test_worker_count_independence(self, tmp_path):
        serial = run_sweep(_spec(), workers=1)
        parallel = run_sweep(_spec(), workers=4)
        assert serial.rows == parallel.rows

    def test_shard_merge_identity(self, tmp_path):
        reference = run_sweep(_spec())
        for i in range(3):
            part = run_sweep(_spec(), cache_dir=tmp_path, shard=(i, 3))
            assert not part.complete
            assert len(part.rows) == part.total
        merged = run_sweep(_spec(), cache_dir=tmp_path)
        assert merged.solved == 0
        assert merged.cache_hits == 8
        assert merged.rows == reference.rows

    def test_interrupt_and_resume_bit_identical(self, tmp_path):
        reference = run_sweep(_spec())
        partial = run_sweep(
            _spec(), cache_dir=tmp_path, stop_after=3, checkpoint_every=1
        )
        assert not partial.complete and partial.solved == 3
        resumed = run_sweep(_spec(), cache_dir=tmp_path)
        assert resumed.complete
        assert resumed.cache_hits == 3 and resumed.solved == 5
        assert resumed.rows == reference.rows

    def test_rows_canonical_regardless_of_cache(self, tmp_path):
        spec = SweepSpec.from_points("t", _tupled, [{"x": 1}, {"x": 2}])
        fresh = run_sweep(spec, cache_dir=tmp_path)
        cached = run_sweep(spec, cache_dir=tmp_path)
        # tuples normalize to lists on the fresh path too
        assert fresh.rows == [[1, 2], [2, 3]] == cached.rows

    def test_version_salt_invalidates(self, tmp_path):
        run_sweep(_spec(version="v1"), cache_dir=tmp_path)
        bumped = run_sweep(_spec(version="v2"), cache_dir=tmp_path)
        assert bumped.cache_hits == 0 and bumped.solved == 8

    def test_metrics_and_journal_and_state(self, tmp_path):
        report = run_sweep(_spec(), cache_dir=tmp_path)
        assert report.metrics.counter("sweep.points_total") == 8
        assert report.metrics.counter("sweep.points_solved") == 8
        sweep_dir = tmp_path / "test-sweep"
        beats = [
            json.loads(line)
            for line in (sweep_dir / "HEARTBEAT.jsonl").read_text().splitlines()
        ]
        assert beats[0]["event"] == "start" and beats[-1]["event"] == "end"
        assert beats[0]["done"] == 0 and beats[-1]["solved"] == 8
        state = json.loads((sweep_dir / "STATE.json").read_text())
        assert state["done"] == 8 and state["complete"] is True

    def test_sweep_status(self, tmp_path):
        run_sweep(_spec(), cache_dir=tmp_path, stop_after=5)
        status = sweep_status(_spec(), tmp_path)
        assert status["total"] == 8 and status["cached"] == 5
        assert not status["complete"]
        assert status["last_state"]["done"] == 5

    def test_deterministic_worker_error_propagates(self, tmp_path):
        def boom(params):  # runs serially (2 items) so a closure is fine
            raise ValueError("bad point")

        spec = SweepSpec.from_points("t", boom, [{"x": 1}, {"x": 2}])  # lint: ok-worker-safe 2 points run serially, never pickled
        with pytest.raises(ValueError, match="bad point"):
            run_sweep(spec, cache_dir=tmp_path)


class TestTelemetry:
    def test_heartbeat_records_and_fields(self, tmp_path):
        run_sweep(_spec(), cache_dir=tmp_path)
        beats = [
            json.loads(line)
            for line in (tmp_path / "test-sweep" / "HEARTBEAT.jsonl")
            .read_text()
            .splitlines()
        ]
        assert beats[0]["event"] == "start"
        assert beats[-1]["event"] == "end"
        assert beats[-1]["complete"] is True
        for beat in beats:
            assert beat["total"] == 8
            assert isinstance(beat["pid"], int)
            assert {"shard", "done", "cache_hits", "solved", "elapsed_s",
                    "workers", "retries", "timeouts",
                    "broken_pools"} <= set(beat)
        # once points are solved the beat carries throughput and an ETA
        final = beats[-1]
        assert final["done"] == 8 and final["solved"] == 8
        assert final["throughput"] > 0
        assert final["eta_s"] == pytest.approx(0.0)

    def test_cached_rerun_heartbeats_report_cache_hits(self, tmp_path):
        run_sweep(_spec(), cache_dir=tmp_path)
        run_sweep(_spec(), cache_dir=tmp_path)
        beats = [
            json.loads(line)
            for line in (tmp_path / "test-sweep" / "HEARTBEAT.jsonl")
            .read_text()
            .splitlines()
        ]
        assert beats[-1]["cache_hits"] == 8 and beats[-1]["solved"] == 0

    def test_span_shards_written_under_checkpoint_dir(self, tmp_path):
        run_sweep(_spec(), cache_dir=tmp_path, spans=True)
        span_dir = tmp_path / "test-sweep" / "spans"
        shards = sorted(span_dir.glob("spans-*.jsonl"))
        assert shards, "spans=True must write shard files"
        names = {
            json.loads(line)["name"]
            for shard in shards
            for line in shard.read_text().splitlines()
        }
        assert {"sweep", "sweep/lookup", "sweep/solve", "point"} <= names

    def test_no_span_shards_by_default(self, tmp_path):
        run_sweep(_spec(), cache_dir=tmp_path)
        assert not (tmp_path / "test-sweep" / "spans").exists()

    def test_journal_degrades_with_single_warning(self, tmp_path):
        # a directory squatting on the heartbeat path makes appends fail;
        # the sweep must finish, warning exactly once
        (tmp_path / "test-sweep" / "HEARTBEAT.jsonl").mkdir(parents=True)
        with pytest.warns(RuntimeWarning, match="heartbeat") as caught:
            report = run_sweep(_spec(), cache_dir=tmp_path)
        heartbeat_warnings = [
            w for w in caught if "heartbeat" in str(w.message)
        ]
        assert len(heartbeat_warnings) == 1
        assert report.metrics.counter("sweep.points_solved") == 8


# ---------------------------------------------------------------------------
# Shared grids + migrated entry points
# ---------------------------------------------------------------------------


class TestGridsAndMigrations:
    def test_scale_grid_matches_legacy_tables(self):
        assert scale_grid("srj", "small")["ns"] == [50, 100, 200, 400]
        assert scale_grid("srt", "full")["ks"] == [20, 40, 80, 160, 320]
        assert scale_grid("obs", "small")["shapes"] == [(8, 300)]

    def test_scale_grid_returns_fresh_copies(self):
        scale_grid("srj", "small")["ns"].append(999)
        assert 999 not in scale_grid("srj", "small")["ns"]

    def test_scale_grid_errors(self):
        with pytest.raises(ValueError, match="unknown scale"):
            scale_grid("srj", "huge")
        with pytest.raises(ValueError, match="unknown grid kind"):
            scale_grid("nope", "small")

    def test_faultsweep_cache_and_shards(self, tmp_path):
        from repro.perf.faultsweep import faultsweep_spec

        spec = faultsweep_spec(trials=5, m=3, n=10, events=3, horizon=60)
        reference = run_sweep(spec).rows
        a = run_sweep(spec, cache_dir=tmp_path, shard=(0, 2)).rows
        b = run_sweep(spec, cache_dir=tmp_path, shard=(1, 2)).rows
        assert len(a) + len(b) == 5
        merged = run_sweep(spec, cache_dir=tmp_path).rows
        assert merged == reference

    def test_bench_rows_match_prerefactor_artifact(self, tmp_path):
        """The migrated bench reproduces the seed-0 small-scale makespans
        recorded in the pre-refactor BENCH_1.json (rows byte-identical in
        every deterministic field)."""
        from pathlib import Path

        from repro.sweep.registry import run_report

        artifact = Path(__file__).resolve().parent.parent / "BENCH_1.json"
        if not artifact.exists():
            pytest.skip("BENCH_1.json not generated in this checkout")
        recorded = json.loads(artifact.read_text())
        if (recorded["scale"], recorded["seed"]) != ("small", 0):
            pytest.skip("artifact not at the reference scale/seed")
        report = run_report("bench", "small", 0, reps=1)
        for new, old in zip(report["rows"], recorded["rows"]):
            for field in ("sweep", "m", "n", "makespan"):
                assert new[field] == old[field]

    def test_bench_rows_report_median_and_mean(self, monkeypatch):
        from repro.perf import bench
        from repro.sweep.registry import run_report

        monkeypatch.setattr(
            bench, "scale_grid",
            lambda kind, scale: {"ns": [10, 20], "ms": [2], "n_fixed": [10],
                                 "m_fixed": [2], "reps": [3], "unit_ns": [],
                                 "unit_families": [], "unit_k": []},
        )
        report = run_report("bench", "small", 0)
        for row in report["rows"]:
            assert set(
                ("fraction_s", "int_s", "fraction_mean_s", "int_mean_s")
            ) <= set(row)

    def test_registry_unknown_name(self):
        from repro.sweep.registry import get_sweep

        with pytest.raises(ValueError, match="unknown sweep"):
            get_sweep("nope")

    def test_registry_specs_build(self):
        from repro.sweep.registry import get_sweep

        for name in ("bench", "bench-srt", "bench-obs", "faultsweep"):
            spec = get_sweep(name).build_spec("small", 0)
            assert len(spec) > 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestSweepCli:
    def test_status_then_run_then_status(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        out = str(tmp_path / "FS.json")
        assert main(
            ["sweep", "status", "faultsweep", "--cache-dir", cache]
        ) == 0
        assert "0/8 points cached" in capsys.readouterr().out
        assert main(
            ["sweep", "run", "faultsweep", "--cache-dir", cache, "-o", out]
        ) == 0
        assert "8 rows (0 cached, 8 solved)" in capsys.readouterr().out
        assert main(
            ["sweep", "resume", "faultsweep", "--cache-dir", cache, "-o", out]
        ) == 0
        assert "8 rows (8 cached, 0 solved)" in capsys.readouterr().out
        report = json.loads((tmp_path / "FS.json").read_text())
        assert report["summary"]["invalid"] == 0

    def test_unknown_sweep_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["sweep", "run", "nope", "--cache-dir", str(tmp_path)]
        ) == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_bad_shard_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["sweep", "run", "faultsweep", "--cache-dir", str(tmp_path),
             "--shard", "2/2"]
        ) == 2
        assert "invalid shard" in capsys.readouterr().err

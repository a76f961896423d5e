# Convenience targets for the test/bench/perf gates (see docs/PERFORMANCE.md).
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench-smoke bench bench-srt bench-obs bench-incremental obs-smoke perf-check lint faults-smoke sweep-smoke telemetry-smoke serve-smoke faultsweep perf-history perfbench-smoke check

test:
	$(PYTHON) -m pytest -x -q

# fast bench smoke: E4 + SRT micro-benches + the BENCH_1/BENCH_2 reports at
# small scale (written to pytest's tmp dir, never over the committed files)
bench-smoke:
	REPRO_BENCH_SCALE=small $(PYTHON) -m pytest \
		benchmarks/bench_e4_runtime.py benchmarks/bench_srt_runtime.py -q

# regenerate one BENCH artifact with every point timed fresh: `sweep run`
# against an empty throwaway cache dir (removed when the recipe exits)
bench:
	cache=$$(mktemp -d); trap 'rm -rf "$$cache"' EXIT; \
		$(PYTHON) -m repro sweep run bench --cache-dir "$$cache"

bench-srt:
	cache=$$(mktemp -d); trap 'rm -rf "$$cache"' EXIT; \
		$(PYTHON) -m repro sweep run bench-srt --cache-dir "$$cache"

bench-obs:
	cache=$$(mktemp -d); trap 'rm -rf "$$cache"' EXIT; \
		$(PYTHON) -m repro sweep run bench-obs --cache-dir "$$cache"

# incremental BENCH regeneration on the experiment fabric: points are
# content-addressed in .repro-cache/sweeps, so only points whose inputs
# (grid, seed, reps, schema salt) changed are re-timed (docs/SCALING.md)
bench-incremental:
	$(PYTHON) -m repro sweep run bench --cache-dir .repro-cache/sweeps
	$(PYTHON) -m repro sweep run bench-srt --cache-dir .repro-cache/sweeps
	$(PYTHON) -m repro sweep run bench-obs --cache-dir .repro-cache/sweeps

# observability gates: observer overhead (BENCH_3.json; no-op <= 5%,
# full stats <= 30%) plus a stats-CLI toy run whose observer/result
# cross-check must agree (non-zero exit on mismatch)
obs-smoke:
	REPRO_BENCH_SCALE=small $(PYTHON) -m pytest \
		benchmarks/bench_obs_overhead.py -q
	$(PYTHON) -m repro stats -m 6 -n 40 --backend int --json > /dev/null
	@echo "obs-smoke: OK"

# the int backend must spend < 10% of its profiled time in fractions.*
perf-check:
	$(PYTHON) -m repro.analysis.profiling

# fault-injection smoke: the small faultsweep (random instances x random
# FaultPlans) on the sweep fabric against a throwaway cache and report path;
# exits non-zero if any recovered schedule fails validation, plus a CLI
# degradation-report round-trip
faults-smoke:
	cache=$$(mktemp -d); trap 'rm -rf "$$cache"' EXIT; \
		$(PYTHON) -m repro sweep run faultsweep --scale small \
		--cache-dir "$$cache" -o "$$cache/FAULTSWEEP.json"
	$(PYTHON) -m repro faults -m 4 -n 24 --fault-seed 7 --json > /dev/null
	@echo "faults-smoke: OK"

# AST-based invariant checkers (docs/STATIC_ANALYSIS.md): exact-backend
# purity, float-free exact modules, derived (clock/PID-free) identities,
# worker-safe callables, observer threading, unused imports.  Exits 1 on
# any finding.
lint:
	$(PYTHON) -m repro lint

# sweep-fabric smoke: tiny sweep -> interrupt -> resume; verifies the
# resumed report is bit-identical, a repeated run has 100% cache hits
# (0 points re-solved) and half-shards merge to the same report
sweep-smoke:
	$(PYTHON) -m repro.sweep.smoke
	@echo "sweep-smoke: OK"

# distributed-telemetry smoke: a tiny spanned sweep must merge to one
# rooted span tree, byte-identical across worker counts and shard
# layouts; live status must report completion; and an injected 12%
# slowdown must trip 'perf compare' (exit 1) at a 5% gate
telemetry-smoke:
	$(PYTHON) -m repro.obs.smoke
	@echo "telemetry-smoke: OK"

# service-daemon smoke (docs/SERVICE.md): boot a real `repro-sched serve`
# daemon, then drive concurrent clients through every failure path —
# malformed frames, worker crashes, hangs past the deadline, an admission
# flood, a FaultPlan-derived injection mix — and finish with a SIGTERM
# drain that must checkpoint queued work and exit 0.  Artifacts (daemon
# log, state files) land in .repro-service-smoke/ for CI upload.
serve-smoke:
	$(PYTHON) -m repro.service.smoke
	@echo "serve-smoke: OK"

# regenerate FAULTSWEEP.json through the sweep fabric (cache-aware; the
# report records cache hit/solved counts like every BENCH artifact)
faultsweep:
	$(PYTHON) -m repro sweep run faultsweep --cache-dir .repro-cache/sweeps

# the repository benchmark's answer checks (perfbench/README.md): every
# workload for one second, each checking its own answers (run.py exits 1 on
# a wrong one), then the seed-purity tests.  Gates the exit status only,
# never the numbers.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload all --seconds 1
	$(PYTHON) -m pytest perfbench/test_seed.py -q

# ingest the current BENCH artifacts into the durable perf time-series
# and gate them against the rolling baseline (docs/OBSERVABILITY.md)
perf-history:
	$(PYTHON) -m repro perf compare BENCH_1.json --ingest
	$(PYTHON) -m repro perf compare BENCH_2.json --ingest
	$(PYTHON) -m repro perf compare BENCH_3.json --ingest
	$(PYTHON) -m repro perf history

check: test lint perf-check bench-smoke obs-smoke faults-smoke sweep-smoke telemetry-smoke serve-smoke

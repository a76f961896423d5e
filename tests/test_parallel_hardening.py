"""Tests for the worker pool and parallel_map: crashes, timeouts, retries.

Worker functions live at module level so they pickle into pool workers.
The crash/hang ones key off a sentinel file: the first worker to see it
removes it and dies (or stalls), so the retry round succeeds — a
deterministic single-shot infrastructure failure.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.perf.faultsweep import fault_sweep
from repro.perf.parallel import (
    ParallelExecutionError,
    WorkerPool,
    _jitter_factor,
    parallel_map,
    seed_for,
)


def _square(x):
    return x * x


def _crash_once(arg):
    x, sentinel = arg
    if x == 5 and os.path.exists(sentinel):
        os.remove(sentinel)
        os._exit(17)  # simulate a segfaulting worker
    return x * x


def _hang_once(arg):
    x, sentinel = arg
    if x == 3 and os.path.exists(sentinel):
        os.remove(sentinel)
        time.sleep(60)
    return x * x


def _hang_always(x):
    time.sleep(60)
    return x


def _boom(x):
    if x == 4:
        raise ValueError("deterministic failure")
    return x


def _nap(x):
    time.sleep(0.3)
    return x


class _UnpicklableError(Exception):
    def __init__(self):
        super().__init__("carries a lock")
        self.lock = threading.Lock()


def _raise_unpicklable(x):
    if x == 2:
        raise _UnpicklableError()
    return x


def _pid(_):
    return os.getpid()


def _tagged(arg):
    thread, i, sentinel = arg
    if sentinel is not None and os.path.exists(sentinel):
        os.remove(sentinel)
        os._exit(19)
    return (thread, i, i * i)


class TestHappyPath:
    def test_matches_serial(self):
        items = list(range(25))
        expected = [x * x for x in items]
        assert parallel_map(_square, items, workers=1) == expected
        assert parallel_map(_square, items, workers=4) == expected

    def test_worker_count_independent_with_timeout(self):
        items = list(range(16))
        a = parallel_map(_square, items, workers=1)
        b = parallel_map(_square, items, workers=4, timeout=30.0)
        assert a == b

    def test_invalid_retries_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(_square, list(range(8)), retries=-1)


class TestWorkerCrash:
    def test_crashed_worker_retried(self, tmp_path):
        sentinel = str(tmp_path / "crash-once")
        open(sentinel, "w").close()
        items = [(x, sentinel) for x in range(12)]
        out = parallel_map(_crash_once, items, workers=4, retries=2)
        assert out == [x * x for x in range(12)]
        assert not os.path.exists(sentinel)  # the crash really happened

    def test_worker_killed_while_idle_is_replaced(self):
        stats = {}
        out = []
        with WorkerPool(1) as pool:
            (pid,) = pool.map(_pid, [0])
            os.kill(pid, signal.SIGKILL)
            time.sleep(0.3)
            thread = threading.Thread(
                target=lambda: out.extend(pool.map(
                    _square, [3], retries=1, backoff=0.01, stats=stats
                )),
                daemon=True,
            )
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert pool.started == 2
        assert out == [9]
        assert stats == {"broken_pools": 1, "retries": 1}

    def test_crashed_worker_serial_fallback_without_retries(self, tmp_path):
        sentinel = str(tmp_path / "crash-no-retry")
        open(sentinel, "w").close()
        items = [(x, sentinel) for x in range(12)]
        out = parallel_map(_crash_once, items, workers=4, retries=0)
        assert out == [x * x for x in range(12)]


class TestTimeout:
    def test_hung_task_retried(self, tmp_path):
        sentinel = str(tmp_path / "hang-once")
        open(sentinel, "w").close()
        items = [(x, sentinel) for x in range(12)]
        out = parallel_map(
            _hang_once, items, workers=4, timeout=3.0, retries=2
        )
        assert out == [x * x for x in range(12)]

    def test_persistent_hang_raises_after_retries(self):
        with pytest.raises(ParallelExecutionError) as exc_info:
            parallel_map(
                _hang_always,
                list(range(4)),
                workers=2,
                timeout=0.5,
                retries=1,
                backoff=0.01,
            )
        assert "2 attempt(s)" in str(exc_info.value)
        # the hung workers were killed, not abandoned
        assert multiprocessing.active_children() == []

    def test_timeout_bounds_each_task_not_the_round(self):
        # 12 tasks of 0.3 s on 2 workers take 1.8 s, but none takes 1 s
        items = list(range(12))
        assert parallel_map(
            _nap, items, workers=2, timeout=1.0, retries=0
        ) == items
        stats = {}
        assert parallel_map(
            _nap, items, workers=2, timeout=1.0, retries=2, stats=stats
        ) == items
        assert stats == {}

    def test_deadline_ends_retries(self):
        stats = {}
        t0 = time.monotonic()
        with WorkerPool(1) as pool:
            with pytest.raises(ParallelExecutionError) as exc_info:
                pool.map(_hang_always, [1], retries=3, backoff=0.01,
                         stats=stats, deadline=time.monotonic() + 0.5)
            assert pool.started == 2  # the hung worker was replaced
        assert time.monotonic() - t0 < 5.0
        assert "1 attempt(s)" in str(exc_info.value)
        assert stats == {"timeouts": 1}


class TestDeterministicFailure:
    def test_fn_exception_propagates_unretried(self):
        with pytest.raises(ValueError, match="deterministic failure"):
            parallel_map(_boom, list(range(8)), workers=4, timeout=30.0)

    def test_fn_exception_propagates_on_fast_path(self):
        with pytest.raises(ValueError, match="deterministic failure") \
                as exc_info:
            parallel_map(_boom, list(range(8)), workers=4)
        # the worker's traceback rides along, as in concurrent.futures
        assert "_boom" in str(exc_info.value.__cause__)

    def test_unpicklable_exception_propagates_unretried(self):
        stats = {}
        with pytest.raises(TypeError, match="pickle"):
            parallel_map(_raise_unpicklable, list(range(6)), workers=2,
                         timeout=30.0, stats=stats)
        assert stats == {}


class TestSharedPool:
    def test_threads_share_one_pool(self, tmp_path):
        """More threads than workers map single items through one pool,
        with one injected worker crash.  A worker checked out twice would
        hand a thread another thread's result; a lost one would break
        the started count."""
        workers, threads, per_thread = 2, 6, 15
        sentinel = str(tmp_path / "crash-once")
        open(sentinel, "w").close()
        results = {t: [] for t in range(threads)}
        errors = []

        def client(pool, t):
            try:
                for i in range(per_thread):
                    arg = (t, i, sentinel if (t, i) == (3, 7) else None)
                    results[t].extend(pool.map(_tagged, [arg], retries=2,
                                               backoff=0.01))
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(workers) as pool:
                pool_threads = [
                    threading.Thread(target=client, args=(pool, t))
                    for t in range(threads)
                ]
                for thread in pool_threads:
                    thread.start()
                for thread in pool_threads:
                    thread.join(timeout=60)
                assert not any(t.is_alive() for t in pool_threads)
                started = pool.started
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert not os.path.exists(sentinel)  # the crash really happened
        for t in range(threads):
            assert results[t] == [(t, i, i * i) for i in range(per_thread)]
        assert started == workers + 1
        assert multiprocessing.active_children() == []


class TestJitter:
    def test_factor_in_range_and_deterministic(self):
        for seed in (0, 1, 99):
            for attempt in (1, 2, 3):
                f = _jitter_factor(seed, attempt)
                assert 1.0 <= f < 2.0
                assert f == _jitter_factor(seed, attempt)

    def test_seed_for_stable(self):
        assert seed_for(0, 0) == seed_for(0, 0)
        assert seed_for(0, 0) != seed_for(0, 1)


class TestFaultSweep:
    def test_rows_worker_count_independent(self):
        a = fault_sweep(trials=5, m=3, n=10, workers=1)
        b = fault_sweep(trials=5, m=3, n=10, workers=4)
        assert a == b

    def test_all_rows_valid(self):
        rows = fault_sweep(trials=5, m=3, n=10, workers=2)
        assert all(row["valid"] for row in rows)
        assert [row["seed"] for row in rows] == [
            seed_for(2026, i) for i in range(5)
        ]

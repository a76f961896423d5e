"""Deterministic, supervised process pool for sweeps and the daemon.

The experiment sweeps (E1/E4/E5 and the F-series) are embarrassingly
parallel: every trial builds its own instance from a seed and measures one
number.  This module fans such trials out over worker processes while
keeping results **independent of the worker count**:

* each trial derives its own RNG seed via :func:`seed_for` (a SplitMix64
  mix of the base seed and the trial index) instead of drawing from a
  shared sequential :class:`random.Random`;
* :meth:`WorkerPool.map` and :func:`parallel_map` preserve input order,
  so tables come out identical whether the sweep ran on 1 worker or 64.

:class:`WorkerPool` is the one process-pool implementation of the repo.
Its N workers are forked once, when the pool is created, and each sits
behind its own pipe.  Callers check idle workers out of a thread-safe
queue, so several threads (the daemon's dispatch threads) can share one
pool.  The daemon keeps one pool for its lifetime, :func:`run_sweep
<repro.sweep.run_sweep>` opens one per call, and :func:`parallel_map` is
the serial shortcut plus a one-shot pool.

Worker functions must be module-level (picklable): every task ships the
function by qualified name.  The worker count resolves, in order: the
explicit ``workers=`` argument, the ``REPRO_WORKERS`` environment
variable, and finally ``os.cpu_count()``.

Hardening: ``timeout=`` bounds each task's wall clock from the moment the
task reaches a worker, and ``deadline=`` (an absolute
:func:`time.monotonic` instant) caps every attempt at the time left.  A
worker that dies is replaced, and so is one still busy when its task's
clock runs out: it is killed, so one hung task costs one worker, never
the pool.  ``retries=`` re-runs the tasks lost this way, in rounds with
exponential backoff plus deterministic jitter.  Because trials are pure
functions of their item (all randomness comes from :func:`seed_for`), a
retry returns the same value the lost attempt would have, so results stay
worker-count independent.  Exceptions *raised by fn itself* are
deterministic failures and propagate immediately, with the worker's
traceback chained as their ``__cause__`` — only infrastructure failures
are retried.  When retries run out the lost tasks run serially in-process,
unless a timeout or deadline bounds them, in which case a
:class:`ParallelExecutionError` reports the surviving failure.
"""

from __future__ import annotations

import os
import queue
import signal
import stat
import threading
import time
import traceback
from multiprocessing import connection, get_context, util
from typing import (
    Callable,
    Dict,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

T = TypeVar("T")
U = TypeVar("U")

__all__ = [
    "auto_workers",
    "seed_for",
    "parallel_map",
    "open_pool",
    "WorkerPool",
    "ParallelExecutionError",
]

#: below this many items the pool overhead outweighs the fan-out
_MIN_PARALLEL_ITEMS = 4

#: base backoff delay between retry rounds (seconds)
BACKOFF_BASE = 0.05

#: how long a worker whose pipe hit EOF may take to finish exiting
_EXIT_GRACE_S = 1.0


class ParallelExecutionError(RuntimeError):
    """A task kept failing (worker crash / timeout) after all retries."""


def auto_workers(workers: Optional[int] = None) -> int:
    """Resolve the worker count: argument > ``$REPRO_WORKERS`` > cpu count."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return workers
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        value = int(env)
        if value < 1:
            raise ValueError("REPRO_WORKERS must be >= 1")
        return value
    return os.cpu_count() or 1


def seed_for(base_seed: int, index: int) -> int:
    """Deterministic per-trial seed: SplitMix64 of ``(base_seed, index)``.

    Adjacent indices map to statistically independent seeds, and the
    mapping is stable across platforms and worker counts (pure integer
    arithmetic, no ``hash()``).
    """
    z = (base_seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _jitter_factor(jitter_seed: int, attempt: int) -> float:
    """Deterministic jitter in [1, 2): a SplitMix64 draw scaled down."""
    return 1.0 + seed_for(jitter_seed, attempt) / 2.0**64


def _bump(
    stats: Optional[MutableMapping[str, int]], key: str, by: int = 1
) -> None:
    """Increment a fault counter in the caller's *stats* mapping, if any."""
    if stats is not None and by:
        stats[key] = stats.get(key, 0) + by


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _RemoteTraceback(Exception):
    """The worker-side traceback, chained as the ``__cause__`` of an
    exception re-raised in the caller (as :mod:`concurrent.futures`
    does)."""

    def __init__(self, tb: str) -> None:
        super().__init__(tb)
        self.tb = tb

    def __str__(self) -> str:
        return self.tb


class _ExceptionWithTraceback:
    """Pickles an exception together with its formatted traceback."""

    def __init__(self, exc: BaseException) -> None:
        tb = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        self.exc = exc
        exc.__traceback__ = None  # frames do not pickle
        self.tb = f'\n"""\n{tb}"""'

    def __reduce__(self):
        return _rebuild_exc, (self.exc, self.tb)


def _rebuild_exc(exc: BaseException, tb: str) -> BaseException:
    exc.__cause__ = _RemoteTraceback(tb)
    return exc


def _release_inherited_sockets(keep: int) -> None:
    """Point every inherited socket but *keep* at ``/dev/null``.

    A forked worker holds copies of the parent's sockets: the pipes of
    its sibling workers and, for a replacement forked by a running
    daemon, the listening socket and client connections.  A copy keeps
    the socket open after the parent closes it, so a client would never
    see its connection end and a sibling would never see its pipe's EOF.
    ``dup2`` (rather than ``close``) keeps the descriptor numbers taken,
    so no file the worker opens later can be closed by a stale socket
    object.  Without ``/proc`` the sockets stay inherited.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return
    devnull = -1
    for fd in fds:
        if fd == keep:
            continue
        try:
            if not stat.S_ISSOCK(os.fstat(fd).st_mode):
                continue
        except OSError:  # the descriptor listdir itself used
            continue
        if devnull < 0:
            devnull = os.open(os.devnull, os.O_RDWR)
        os.dup2(devnull, fd)
    if devnull >= 0:
        os.close(devnull)


def _worker_main(conn) -> None:
    """Serve ``(fn, item)`` tasks from *conn* until its other end closes.

    Each reply is ``(True, result)`` or ``(False, exception)``.  The
    worker ignores SIGINT (the caller's interrupt handling closes the
    pool) and drops the parent's signal wakeup descriptor, so a signal
    sent to a worker never reaches the parent's event loop.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    _release_inherited_sockets(conn.fileno())
    while True:
        try:
            fn, item = conn.recv()
        except (EOFError, OSError):
            return
        except Exception as exc:  # the task does not unpickle here
            reply = (False, _ExceptionWithTraceback(exc))
        else:
            try:
                reply = (True, fn(item))
            except BaseException as exc:  # shipped to the caller
                reply = (False, _ExceptionWithTraceback(exc))
        try:
            conn.send(reply)
        except (EOFError, OSError):
            return
        except Exception as exc:  # the result or exception does not pickle
            conn.send((False, _ExceptionWithTraceback(exc)))


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class _Worker:
    """One worker process and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn


def _stop_workers(workers: Set[_Worker], lock: threading.Lock) -> None:
    """Kill and reap every worker (pool close and interpreter exit)."""
    with lock:
        doomed = list(workers)
        workers.clear()
    for worker in doomed:
        worker.process.kill()
    for worker in doomed:
        worker.process.join()
        worker.conn.close()


class WorkerPool:
    """N long-lived forked worker processes shared by any number of threads.

    Workers are forked when the pool is created; :attr:`started` counts
    every fork, replacements included.  :meth:`map` checks idle workers
    out of a thread-safe queue, so one worker never serves two callers at
    once.  A lost worker (it died, or it was killed at its task's
    deadline) is replaced before its slot goes back to the queue; if that
    fork fails, the next caller to draw the slot forks it.

    Use as a context manager or call :meth:`close` once no :meth:`map` is
    running.  Workers are forked (``multiprocessing.get_context("fork")``)
    because a spawned worker re-imports the package: on a 2-vCPU host two
    spawned workers took 0.8 s to answer a first task, two forked ones
    0.01 s.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.started = 0
        self._context = get_context("fork")
        self._lock = threading.Lock()
        self._workers: Set[_Worker] = set()
        #: idle workers; ``None`` is a slot whose worker must be forked
        self._idle: "queue.SimpleQueue[Optional[_Worker]]" = (
            queue.SimpleQueue()
        )
        self._closed = False
        # runs at close() or, for a pool never closed, before the
        # interpreter's exit handler joins child processes
        self._finalizer = util.Finalize(
            self, _stop_workers, args=(self._workers, self._lock),
            exitpriority=10,
        )
        try:
            for _ in range(workers):
                self._idle.put(self._spawn())
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Kill and reap every worker; the pool cannot be used again."""
        with self._lock:
            self._closed = True
        self._finalizer()

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self) -> _Worker:
        with self._lock:
            if self._closed:
                raise ParallelExecutionError("the worker pool is closed")
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, args=(child_end,),
            name="repro-pool-worker",
        )
        try:
            process.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            child_end.close()
        worker = _Worker(process, parent_end)
        with self._lock:
            self.started += 1
            self._workers.add(worker)
        return worker

    def _checkout(self, block: bool) -> Optional[_Worker]:
        """An idle worker, or ``None`` if none is idle and not *block*."""
        try:
            worker = self._idle.get(block=block)
        except queue.Empty:
            return None
        if worker is None:
            try:
                worker = self._spawn()
            except BaseException:
                self._idle.put(None)
                raise
        return worker

    def _retire(self, worker: _Worker, grace: float) -> Optional[int]:
        """Reap *worker* (killed after *grace* seconds); its exit code."""
        with self._lock:
            self._workers.discard(worker)
        worker.process.join(grace)
        if worker.process.exitcode is None:
            worker.process.kill()
            worker.process.join()
        worker.conn.close()
        return worker.process.exitcode

    def _replace(self, worker: _Worker, grace: float) -> Optional[int]:
        """Retire *worker* and put a fresh one in its slot."""
        code = self._retire(worker, grace)
        try:
            fresh: Optional[_Worker] = self._spawn()
        except (OSError, ParallelExecutionError):
            fresh = None  # forked by the next caller to draw the slot
        self._idle.put(fresh)
        return code

    # -- mapping -----------------------------------------------------------

    def map(
        self,
        fn: Callable[[T], U],
        items: Sequence[T],
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = BACKOFF_BASE,
        jitter_seed: int = 0,
        stats: Optional[MutableMapping[str, int]] = None,
        deadline: Optional[float] = None,
    ) -> List[U]:
        """Map *fn* over *items* on this pool's workers; ordered results.

        *timeout* (seconds) bounds each task from the moment it reaches a
        worker; *deadline* (a :func:`time.monotonic` instant) caps every
        attempt at the time left and stops retrying once it has passed
        or the next backoff would pass it.  *retries* bounds how many
        times a task lost to a dead or timed-out worker is re-run.  Retry
        rounds sleep ``backoff · 2^attempt`` scaled by a deterministic
        jitter factor in [1, 2) derived from ``(jitter_seed, attempt)`` —
        jitter affects only the sleep, never the results.

        *stats*, when given, is a mutable mapping whose ``"retries"``,
        ``"timeouts"`` and ``"broken_pools"`` (lost workers) counters are
        incremented in place as infrastructure failures are handled.
        Counters only ever grow; a clean run leaves the mapping untouched.
        """
        if retries < 0:
            raise ValueError("retries must be >= 0")
        items = list(items)
        results: Dict[int, U] = {}
        pending = list(range(len(items)))
        last_error: Optional[BaseException] = None
        attempts = 0
        for attempt in range(retries + 1):
            if not pending:
                break
            if attempt > 0:
                delay = (backoff * (2 ** (attempt - 1))
                         * _jitter_factor(jitter_seed, attempt))
                if (deadline is not None
                        and time.monotonic() + delay >= deadline):
                    break
                time.sleep(delay)
                _bump(stats, "retries", len(pending))
            elif deadline is not None and time.monotonic() >= deadline:
                break
            attempts += 1
            pending, error = self._round(
                fn, items, pending, results, timeout, deadline, stats
            )
            last_error = error or last_error
        if pending:
            if timeout is None and deadline is None:
                # infrastructure kept failing; last resort: run serially
                for i in pending:
                    results[i] = fn(items[i])
            else:
                raise ParallelExecutionError(
                    f"{len(pending)} task(s) still failing after "
                    f"{attempts} attempt(s): {last_error}"
                ) from last_error
        return [results[i] for i in range(len(items))]

    def _round(
        self,
        fn: Callable[[T], U],
        items: Sequence[T],
        indices: List[int],
        results: Dict[int, U],
        timeout: Optional[float],
        deadline: Optional[float],
        stats: Optional[MutableMapping[str, int]],
    ) -> Tuple[List[int], Optional[BaseException]]:
        """Run *indices* once; returns the lost ones and the last loss."""
        todo = list(reversed(indices))
        #: pipe -> (worker, item index, start time, due time or None)
        busy: Dict[object, Tuple[_Worker, int, float, Optional[float]]] = {}
        lost: List[int] = []
        last_error: Optional[BaseException] = None
        try:
            while todo or busy:
                while todo:
                    worker = self._checkout(block=not busy)
                    if worker is None:
                        break
                    index = todo.pop()
                    try:
                        worker.conn.send((fn, items[index]))
                    except OSError:  # the worker died while idle
                        last_error = self._lose(worker, stats)
                        lost.append(index)
                        continue
                    except BaseException:  # fn or the item does not pickle
                        self._idle.put(worker)
                        raise
                    started = time.monotonic()
                    due = None if timeout is None else started + timeout
                    if deadline is not None:
                        due = deadline if due is None else min(due, deadline)
                    busy[worker.conn] = (worker, index, started, due)
                if not busy:  # every send found its worker dead
                    continue
                dues = [task[3] for task in busy.values()
                        if task[3] is not None]
                wait_s = (
                    max(0.0, min(dues) - time.monotonic()) if dues else None
                )
                for conn in connection.wait(list(busy), wait_s):
                    worker, index, _, _ = busy.pop(conn)
                    try:
                        ok, value = conn.recv()
                    except (EOFError, OSError):
                        last_error = self._lose(worker, stats)
                        lost.append(index)
                        continue
                    except BaseException:  # the reply does not unpickle
                        self._idle.put(worker)
                        raise
                    self._idle.put(worker)
                    if not ok:
                        # deterministic failure inside fn: do not retry
                        raise value
                    results[index] = value
                now = time.monotonic()
                for conn, (worker, index, started, due) in list(busy.items()):
                    if due is not None and due <= now:
                        del busy[conn]
                        self._replace(worker, 0.0)
                        _bump(stats, "timeouts")
                        lost.append(index)
                        last_error = TimeoutError(
                            f"task killed after {due - started:.3g}s"
                        )
        finally:
            # tasks abandoned by an exception: their workers may still
            # answer, so they are killed, and forked again on demand
            for worker, _, _, _ in busy.values():
                self._retire(worker, 0.0)
                self._idle.put(None)
        return sorted(lost), last_error

    def _lose(self, worker: _Worker,
              stats: Optional[MutableMapping[str, int]]) -> BaseException:
        """Replace a worker that died; the error its task is lost to."""
        code = self._replace(worker, _EXIT_GRACE_S)
        _bump(stats, "broken_pools")
        return ChildProcessError(
            f"worker {worker.process.pid} died (exit code {code})"
        )


# ---------------------------------------------------------------------------
# One-shot maps
# ---------------------------------------------------------------------------


class _InProcess:
    """The serial shortcut: :meth:`map` runs every task in this process.

    A per-task timeout cannot be enforced without process isolation, so
    tasks simply run to completion; crashes and hangs are not contained.
    """

    def __enter__(self) -> "_InProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def map(self, fn: Callable[[T], U], items: Sequence[T],
            **_hardening) -> List[U]:
        return [fn(item) for item in items]


def open_pool(n_items: int, workers: Optional[int] = None,
              isolate: bool = False):
    """A pool sized for *n_items* tasks: a :class:`WorkerPool`, or the
    in-process shortcut when one worker is requested or the item count is
    tiny (unless *isolate*), or when processes cannot be created here
    (restricted sandboxes).  Results are identical either way because all
    randomness is derived per item via :func:`seed_for`.
    """
    n_workers = min(auto_workers(workers), max(n_items, 1))
    if not isolate and (n_workers <= 1 or n_items < _MIN_PARALLEL_ITEMS):
        return _InProcess()
    try:
        return WorkerPool(n_workers)
    except OSError:  # pragma: no cover - sandbox without processes
        return _InProcess()


def parallel_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = BACKOFF_BASE,
    jitter_seed: int = 0,
    stats: Optional[MutableMapping[str, int]] = None,
    isolate: bool = False,
) -> List[U]:
    """Map *fn* over *items* on a one-shot pool; ordered results.

    Runs serially in-process when only one worker is requested, when the
    item count is tiny, or when processes cannot be created; otherwise a
    :class:`WorkerPool` is opened for this call and closed before it
    returns.  *timeout*, *retries*, *backoff*, *jitter_seed* and *stats*
    mean what they mean for :meth:`WorkerPool.map`.

    *isolate* skips the tiny-batch/single-worker serial shortcut, so
    every task runs in a worker *process* even for a one-item map.  No
    caller in the package passes it any more (the daemon keeps a
    long-lived :class:`WorkerPool`); the repository benchmark's traced
    ``daemon_rpc`` probe still does.
    """
    items = list(items)
    if retries < 0:
        raise ValueError("retries must be >= 0")
    with open_pool(len(items), workers, isolate) as pool:
        return pool.map(
            fn, items, timeout=timeout, retries=retries, backoff=backoff,
            jitter_seed=jitter_seed, stats=stats,
        )

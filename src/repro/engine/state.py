"""Shared mutable engine state, generic over the numeric backend.

:class:`EngineState` is the one bookkeeping structure behind every
scheduler layer in the repo: remaining requirements, started/fractured
status, processor ownership, the RLE trace, completion times and the
Theorem-3.3 step statistics.  All quantities live in the *working domain*
of the attached numeric context (``state.ctx``) — exact rationals for the
reference backend, LCM-rescaled integers for the fast backend.

Generic-code contract (enforced by the ``hotpath-exact`` rule of
``make lint``): this module
only combines quantities with ``+``, ``-``, ``*int``, ``min``/``max``,
comparisons, ``//`` and ``%`` — the operations under which both working
domains are closed — and never constructs a numeric literal other than
via ``ctx.zero``.  (Plain ``0`` in comparisons and as an additive neutral
is exact in both domains and therefore allowed.)

Job keys are opaque sortable objects: plain ints for SRJ/unit jobs,
``(task_id, index)`` pairs for the sequential SRT engine and
``(processor, position)`` pairs for the fixed-assignment model.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Set

from .backends.base import NumericContext
from .loop import StepDecision


class EngineState:
    """Tracks remaining work, fractured status and processor ownership."""

    def __init__(
        self,
        m: int,
        ctx: NumericContext,
        requirements: Dict,
        totals: Dict,
        record_trace: bool = False,
        record_utilization: bool = False,
    ) -> None:
        self.m = m
        self.ctx = ctx
        self.zero = ctx.zero
        #: per-job resource requirement r_j (working domain)
        self.req = dict(requirements)
        #: per-job initial total requirement s_j = p_j * r_j (working domain)
        self.total = dict(totals)
        #: remaining total requirement s_j(t) per job key
        self.remaining = dict(self.total)
        #: job keys not yet finished, ascending, plus the keys finished
        #: since the list was last compacted (see :attr:`_unfinished`)
        self._keys: List = sorted(self.remaining)
        self._finished: List = []
        #: number of unfinished jobs (the step loop's termination test)
        self.unfinished_count: int = len(self._keys)
        #: job key -> processor, assigned at first processing step
        self.processor_of: Dict = {}
        #: processors currently owned by a *running* (started, unfinished) job
        self._busy_processors: Set[int] = set()
        #: processors taken offline by a fault plan (never assigned; the
        #: simulator shares its machine's set here)
        self._down_processors: Set[int] = set()
        #: current time step (number of completed steps)
        self.t: int = 0
        #: job key -> completion time step
        self.completion_times: Dict = {}
        #: RLE trace rows (shares, processors, count, case, window) or None
        self.trace: Optional[List] = [] if record_trace else None
        #: per-step resource usage (working domain) or None
        self.utilization: Optional[List] = [] if record_utilization else None
        #: steps in which >= m-2 jobs got their full requirement
        self.steps_full_jobs: int = 0
        #: steps in which the whole resource budget was used
        self.steps_full_resource: int = 0
        #: total wasted resource over the run (working domain)
        self.waste_units = ctx.zero

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def _unfinished(self) -> List:
        """``J(t)`` as a sorted key list, compacted when read.

        Finishing a job only records its key; deleting it from the sorted
        list costs O(n), so that is left to the policies that read the
        list (the Listing-1 and online windows).  A policy that never
        reads it (the unit window) keeps the whole run free of it.
        """
        if self._finished:
            keys = self._keys
            for j in self._finished:
                del keys[bisect_left(keys, j)]
            self._finished = []
        return self._keys

    @_unfinished.setter
    def _unfinished(self, keys: List) -> None:
        self._keys = list(keys)
        self._finished = []
        self.unfinished_count = len(self._keys)

    def unfinished(self) -> List:
        """``J(t)`` — keys of unfinished jobs, ascending (canonical order)."""
        return list(self._unfinished)

    def is_started(self, job_id) -> bool:
        """Started := has received resource but is not finished."""
        rem = self.remaining[job_id]
        return rem < self.total[job_id] and rem > 0

    def started_jobs(self) -> List:
        """All started (and unfinished) jobs."""
        return [j for j in self._unfinished if self.is_started(j)]

    def available_processors(self) -> int:
        """Number of processors currently online."""
        return self.m - len(self._down_processors)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def force_finish(self, job_id) -> List:
        """Abort *job_id*: zero its remaining work, record completion at
        the current step, release its processor.  Returns the keys
        actually aborted (empty if the job was already finished)."""
        if job_id not in self.remaining or self.remaining[job_id] <= 0:
            return []
        self.remaining[job_id] = self.zero
        self.completion_times[job_id] = self.t
        self._finished.append(job_id)
        self.unfinished_count -= 1
        proc = self.processor_of.get(job_id)
        if proc is not None:
            self._busy_processors.discard(proc)
        return [job_id]

    def apply_decision(self, decision: StepDecision) -> List:
        """Apply one policy :class:`StepDecision`: assign processors, record
        the trace row and statistics, subtract the shares."""
        shares = decision.shares
        procs: Optional[Dict] = None
        if decision.assign_processors:
            procs = {}
            busy = self._busy_processors
            down = self._down_processors
            owner = self.processor_of
            for job_id in shares:
                p = owner.get(job_id)
                if p is None:
                    for q in range(self.m):
                        if q not in busy and q not in down:
                            p = q
                            break
                    else:
                        raise RuntimeError(
                            f"no free processor for job {job_id}: more than"
                            f" m={self.m} concurrent jobs scheduled"
                        )
                    owner[job_id] = p
                    busy.add(p)
                procs[job_id] = p
        if self.trace is not None:
            self.trace.append(
                (shares, procs, decision.count, decision.case, decision.window)
            )
        # subtract count copies of the shares, release finished jobs
        count = decision.count
        finished: List = []
        remaining = self.remaining
        for job_id, share in shares.items():
            if share == 0:
                continue
            if share < 0:
                raise ValueError(f"negative share for job {job_id}")
            rem = remaining[job_id] - count * share
            if rem <= 0:
                rem = self.zero
                finished.append(job_id)
            remaining[job_id] = rem
        self.t += count
        if finished:
            self._finished.extend(finished)
            self.unfinished_count -= len(finished)
            for j in finished:
                self.completion_times[j] = self.t
                proc = self.processor_of.get(j)
                if proc is not None:
                    self._busy_processors.discard(proc)
        if decision.full_jobs_step:
            self.steps_full_jobs += count
        if decision.full_resource_step:
            self.steps_full_resource += count
        self.waste_units = self.waste_units + count * decision.waste
        if self.utilization is not None:
            self.utilization.append(decision.used)
        return finished

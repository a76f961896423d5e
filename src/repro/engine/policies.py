"""Engine policies: per-step decisions for every scheduler layer.

Each policy decides one step (or one run of identical steps) on an
:class:`~repro.engine.state.EngineState`, written generically over the
numeric backend (see ``repro.engine.backends.base`` for the
closed-operation contract; this module is covered by the
``hotpath-exact`` lint rule).  The policies:

* :func:`window_step` — Listing 1 lines 2–20 (window and assignment),
  the one implementation behind every Listing-1 path;
* :class:`SlidingWindowPolicy` — general SRJ (:func:`~repro.engine.api
  .solve_srj`): :func:`window_step` plus the Theorem 3.3 bulk horizon;
* :class:`UnitWindowPolicy` — the unit-size m-maximal-window variant
  (``core/unit.py``, the bin-packing pipeline); its window step takes the
  size and budget per call;
* :class:`SequentialTaskPolicy` — the Listing-3/4 SRT engine
  (``tasks/sequential.py``): one :class:`UnitWindowPolicy` step per task
  with the leftover processors and resource;
* :class:`OnlineWindowPolicy` / :class:`OnlineListPolicy` — the
  arrival-aware schedulers (``online/scheduler.py``); the window policy
  runs :func:`window_step` over the released jobs;
* :class:`AssignedQueuePolicy` — the fixed-assignment head-of-queue
  distribution policies (``assigned/scheduler.py``).

The simulator's window policy (``repro.simulator.policies``) runs
:func:`window_step` too.  Both backends make bit-identical decisions; the
cross-backend suites (``tests/test_perf_backends.py``,
``tests/test_engine_backends.py``) and the golden digests
(``tests/test_golden_digests.py``) assert this.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from .loop import StepDecision
from .state import EngineState

__all__ = [
    "SlidingWindowPolicy",
    "UnitWindowPolicy",
    "SequentialTaskPolicy",
    "OnlineWindowPolicy",
    "OnlineListPolicy",
    "AssignedQueuePolicy",
    "window_step",
]


# ---------------------------------------------------------------------------
# Listing 1 — the general SRJ sliding window (one flat routine)
# ---------------------------------------------------------------------------


def window_step(  # noqa: C901
    state: EngineState,
    window: List,
    universe: List,
    size: int,
    budget,
    enable_move: bool = True,
) -> Tuple[StepDecision, List]:
    """Listing 1 lines 2–20 for one decision: the (m-1)-maximal window and
    its Case-1/Case-2 assignment.

    *window* is the previous step's window, *universe* the sorted keys of
    the eligible unfinished jobs (``J(t-1)``, or the released part of it
    for the online layer).  The window carries over its unfinished jobs,
    grows left (gated by the DESIGN.md §2 repair), grows right, and slides
    right while resource-deficient and ``min W`` is unstarted.
    *enable_move* off (ablation E7) skips the slide and the
    reserved-processor start and tolerates a second fractured job.

    Returns ``(decision, next_window)``: the step's shares, case, waste and
    Theorem-3.3 step flags with ``count = 1``, and the window to carry
    into the next step (the reserved-processor start joins it).  An empty
    window yields an empty decision wasting the whole budget.  Deliberately
    one flat function over plain dict/list lookups: on the integer backend
    Python-level call overhead is what remains of the cost.
    """
    S = state.remaining
    R = state.req

    # ---- window: Lines 2-5 of Listing 1 ---------------------------------
    # carry over the unfinished part of the previous window
    window = [j for j in window if S[j] > 0]
    # GrowWindowLeft with the DESIGN.md §2 repair: gate each add on
    # r((W ∪ {j}) \ {max W}) < B so property (b) is preserved
    if window:
        lo = bisect_left(universe, window[0])
        r_wo_max = 0
        for j in window:
            r_wo_max += R[j]
        r_wo_max -= R[window[-1]]
    else:
        lo = 0
        r_wo_max = 0
    while len(window) < size and lo > 0:
        new_job = universe[lo - 1]
        if r_wo_max + R[new_job] >= budget:
            break
        window.insert(0, new_job)
        r_wo_max += R[new_job]
        lo -= 1
    # GrowWindowRight while r(W) < B  (left growth never touches
    # max W, so r(W) = r_wo_max + R[max W])
    if window:
        r_w = r_wo_max + R[window[-1]]
        hi = bisect_right(universe, window[-1])
    else:
        r_w = 0
        hi = 0
    len_u = len(universe)
    while r_w < budget and hi < len_u and len(window) < size:
        new_job = universe[hi]
        window.append(new_job)
        r_w += R[new_job]
        hi += 1
    # MoveWindowRight while resource-deficient and min W unstarted
    if enable_move and window:
        total = state.total
        while r_w < budget and hi < len_u:
            j0 = window[0]
            if 0 < S[j0] < total[j0]:  # started jobs are never dropped
                break
            window.pop(0)
            r_w -= R[j0]
            new_job = universe[hi]
            window.append(new_job)
            r_w += R[new_job]
            hi += 1
    if not window:
        return StepDecision(shares={}, waste=budget), window

    # ---- assignment: Listing 1 lines 6-20 -------------------------------
    # F = set of fractured window jobs (|F| ≤ 1 unless enable_move is off)
    iota = None
    for j in window:
        if S[j] % R[j]:
            if iota is not None:
                if enable_move:
                    fractured = [jj for jj in window if S[jj] % R[jj]]
                    raise RuntimeError(
                        f"window invariant broken: {len(fractured)} "
                        f"fractured jobs ({fractured}); the "
                        "algorithm guarantees at most one"
                    )
                break  # tolerant mode only needs the first ι
            iota = j
    max_w = window[-1]
    r_w_minus_f = r_w - R[iota] if iota is not None else r_w
    shares: Dict = {}
    n_fully_served = 0
    extra_started = None

    if r_w_minus_f >= budget:
        # ------------------------------- Case 1 --------------------------
        case = "case1"
        if iota == max_w:
            if enable_move:
                raise RuntimeError(
                    "Case 1 with fractured max W contradicts window "
                    "property (b)"
                )
            iota = None  # tolerant mode: demote ι
        used = 0
        for j in window:
            if j == iota or j == max_w:
                continue
            rj = R[j]
            share = rj if rj < S[j] else S[j]
            shares[j] = share
            if share == rj:
                n_fully_served += 1
            used += share
        if iota is not None:
            q = S[iota] % R[iota]  # q_ι(t-1) ∈ (0, r_ι), ≤ s_ι
            shares[iota] = q
            used += q
        remaining = budget - used
        if remaining < 0:
            raise RuntimeError("resource overuse in Case 1 assignment")
        share = remaining
        if R[max_w] < share:
            share = R[max_w]
        if S[max_w] < share:
            share = S[max_w]
        if share > 0:
            shares[max_w] = share
            if share == R[max_w]:
                n_fully_served += 1
        waste = budget - used - share
    else:
        # ------------------------------- Case 2 --------------------------
        case = "case2"
        used = 0
        for j in window:
            if j == iota:
                continue
            rj = R[j]
            share = rj if rj < S[j] else S[j]
            shares[j] = share
            if share == rj:
                n_fully_served += 1
            used += share
        leftover = budget - used
        iota_finishing = iota is None
        if iota is not None:
            share = leftover
            if R[iota] < share:
                share = R[iota]
            if S[iota] < share:
                share = S[iota]
            if share > 0:
                shares[iota] = share
            iota_finishing = share == S[iota]
            leftover -= share
        # the Case-2 leftover starts min R_t(W) on the reserved processor,
        # only when no fractured job survives the step (with maximal
        # windows leftover > 0 already implies that; windows that lost
        # maximality under online arrivals need the explicit check)
        if leftover > 0 and enable_move and iota_finishing and hi < len_u:
            new_job = universe[hi]
            share = leftover
            if R[new_job] < share:
                share = R[new_job]
            if S[new_job] < share:
                share = S[new_job]
            if share > 0:
                shares[new_job] = share
                extra_started = new_job
                if share == R[new_job]:
                    n_fully_served += 1
                leftover -= share
        waste = leftover

    decision = StepDecision(
        shares=shares,
        case=case,
        window=list(window),
        waste=waste,
        full_jobs_step=n_fully_served >= state.m - 2,
        full_resource_step=waste == 0,  # Σ shares ≥ B ⇔ zero waste
    )
    # the reserved-processor start joins the window (it is > max W)
    if extra_started is not None:
        window.append(extra_started)
    return decision, window


class SlidingWindowPolicy:
    """Listing 1 on the library path: :func:`window_step` per decision plus
    the Theorem 3.3 bulk horizon — a share vector that provably stays
    identical is applied for all its steps at once."""

    def __init__(
        self,
        budget,
        size: int,
        enable_move: bool = True,
        accelerate: bool = True,
    ) -> None:
        self.budget = budget
        self.size = size
        self.enable_move = enable_move
        self.accelerate = accelerate
        self.window: List = []

    def decide(self, state: EngineState) -> StepDecision:
        decision, self.window = window_step(
            state, self.window, state._unfinished, self.size, self.budget,
            self.enable_move,
        )
        if not decision.window:
            raise RuntimeError(
                "empty window with unfinished jobs — window bug"
            )
        if not self.accelerate:
            return decision
        # ---- bulk horizon (Theorem 3.3 step skipping) -------------------
        S = state.remaining
        R = state.req
        shares = decision.shares
        max_w = decision.window[-1]
        sole_stable_partial = None
        n_partial = 0
        for j, c in shares.items():
            if 0 < c < R[j]:
                n_partial += 1
                sole_stable_partial = j
        if n_partial != 1 or sole_stable_partial != max_w:
            sole_stable_partial = None
        steps_until = state.ctx.steps_until_status_change
        horizon = 0
        for j, c in shares.items():
            if c <= 0:
                continue
            limit = S[j] // c
            if limit < 1:
                limit = 1
            if c < R[j] and j != sole_stable_partial:
                i = steps_until(S[j], c, R[j])
                if i is not None and i < limit:
                    limit = i
            if horizon == 0 or limit < horizon:
                horizon = limit
        decision.count = horizon if horizon >= 1 else 1
        return decision


# ---------------------------------------------------------------------------
# Unit-size variant — m-maximal windows over the virtual (value, key) order
# ---------------------------------------------------------------------------


class UnitWindowPolicy:
    """The m-maximal-window algorithm for unit-size jobs (``s_j = r_j``).

    The virtual order sorts the unfinished jobs by ``(current value,
    key)``.  Every step finishes all window jobs but ``max W``, and only
    the started job ``ι`` ever changes value, so the order is the initial
    sorted ``order`` (static ranks ``1..n``) minus the finished jobs, with
    ``ι`` held apart and placed by bisect.  The alive ranks form a doubly
    linked list (``nxt``/``prv``; sentinels ``0`` and ``n + 1``) for the
    O(size) walks around ``ι``, and a union–find successor map (``up``)
    finds the first alive rank at or after any static rank.

    Without ``ι`` the window starts at the leftmost job and slides right
    until its ``size`` values reach the budget.  The values rise along the
    order, so a size-window falls short while all its values are below
    ``budget/size`` and reaches the budget once none is: the slide jumps
    to the size-window ending just before the first job of value
    ``≥ budget/size`` (found by bisect) and walks at most ``size`` more
    jobs — O(size + log n) per step instead of a walk as long as the slide.

    :meth:`step` runs one window with the processors and resource it is
    given: :meth:`decide` passes ``m`` and the whole budget (Corollary
    3.9), :class:`SequentialTaskPolicy` one task's leftover of both
    (Listings 3/4).
    """

    def __init__(self, budget, order: Sequence) -> None:
        self.budget = budget
        self.order = order
        n = self.n = len(order)
        zero = self.zero = budget - budget
        values, keys = zip(*order) if order else ((), ())
        self.vals: List = [zero, *values, zero]
        self.keys: List = [None, *keys, None]
        self.nxt: List[int] = [*range(1, n + 2), n + 1]
        self.prv: List[int] = [0, *range(n + 1)]
        self.up: List[int] = list(range(n + 2))
        #: ``(value, key, rank)`` of ι — it sits just before static
        #: ``rank`` in the virtual order — or None
        self.iota = None

    @property
    def done(self) -> bool:
        """Every job finished."""
        return self.iota is None and self.nxt[0] > self.n

    def decide(self, state: EngineState) -> StepDecision:
        budget = self.budget
        shares: Dict = {}
        used = self.step(state.m, budget, shares)
        count = 1
        iota = self.iota
        if iota is not None and used == budget and len(shares) == 1:
            # a lone oversized job absorbing the full budget: repeat the
            # step while a whole budget of it remains
            count += iota[0] // budget
            if count > 1:
                self._place_iota(iota[0] % budget, iota[1])
        n_full = len(shares) - (1 if self.iota is not None else 0)
        return StepDecision(
            shares=shares,
            count=count,
            case="unit",
            window=list(shares),
            full_jobs_step=n_full >= state.m - 1,
            full_resource_step=used >= budget,
        )

    def step(self, size: int, budget, shares: Dict):
        """One window of at most *size* jobs under *budget*.

        Every window job but ``max W`` gets its whole value and ``max W``
        the rest of the budget, capped at its value.  Writes the shares
        into *shares* in virtual order, unlinks the jobs that finish and
        re-places ``ι``; returns the resource used.
        """
        vals = self.vals
        nxt = self.nxt
        prv = self.prv
        tail = self.n + 1
        iota = self.iota
        lefts: List[int] = []  # ranks left of ι, nearest first
        rights: List[int] = []  # ranks right of ι, or the ι-free window
        if iota is not None:
            r_w = iota[0]
            right = self._first_alive(iota[2])
            left = prv[right]
            n_w = 1
            # grow left
            while n_w < size and left and r_w < budget:
                lefts.append(left)
                r_w += vals[left]
                left = prv[left]
                n_w += 1
            # grow right
            while r_w < budget and right != tail and n_w < size:
                rights.append(right)
                r_w += vals[right]
                right = nxt[right]
                n_w += 1
            # move right while resource-deficient and min W is not ι
            while r_w < budget and right != tail and lefts:
                r_w -= vals[lefts.pop()]
                rights.append(right)
                r_w += vals[right]
                right = nxt[right]
        else:
            r_w = self.zero
            right = nxt[0]
            while r_w < budget and right != tail and len(rights) < size:
                rights.append(right)
                r_w += vals[right]
                right = nxt[right]
            if r_w < budget and right != tail:
                # every size-window ending before the first job of value
                # ≥ budget/size falls short: jump to the last of them
                stop = self._first_alive(self._threshold_rank(size, budget))
                end = prv[stop]
                if end > rights[-1]:
                    rights = []
                    r_w = self.zero
                    for _ in range(size):
                        rights.append(end)
                        r_w += vals[end]
                        end = prv[end]
                    rights.reverse()
                    right = stop
                # move right while resource-deficient (≤ size jobs now)
                first = 0
                while r_w < budget and right != tail:
                    r_w -= vals[rights[first]]
                    first += 1
                    rights.append(right)
                    r_w += vals[right]
                    right = nxt[right]
                del rights[:first]

        # assignment: every job gets its whole value, then max W is cut
        # back to what the others leave of the budget
        keys = self.keys
        for r in reversed(lefts):
            shares[keys[r]] = vals[r]
        if iota is not None:
            shares[iota[1]] = iota[0]
        for r in rights:
            shares[keys[r]] = vals[r]
        if rights:
            last_key, last_value = keys[rights[-1]], vals[rights[-1]]
        else:
            last_key, last_value = iota[1], iota[0]
        last_share = budget - (r_w - last_value)
        if last_share <= 0:
            raise RuntimeError("window assignment bug: max W gets nothing")
        if last_share < last_value:
            shares[last_key] = last_share
            used = budget
        else:
            last_share = last_value
            used = r_w
        # every job except possibly max W finishes this step
        up = self.up
        for r in lefts + rights:
            before, after = prv[r], nxt[r]
            nxt[before] = after
            prv[after] = before
            up[r] = r + 1
        self._place_iota(last_value - last_share, last_key)
        return used

    def _place_iota(self, rem, key) -> None:
        """Make *key*, with *rem* left, the started job ι (none if
        ``rem`` is 0)."""
        if rem > 0:
            self.iota = (rem, key, bisect_left(self.order, (rem, key)) + 1)
        else:
            self.iota = None

    def _first_alive(self, rank: int) -> int:
        """The first alive rank at or after *rank* (``n + 1`` if none),
        by union–find with path compression."""
        up = self.up
        root = rank
        while up[root] != root:
            root = up[root]
        while up[rank] != root:
            up[rank], rank = root, up[rank]
        return root

    def _threshold_rank(self, size: int, budget) -> int:
        """The first static rank of value ``≥ budget/size`` (``n + 1`` if
        none), by bisection on ``size·value`` (no division)."""
        vals = self.vals
        lo, hi = 1, self.n + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if vals[mid] * size < budget:
                lo = mid + 1
            else:
                hi = mid
        return lo


# ---------------------------------------------------------------------------
# Sequential SRT engine — Listings 3 and 4 (the unit window per task)
# ---------------------------------------------------------------------------


class SequentialTaskPolicy:
    """Listings 3/4: per step, the tasks in schedule order each run one
    :class:`UnitWindowPolicy` step with the processors and resource the
    tasks before them left over.

    A task that finishes in that step is *packed* (the listings' line-3
    transition: its remaining requirement and job count fit the leftover,
    so its window is all its remaining jobs) and the next task follows;
    any other task's window ends the step.  Job keys are ``(task_id,
    job_index)``; *orders* yields one sorted ``(value, key)`` list per
    task, in schedule order, and a task's window is built from it when
    the task is first reached.  Task completion times accumulate in
    ``self.completion``."""

    def __init__(self, budget, m: int, task_ids: Sequence, orders) -> None:
        self.budget = budget
        self.m = m
        self.pending = zip(task_ids, orders)
        #: id and window of the first unfinished task (None: not reached)
        self.tid = None
        self.window: Optional[UnitWindowPolicy] = None
        self.t = 0
        self.completion: Dict = {}

    def decide(self, state: EngineState) -> StepDecision:
        self.t += 1
        m = self.m
        avail = self.budget
        shares: Dict = {}
        packed: List = []
        window = self.window
        while len(shares) < m and avail > 0:
            if window is None:
                task = next(self.pending, None)
                if task is None:
                    break
                self.tid, order = task
                window = self.window = UnitWindowPolicy(self.budget, order)
            avail -= window.step(m - len(shares), avail, shares)
            if not window.done:
                break
            self.completion[self.tid] = self.t
            packed.append(self.tid)
            window = self.window = None
        if not shares:
            raise RuntimeError(
                "engine made no progress with unfinished tasks remaining"
            )
        return StepDecision(
            shares=shares,
            count=1,
            case="seq",
            window=packed,
            used=self.budget - avail,
            assign_processors=False,
        )


# ---------------------------------------------------------------------------
# Online layer — arrival-aware window and list-scheduling policies
# ---------------------------------------------------------------------------


class OnlineWindowPolicy:
    """Arrival-aware Listing 1: per step, the window machinery runs over
    the *released and unfinished* jobs only.  Steps with nothing released
    are idle decisions (empty share vector, zero utilization)."""

    def __init__(self, budget, size: int, release_of: Dict) -> None:
        self.budget = budget
        self.size = size
        self.release_of = release_of
        self.window: List = []
        self.t = 0

    def decide(self, state: EngineState) -> StepDecision:
        self.t += 1
        t = self.t
        rel = self.release_of
        universe = [j for j in state._unfinished if rel[j] <= t]
        if not universe:
            # idle step: nothing released yet
            return StepDecision(
                shares={},
                case="idle",
                used=state.zero,
                assign_processors=False,
            )
        decision, self.window = window_step(
            state, self.window, universe, self.size, self.budget
        )
        # the online layer manages no processors and records utilization;
        # the Theorem 3.3 step flags are an offline accounting
        decision.used = self.budget - decision.waste
        decision.assign_processors = False
        decision.full_jobs_step = decision.full_resource_step = False
        return decision


class OnlineListPolicy:
    """Online list-scheduling baseline: full allocations only, FIFO by
    release (ties by requirement)."""

    def __init__(self, budget, m: int, release_of: Dict) -> None:
        self.budget = budget
        self.m = m
        self.release_of = release_of
        self.t = 0

    def decide(self, state: EngineState) -> StepDecision:
        self.t += 1
        t = self.t
        S = state.remaining
        R = state.req
        B = self.budget
        rel = self.release_of
        shares: Dict = {}
        used = state.zero
        slots = self.m
        for job_id in state._unfinished:
            if state.is_started(job_id):
                full = min(R[job_id], B, S[job_id])
                shares[job_id] = full
                used += full
                slots -= 1
        fresh = sorted(
            (
                j
                for j in state._unfinished
                if not state.is_started(j) and rel[j] <= t
            ),
            key=lambda j: (rel[j], R[j], j),
        )
        for job_id in fresh:
            if slots <= 0:
                break
            full = min(R[job_id], B)
            if used + full <= B:
                share = min(full, S[job_id])
                shares[job_id] = share
                used += share
                slots -= 1
        return StepDecision(
            shares=shares, case="list", used=used, assign_processors=False
        )


# ---------------------------------------------------------------------------
# Fixed-assignment layer — per-step resource distribution among queue heads
# ---------------------------------------------------------------------------


class AssignedQueuePolicy:
    """Work-conserving head-of-queue distribution (``smallest_first``,
    ``largest_first`` or ``proportional``).  ``queues`` holds one job-key
    list per processor in queue order; heads advance as jobs finish.

    The ``proportional`` policy uses exact division, which does not stay
    on the scaled-integer lattice — entry points resolve its backend to
    the exact context (see ``repro.assigned.scheduler``)."""

    def __init__(self, budget, queues: Sequence[Sequence], policy: str) -> None:
        self.budget = budget
        self.queues = [list(q) for q in queues]
        self.policy = policy
        self.heads = [0] * len(self.queues)

    def decide(self, state: EngineState) -> StepDecision:
        S = state.remaining
        R = state.req
        heads = self.heads
        current: List = []
        for i, queue in enumerate(self.queues):
            h = heads[i]
            while h < len(queue) and S[queue[h]] <= 0:
                h += 1
            heads[i] = h
            if h < len(queue):
                current.append(queue[h])
        raw = self._distribute(current, S, R)
        shares: Dict = {}
        used = state.zero
        for key in current:
            share = raw.get(key)
            if share is None or share <= 0:
                continue
            shares[key] = share
            used += share
        if used <= 0:
            raise RuntimeError("assigned scheduler made no progress")
        return StepDecision(
            shares=shares,
            case=self.policy,
            used=used,
            assign_processors=False,
        )

    def _distribute(self, current: List, S: Dict, R: Dict) -> Dict:
        budget = self.budget
        caps = {key: min(R[key], S[key]) for key in current}
        if self.policy == "proportional":
            total_req = 0
            for key in current:
                total_req += R[key]
            shares: Dict = {}
            left = budget
            # proportional seed, capped; then cascade the slack smallest-first
            for key in current:
                seed = budget * R[key] / total_req
                if caps[key] < seed:
                    seed = caps[key]
                shares[key] = seed
                left -= seed
            if left > 0:
                for key in sorted(current, key=lambda k: (R[k], k)):
                    room = caps[key] - shares[key]
                    if room <= 0:
                        continue
                    extra = min(room, left)
                    shares[key] += extra
                    left -= extra
                    if left <= 0:
                        break
            return shares
        reverse = self.policy == "largest_first"
        ordered = sorted(
            current, key=lambda k: (R[k], k), reverse=reverse
        )
        shares = {}
        left = budget
        for key in ordered:
            share = min(caps[key], left)
            if share > 0:
                shares[key] = share
                left -= share
            if left <= 0:
                break
        return shares

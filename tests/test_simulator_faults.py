"""The simulator under fault plans: every run ends certified.

Each built-in policy runs every fault plan of the golden-digest simulator
corpus (``srj_corpus(3017, 50)``, two ``FaultPlan.random`` plans per
instance) and 200 more seeded plans, some with capacity-0 and
all-processors-down windows.  Every run must end in a schedule whose own
certificate (:attr:`SimulationResult.report`) passes and which an
independent replay of the plan (:func:`plan_violations`) accepts; the only
other allowed end is a plan that stalls the machine for good, which must
raise :class:`FaultRecoveryError` at the stall step.  ``max_steps`` is
low, so a run that never ends fails fast, and it bounds idle steps too: a
stall that outlasts it raises :class:`FaultRecoveryError` at once.
"""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from typing import List

import pytest

from repro.core.instance import Instance
from repro.faults import FaultEvent, FaultPlan, FaultRecoveryError
from repro.faults import run_with_faults
from repro.simulator import (
    GreedyFillPolicy,
    ListSchedulingPolicy,
    PolicyViolation,
    SimulationEngine,
    SlidingWindowPolicy,
)

from test_golden_digests import srj_corpus

POLICIES = {
    "window": SlidingWindowPolicy,
    "list": ListSchedulingPolicy,
    "greedy": GreedyFillPolicy,
}

#: above every makespan of the plans below (the corpus tops out near 1400)
MAX_STEPS = 3000

CORPUS = srj_corpus(3017, 50)


def corpus_plan(i: int, seed: int) -> FaultPlan:
    inst = CORPUS[i]
    return FaultPlan.random(seed, m=inst.m, n_jobs=inst.n, horizon=40,
                            events=6)


def new_cases(count: int):
    """Seeded small instances, each with one random plan; every third plan
    gains a capacity-0 window, every fourth an all-down window and every
    tenth ends in a stall for good (capacity 0 or every processor down)."""
    rng = random.Random(2024)
    cases = []
    for k in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 10)
        inst = Instance.from_requirements(
            m,
            [Fraction(rng.randint(1, 30), rng.randint(4, 20))
             for _ in range(n)],
            [rng.randint(1, 5) for _ in range(n)],
        )
        events = list(FaultPlan.random(
            5000 + k, m=m, n_jobs=n, horizon=rng.choice((8, 20, 40)),
            events=rng.randint(1, 10),
        ).events)
        t = rng.randint(0, 15)
        if k % 3 == 0:
            events += [FaultEvent(t, "dip", capacity=Fraction(0)),
                       FaultEvent(t + rng.randint(1, 3), "dip",
                                  capacity=Fraction(rng.randint(1, 4), 4))]
        if k % 4 == 0:
            back = t + rng.randint(1, 3)
            for p in range(m):
                events += [FaultEvent(t, "crash", processor=p),
                           FaultEvent(back, "restore", processor=p)]
        if k % 10 == 9:
            end = max(ev.t for ev in events) + 1
            if k % 20 == 9:
                events.append(FaultEvent(end, "dip", capacity=Fraction(0)))
            else:
                events += [FaultEvent(end, "crash", processor=p)
                           for p in range(m)]
        cases.append((inst, FaultPlan.create(events)))
    return cases


def plan_violations(inst: Instance, plan: FaultPlan, res) -> List[str]:
    """Replay *plan* against the schedule *res* emitted, step by step, in
    plain Fractions: capacity, online processors, one job per processor,
    shares in ``(0, r_j]``, nothing after a job finished or was aborted,
    non-preemption as far as the machine allows, exact delivery, the
    recorded completion and abort steps, and the makespan."""
    out: List[str] = []
    events = list(plan.events)
    down, cap, k = set(), Fraction(1), 0
    req = {job.id: job.requirement for job in inst.jobs}
    need = {job.id: job.total_requirement for job in inst.jobs}
    got = {j: Fraction(0) for j in req}
    done, aborted, started = {}, {}, set()
    for t, step in enumerate(res.schedule.steps, start=1):
        while k < len(events) and events[k].t < t:
            ev = events[k]
            k += 1
            if ev.kind == "crash" and ev.processor < inst.m:
                down.add(ev.processor)
            elif ev.kind == "restore":
                down.discard(ev.processor)
            elif ev.kind == "dip":
                cap = ev.capacity
            elif ev.job in got and ev.job not in done:
                aborted.setdefault(ev.job, ev.t)
                started.discard(ev.job)
        online = inst.m - len(down) if cap else 0
        pieces = {p.job_id: p for p in step.pieces}
        served = sum(1 for j in started if j in pieces)
        if served < min(len(started), online):
            out.append(f"step {t}: a started job starved")
        if sum(p.share for p in step.pieces) > cap:
            out.append(f"step {t}: over capacity {cap}")
        if len({p.processor for p in step.pieces}) < len(step.pieces):
            out.append(f"step {t}: a processor runs two jobs")
        for j, p in pieces.items():
            if p.processor in down or not 0 <= p.processor < inst.m:
                out.append(f"step {t}: job {j} on offline processor")
            if not 0 < p.share <= req[j]:
                out.append(f"step {t}: job {j} share {p.share}")
            if j in done or j in aborted:
                out.append(f"step {t}: job {j} ran after it ended")
            got[j] += p.share
            started.add(j)
            if got[j] >= need[j]:
                done[j] = t
                started.discard(j)
    for ev in events[k:]:  # events after the last step abort nothing
        if ev.kind == "abort" and ev.job in got and ev.job not in done:
            aborted.setdefault(ev.job, ev.t)
    if res.aborted != aborted:
        out.append(f"aborts {res.aborted} != replayed {aborted}")
    for j in req:
        if j in aborted:
            continue
        if got[j] != need[j]:
            out.append(f"job {j} got {got[j]} of {need[j]}")
        if res.completion_times.get(j) != done.get(j):
            out.append(f"job {j} completion {res.completion_times.get(j)}"
                       f" != {done.get(j)}")
    if res.makespan != len(res.schedule.steps):
        out.append("makespan differs from the schedule's length")
    return out


def stalls_for_good(inst: Instance, plan: FaultPlan) -> bool:
    """True iff the machine is stalled once every event of *plan* is in."""
    down, cap = set(), Fraction(1)
    for ev in plan.events:
        if ev.kind == "crash" and ev.processor < inst.m:
            down.add(ev.processor)
        elif ev.kind == "restore":
            down.discard(ev.processor)
        elif ev.kind == "dip":
            cap = ev.capacity
    return len(down) == inst.m or cap == 0


def run(policy: str, inst: Instance, plan: FaultPlan):
    res = SimulationEngine(inst, POLICIES[policy](), fault_plan=plan,
                           max_steps=MAX_STEPS).run()
    assert res.report.ok, res.report.violations
    assert plan_violations(inst, plan, res) == []
    return res


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_digest_corpus_plans_end_certified(policy):
    for i, inst in enumerate(CORPUS):
        for k in range(2):
            run(policy, inst, corpus_plan(i, 11 + 7 * i + k))


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_new_seeded_plans_end_certified(policy):
    stalled = 0
    for inst, plan in new_cases(200):
        try:
            run(policy, inst, plan)
        except FaultRecoveryError as exc:
            # the machine idles through the plan's last event, then stalls
            assert stalls_for_good(inst, plan), exc
            assert f"stalled at step {plan.horizon() + 1} " in str(exc)
            stalled += 1
    assert 0 < stalled <= 200 // 10


# the m = 3 toy: r = 1/3, 1/2, 1/4, 2/3 and p = 3, 2, 4, 1
TOY = Instance.from_requirements(
    3, [Fraction(1, 3), Fraction(1, 2), Fraction(1, 4), Fraction(2, 3)],
    [3, 2, 4, 1],
)
DIP = [FaultEvent(2, "dip", capacity=Fraction(0))]
DIP_END = [FaultEvent(4, "dip", capacity=Fraction(1))]
DOWN = [FaultEvent(2, "crash", processor=p) for p in range(3)]
DOWN_END = [FaultEvent(4, "restore", processor=p) for p in range(3)]


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("window", [DIP + DIP_END, DOWN + DOWN_END],
                         ids=["capacity-0", "all-down"])
def test_two_step_stall_idles_and_finishes(policy, window):
    plan = FaultPlan.create(window)
    res = run(policy, TOY, plan)
    assert not any(step.pieces for step in res.schedule.steps[2:4])
    assert run_with_faults(TOY, plan).makespan == 8


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("window", [DIP, DOWN], ids=["capacity-0", "all-down"])
def test_permanent_stall_raises_at_the_stall_step(policy, window):
    plan = FaultPlan.create(window)
    with pytest.raises(FaultRecoveryError, match="stalled at step 3 "):
        SimulationEngine(TOY, POLICIES[policy](), fault_plan=plan,
                         max_steps=MAX_STEPS).run()
    with pytest.raises(FaultRecoveryError, match="stalled at step 3 "):
        run_with_faults(TOY, plan)


FAR = 10 ** 9


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("window", [
    DIP + [FaultEvent(FAR, "dip", capacity=Fraction(1))],
    DOWN + [FaultEvent(FAR, "restore", processor=p) for p in range(3)],
    DOWN + [FaultEvent(FAR, "dip", capacity=Fraction(1, 2))],
], ids=["capacity-0", "all-down", "all-down-then-dip"])
def test_far_off_event_stops_at_max_steps(policy, window):
    # the stall would idle to t = 10**9: the run stops at the stall step
    # rather than emit 10**9 idle steps, while the run-length runner idles
    # in one segment
    plan = FaultPlan.create(window)
    with pytest.raises(FaultRecoveryError, match=(
        f"stalled from step 3 to step {FAR}, past max_steps={MAX_STEPS}"
    )):
        SimulationEngine(TOY, POLICIES[policy](), fault_plan=plan,
                         max_steps=MAX_STEPS).run()
    if window[-1].kind == "restore":
        assert run_with_faults(TOY, plan).makespan == FAR + 4


def test_max_steps_counts_idle_steps():
    # the dip idles steps 3..9 in one decision; the run takes 13 steps
    plan = FaultPlan.create(DIP + [FaultEvent(9, "dip",
                                              capacity=Fraction(1))])
    with pytest.raises(PolicyViolation, match="max_steps=12"):
        SimulationEngine(TOY, ListSchedulingPolicy(), fault_plan=plan,
                         max_steps=12).run()
    res = SimulationEngine(TOY, ListSchedulingPolicy(), fault_plan=plan,
                           max_steps=13).run()
    assert res.makespan == 13 and res.report.ok


def test_stall_costs_constant_memory():
    # a dip to 0 from step 2 to step 900 002 is one run-length row: the
    # run holds no per-step object, and the schedule is built on read
    plan = FaultPlan.create(DIP + [FaultEvent(900_002, "dip",
                                              capacity=Fraction(1))])
    tracemalloc.start()
    try:
        res = SimulationEngine(TOY, ListSchedulingPolicy(),
                               fault_plan=plan).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.report.ok and res.makespan == 900_006
    assert peak < 4 * 2 ** 20, peak
    assert sum(run[2] for run in res.runs) == res.makespan


@pytest.mark.parametrize("i, seed", [(0, 12), (5, 46), (28, 207)])
def test_window_named_seeds(i, seed):
    # (0, 12) and (28, 207) dip the budget under a carried window; (5, 46)
    # crashes one of two processors, which leaves a serial machine
    run("window", CORPUS[i], corpus_plan(i, seed))


def test_throttle_lets_every_job_finish():
    # m = 4, n = 19: a dip to 1/4 at t = 14 throttles started jobs 0 and 1;
    # the factor comes from the uncapped shares, so job 0 finishes (a factor
    # from the capped ones shrinks its remainder geometrically, never to 0)
    res = run("list", CORPUS[3], corpus_plan(3, 32))
    assert res.completion_times[0] == 25
    assert max(p.share.denominator for s in res.schedule.steps
               for p in s.pieces) < 2 ** 16


def test_dropped_job_releases_its_processor():
    # m = 3: processor 0 crashes at t = 17; step 18 continues started jobs
    # 0 and 2 and drops started job 5, whose processor 1 job 0 takes over
    res = run("list", CORPUS[28], corpus_plan(28, 207))
    step = {p.job_id: p.processor for p in res.schedule.steps[17].pieces}
    assert step == {0: 1, 2: 2}


# ---------------------------------------------------------------------------
# seeded defects the end certificate must report
# ---------------------------------------------------------------------------


class _Cheat:
    """The list policy, plus one tamper with the state before step 4."""

    def __init__(self, tamper):
        self.inner, self.tamper = ListSchedulingPolicy(), tamper

    def decide(self, state):
        if state.t == 3:
            self.tamper(state)
        return self.inner.decide(state)


def _zero_work(state):
    # finish job 3 without delivering its work
    state.force_finish(3)


def _move_completion(state):
    state.completion_times[1] += 1  # job 1 finished at step 3


def _forget_completion(state):
    del state.completion_times[1]


@pytest.mark.parametrize("tamper, found", [
    (_zero_work, "job 3 delivered 0, needs 2/3"),
    (_move_completion, "job 1: recorded completion 4 != finish step 3"),
    (_forget_completion, "job 1 has no completion time"),
])
def test_certificate_reports_seeded_defects(tamper, found):
    assert SimulationEngine(TOY, ListSchedulingPolicy()).run().report.ok
    res = SimulationEngine(TOY, _Cheat(tamper)).run()
    assert found in res.report.violations

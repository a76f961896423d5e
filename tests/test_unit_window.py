"""The unit-size window at sizes where its slide search matters.

The ι-free slide of :class:`repro.engine.policies.UnitWindowPolicy` (no
started job: the window restarts at the leftmost unfinished job and moves
right until it reaches the budget) crosses hundreds of jobs per step on
inputs dominated by small items.  These tests run such inputs (n ≥ 500)
and check

* that the int and fraction backends produce the same full trace;
* that the bare-requirements :func:`repro.engine.api.unit_makespan`
  equals :func:`repro.core.unit.schedule_unit`'s makespan;
* that trace digests equal golden values recorded before the window
  search replaced the walk (uniform, bimodal and tiny-heavy inputs ×
  k ∈ {2, 4, 16});
* every step's window against the m-maximal-window properties, replayed
  over the virtual ``(remaining value, job id)`` order — also when one
  policy is driven with a different ``(size, budget)`` on every call, as
  the SRT engine drives it with a task's leftover processors and
  resource.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from repro.core.instance import Instance
from repro.core.unit import schedule_unit
from repro.engine.api import unit_makespan
from repro.engine.policies import UnitWindowPolicy
from repro.workloads import bimodal_fractions, uniform_fractions

N = 600


def tiny_heavy_fractions(rng: random.Random, n: int):
    """70% items of at most 1/50, the rest uniform on [1/4, 1]."""
    out = []
    for _ in range(n):
        if rng.random() < 0.7:
            out.append(Fraction(rng.randint(1, 6), 300))
        else:
            out.append(Fraction(rng.randint(30, 120), 120))
    return out


FAMILIES = {
    "uniform": lambda rng, n: uniform_fractions(rng, n, hi=Fraction(6, 5)),
    "bimodal": bimodal_fractions,
    "tiny_heavy": tiny_heavy_fractions,
}


def make_requirements(family: str, k: int):
    rng = random.Random(f"{family}-{k}")
    return FAMILIES[family](rng, N)


def trace_digest(result) -> str:
    """SHA-256 over the full trace (shares in emission order, processors,
    counts, cases, windows), the completion times and the makespan."""
    h = hashlib.sha256()
    for run in result.trace:
        h.update(repr((
            tuple((j, str(s)) for j, s in run.shares.items()),
            tuple(run.processors.items()),
            run.count,
            run.case,
            tuple(run.window),
        )).encode())
    h.update(repr(sorted(result.completion_times.items())).encode())
    h.update(repr(result.makespan).encode())
    return h.hexdigest()


#: digests of the walking window (the implementation before the slide
#: search); any change to a decision changes one of these
GOLDEN = {
    ("uniform", 2): "2a0d206abc687154c6f6130c3de275bfc0248c3612d9f2407608f8ff1a321d3f",
    ("uniform", 4): "4b2bab0684cfdc7032923e44542ac20ba87b70470769877671cc5820bfd6c711",
    ("uniform", 16): "a5fa1b8a74772eec070d7460676fb07260f2ff5a1961dca835c8c9cd228fac9e",
    ("bimodal", 2): "6d0a299f92aa5c49357a2277e599d795b13f98adb3d717e597cb0712fd005329",
    ("bimodal", 4): "fb17985681d44cad73ed2f1fc45a8a666e539a4fe37de79cdb1b37a30025a126",
    ("bimodal", 16): "3603cca28e0603987d526d8831395f9bb29cee82670276f8ad90115e7fab37d5",
    ("tiny_heavy", 2): "57a607279ed329f9fed628c2e2cb10e266f0b1382eb1236aed6b5be3f1252b63",
    ("tiny_heavy", 4): "b2bc1300fb960aac8a7ed4ff044819f541a89469d63ddb0a05f4f00fa48e07c6",
    ("tiny_heavy", 16): "c79d06e1d8af64b231b231d747b48f14b3fd2721d8d17ee1cf2f242901ebce64",
}

CASES = sorted(GOLDEN)


def step_violations(rem, total, window, shares, size, budget):
    """Check one step's window against the m-maximal-window properties,
    with *size* jobs and *budget* resource in place of m and 1.

    *rem*/*total* map every unfinished job to its remaining and initial
    value before the step.  Returns the problems found and how far an
    ι-free window slid right of the leftmost job (0 if it did not)."""
    order = sorted((v, j) for j, v in rem.items())
    keys = [j for _, j in order]
    pos = {j: i for i, j in enumerate(keys)}
    first, last = pos[window[0]], pos[window[-1]]
    started = [j for j in keys if rem[j] < total[j]]
    values = [rem[j] for j in window]
    r_w = sum(values)
    problems = []
    slide = 0

    def bad(what):
        problems.append(f"{what} (window {window})")

    if keys[first:last + 1] != list(window):
        bad("not contiguous in the virtual order")
    if len(window) > size:
        bad(f"|W| = {len(window)} > size = {size}")
    if sum(values[:-1]) >= budget:
        bad("the jobs before max W do not fit")
    for j in window[:-1]:
        if shares.get(j) != rem[j]:
            bad(f"job {j} below max W does not finish")
    if len(started) > 1:
        bad(f"{len(started)} started jobs")
    if started and started[0] not in window:
        bad("started job outside the window")
    full = len(window) == size or r_w >= budget
    if first > 0 and not full:
        bad("left neighbour could join")
    if last + 1 < len(keys) and r_w < budget:
        if not (len(window) == size and started and window[0] == started[0]):
            bad("window stopped short of the budget")
    if not started and first > 0:
        # ι-free slide: stops at the first size-window reaching the budget
        slide = first
        back = r_w - rem[window[-1]] + rem[keys[first - 1]]
        if back >= budget:
            bad("slide passed an earlier window reaching the budget")
    return problems, slide


def window_violations(instance, result):
    """Replay *result* and list every step whose window breaks an
    m-maximal-window property; also return the longest ι-free slide."""
    rem = {job.id: job.requirement for job in instance.jobs}
    total = dict(rem)
    problems = []
    longest_slide = 0
    for step, run in enumerate(result.trace):
        found, slide = step_violations(
            rem, total, run.window, run.shares, instance.m, Fraction(1)
        )
        problems.extend(f"step {step}: {what}" for what in found)
        longest_slide = max(longest_slide, slide)
        for j, share in run.shares.items():
            rem[j] -= run.count * share
            if rem[j] <= 0:
                del rem[j]
    if rem:
        problems.append(f"unfinished after the trace: {sorted(rem)}")
    return problems, longest_slide


@pytest.fixture(scope="module")
def runs():
    """``(family, k) -> (instance, requirements, int result, fraction
    result)`` for every golden case, computed once."""
    out = {}
    for family, k in CASES:
        reqs = make_requirements(family, k)
        inst = Instance.from_requirements(k, reqs)
        out[family, k] = (
            inst,
            reqs,
            schedule_unit(inst, backend="int"),
            schedule_unit(inst, backend="fraction"),
        )
    return out


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
class TestLargeSlides:
    def test_golden_digest(self, runs, case):
        _, _, int_res, frac_res = runs[case]
        assert trace_digest(int_res) == GOLDEN[case]
        assert trace_digest(frac_res) == GOLDEN[case]

    def test_backends_same_trace(self, runs, case):
        _, _, int_res, frac_res = runs[case]
        assert int_res.trace == frac_res.trace
        assert int_res.completion_times == frac_res.completion_times
        assert int_res.makespan == frac_res.makespan

    def test_unit_makespan_matches_schedule(self, runs, case):
        inst, reqs, int_res, _ = runs[case]
        for backend in ("int", "fraction"):
            got = unit_makespan(reqs, inst.m, Fraction(1), backend=backend)
            assert got == int_res.makespan

    def test_window_properties(self, runs, case):
        inst, _, int_res, _ = runs[case]
        problems, _ = window_violations(inst, int_res)
        assert problems == []


@pytest.mark.parametrize(
    "case", [("bimodal", 2), ("bimodal", 4), ("tiny_heavy", 2),
             ("tiny_heavy", 4), ("tiny_heavy", 16)],
    ids=lambda c: f"{c[0]}-k{c[1]}",
)
def test_inputs_exercise_long_slides(runs, case):
    """The golden inputs really reach the search: some ι-free window
    starts hundreds of jobs right of the leftmost unfinished job."""
    inst, _, int_res, _ = runs[case]
    _, longest = window_violations(inst, int_res)
    assert longest >= 400


def test_random_instances_window_properties():
    """Seeded mid-size instances: both backends agree step for step and
    every window is m-maximal."""
    rng = random.Random(0x51DE)
    for _ in range(30):
        k = rng.choice([2, 3, 4, 8, 16])
        n = rng.randint(50, 400)
        family = rng.choice(sorted(FAMILIES))
        reqs = FAMILIES[family](rng, n)
        inst = Instance.from_requirements(k, reqs)
        int_res = schedule_unit(inst, backend="int")
        frac_res = schedule_unit(inst, backend="fraction")
        assert int_res.trace == frac_res.trace, (family, k, n)
        assert unit_makespan(reqs, k, Fraction(1)) == int_res.makespan
        problems, _ = window_violations(inst, int_res)
        assert problems == [], (family, k, n, problems[:3])


def drive_per_call(reqs, m, rng):
    """Run one :class:`UnitWindowPolicy` over *reqs* to the end with a
    random ``size`` in 1..m and ``budget`` in (0, 2] on every call; return
    the problems found, the longest ι-free slide and the step count."""
    policy = UnitWindowPolicy(Fraction(1), sorted(
        (v, j) for j, v in enumerate(reqs)
    ))
    rem = dict(enumerate(reqs))
    total = dict(rem)
    problems = []
    longest_slide = 0
    steps = 0
    while rem:
        size = rng.randint(1, m)
        budget = Fraction(rng.randint(1, 600), 300)
        shares = {}
        used = policy.step(size, budget, shares)
        found, slide = step_violations(
            rem, total, list(shares), shares, size, budget
        )
        if used != sum(shares.values()) or used > budget:
            found.append(f"used {used} for shares {shares}")
        problems.extend(f"step {steps}: {what}" for what in found)
        longest_slide = max(longest_slide, slide)
        for j, share in shares.items():
            rem[j] -= share
            if rem[j] <= 0:
                del rem[j]
        if policy.done != (not rem):
            problems.append(f"step {steps}: done is {policy.done}")
        steps += 1
    return problems, longest_slide, steps


def test_per_call_size_and_budget():
    """One policy, a random ``(size, budget)`` per step: every window is
    size-maximal under that step's budget, and the inputs reach the
    ι-free slide search."""
    rng = random.Random(0x5EED)
    cases = [(family, m, 150) for family in sorted(FAMILIES)
             for m in (2, 5, 16)]
    cases.append(("tiny_heavy", 4, N))
    longest = 0
    for family, m, n in cases:
        reqs = FAMILIES[family](rng, n)
        problems, slide, _ = drive_per_call(reqs, m, rng)
        assert problems == [], (family, m, n, problems[:3])
        longest = max(longest, slide)
    assert longest >= 400

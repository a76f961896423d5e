"""Tests for repro.faults.snapshot: StateSnapshot and Checkpoint."""

import pickle
from fractions import Fraction

import pytest

from repro.core.instance import Instance
from repro.engine import make_context
from repro.engine.backends import lcm_denominator
from repro.engine.loop import StepDecision
from repro.faults import (
    Checkpoint,
    FaultPlanError,
    StateSnapshot,
    restore_state,
    snapshot_state,
)

from conftest import exact_state


def _mid_run_state():
    """An exact engine state advanced a few steps by hand."""
    inst = Instance.from_requirements(
        3,
        [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)],
        sizes=[6, 4, 3],
    )
    state = exact_state(inst)
    for _ in range(3):
        shares = {
            j: min(state.remaining[j], state.req[j])
            for j in list(state._unfinished)[:2]
        }
        state.apply_decision(StepDecision(shares=shares))
    return state


class TestStateSnapshot:
    def test_capture_fields_exact(self):
        state = _mid_run_state()
        snap = snapshot_state(state)
        assert snap.m == 3
        assert snap.t == 3
        for j, v in snap.remaining.items():
            assert isinstance(v, Fraction)
            assert v == state.remaining[j]

    def test_restore_round_trip(self):
        state = _mid_run_state()
        snap = snapshot_state(state)
        again = restore_state(snap)
        assert again.t == state.t
        assert again.remaining == state.remaining
        assert again._unfinished == state._unfinished
        assert again.completion_times == state.completion_times
        assert again.processor_of == {
            k: p
            for k, p in state.processor_of.items()
            if k in state.remaining
        }

    def test_restored_state_continues_identically(self):
        a = _mid_run_state()
        b = restore_state(snapshot_state(a))
        for _ in range(5):
            for st in (a, b):
                if not st._unfinished:
                    continue
                shares = {
                    j: min(st.remaining[j], st.req[j])
                    for j in list(st._unfinished)[:2]
                }
                st.apply_decision(StepDecision(shares=shares))
        assert a.remaining == b.remaining
        assert a.completion_times == b.completion_times
        assert a.t == b.t

    def test_pickle_round_trip(self):
        snap = snapshot_state(_mid_run_state())
        again = pickle.loads(pickle.dumps(snap))
        assert again == snap

    def test_json_round_trip_exact(self):
        snap = snapshot_state(_mid_run_state())
        again = StateSnapshot.from_json(snap.to_json())
        assert again == snap

    def test_json_round_trip_tuple_keys(self):
        snap = snapshot_state(_mid_run_state())
        # relabel with SRT-style tuple keys
        snap.requirements = {(0, k): v for k, v in snap.requirements.items()}
        snap.totals = {(0, k): v for k, v in snap.totals.items()}
        snap.remaining = {(0, k): v for k, v in snap.remaining.items()}
        snap.processor_of = {(0, k): p for k, p in snap.processor_of.items()}
        snap.completion_times = {
            (0, k): ct for k, ct in snap.completion_times.items()
        }
        again = StateSnapshot.from_json(snap.to_json())
        assert again == snap

    def test_restore_on_int_backend(self):
        state = _mid_run_state()
        snap = snapshot_state(state)
        reqs = list(snap.requirements.values())
        ctx = make_context("int", lcm_denominator(Fraction(1), reqs))
        again = snap.restore(ctx)
        assert again.ctx.to_fraction(
            again.remaining[0]
        ) == snap.remaining[0]


class TestCheckpoint:
    def test_json_round_trip_exact(self):
        cp = Checkpoint(
            t=17,
            residual={0: Fraction(7, 3), 4: Fraction(1, 9)},
            completed={1: 5, 2: 11},
            aborted={3: 8},
            down=(1, 2),
            capacity=Fraction(3, 4),
            next_event=5,
        )
        again = Checkpoint.from_json(cp.to_json())
        assert again == cp
        assert again.residual[0] == Fraction(7, 3)

    def test_save_load(self, tmp_path):
        path = tmp_path / "cp.json"
        cp = Checkpoint(t=3, residual={0: Fraction(1, 2)})
        cp.save(str(path))
        assert Checkpoint.load(str(path)) == cp

    def test_malformed_rejected(self):
        with pytest.raises(FaultPlanError):
            Checkpoint.from_json("not json")
        with pytest.raises(FaultPlanError):
            Checkpoint.from_json('{"residual": {}}')

    def test_pickle_round_trip(self):
        cp = Checkpoint(t=2, residual={1: Fraction(5, 7)}, down=(0,))
        assert pickle.loads(pickle.dumps(cp)) == cp

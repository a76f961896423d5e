"""Observability of fault events: on_fault hook, counters, JSONL records,
and the trace observer's degrade-on-write-failure behavior."""

import warnings
from fractions import Fraction

from repro.faults import FaultEvent, FaultPlan, run_with_faults
from repro.obs import (
    JsonlTraceObserver,
    MultiObserver,
    Observer,
    read_trace,
)
from repro.workloads import make_instance
import random


def _inst(m=3, n=8, seed=0):
    return make_instance("uniform", random.Random(seed), m, n)


def _plan():
    return FaultPlan.create(
        [
            FaultEvent(2, "crash", processor=0),
            FaultEvent(4, "restore", processor=0),
            FaultEvent(5, "dip", capacity=Fraction(1, 2)),
            FaultEvent(7, "dip", capacity=Fraction(1)),
            FaultEvent(1, "abort", job=9999),  # moot: skipped
        ]
    )


class TestOnFaultHook:
    def test_base_observer_ignores_faults(self):
        # the hook must be a no-op default so old observers keep working
        Observer().on_fault(
            FaultEvent(0, "crash", processor=0), {"t": 0, "applied": True}
        )

    def test_multi_observer_fans_out(self):
        seen = []

        class Spy(Observer):
            def on_fault(self, event, info):
                seen.append((event.kind, info["applied"]))

        multi = MultiObserver([Spy(), Spy()])
        multi.on_fault(FaultEvent(0, "dip", capacity=Fraction(1, 2)), {
            "t": 0, "applied": True,
        })
        assert seen == [("dip", True), ("dip", True)]

    def test_stats_observer_counts_faults(self):
        res = run_with_faults(_inst(), _plan(), collect_stats=True)
        m = res.stats
        assert m.counter("faults_total") == 5
        assert m.counter("faults_kind.crash") == 1
        assert m.counter("faults_kind.dip") == 2
        assert m.counter("faults_skipped") == 1


class TestJsonlFaultRecords:
    def test_fault_records_written_and_parsed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTraceObserver(str(path))
        run_with_faults(_inst(), _plan(), observer=tracer)
        tracer.close()
        faults = [r for r in read_trace(str(path)) if r["type"] == "fault"]
        assert len(faults) == 5
        kinds = [r["kind"] for r in faults]
        assert kinds.count("dip") == 2
        dip = next(r for r in faults if r["kind"] == "dip")
        assert dip["capacity"] == Fraction(1, 2)  # parsed back exactly
        assert dip["layer"] == "faults"
        skipped = [r for r in faults if not r["applied"]]
        assert len(skipped) == 1 and skipped[0]["kind"] == "abort"


class TestTraceDegradeOnWriteFailure:
    def test_unwritable_path_warns_and_disables(self, tmp_path):
        # a directory path makes every write fail
        tracer = JsonlTraceObserver(str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run_with_faults(_inst(), _plan(), observer=tracer)
        tracer.close()
        # the run itself completed despite the broken trace
        assert res.makespan > 0
        messages = [str(w.message) for w in caught]
        assert any("tracing disabled" in msg for msg in messages)
        # exactly one warning: subsequent writes are silently skipped
        assert (
            sum("tracing disabled" in msg for msg in messages) == 1
        )

    def test_close_after_failure_is_quiet(self, tmp_path):
        tracer = JsonlTraceObserver(str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_with_faults(_inst(), FaultPlan.empty(), observer=tracer)
        tracer.close()  # must not raise

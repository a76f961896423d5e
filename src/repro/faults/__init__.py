"""Fault tolerance: deterministic failure injection, checkpoint/recovery.

The subsystem (see docs/ROBUSTNESS.md for the full tour):

* :mod:`repro.faults.model` — :class:`FaultPlan` / :class:`FaultEvent`:
  seeded, deterministic plans of processor crashes/restores, resource
  capacity dips and job aborts, with an exact JSON round-trip;
* :mod:`repro.faults.snapshot` — :class:`StateSnapshot` (picklable exact
  engine-state snapshots) and :class:`Checkpoint` (the runner's durable
  segment-boundary record);
* :mod:`repro.faults.runner` — :func:`run_with_faults` (segmented
  execution of an SRJ instance under a plan, recovering by rescheduling
  residual volumes), :func:`recover` (single-shot recovery from a
  checkpoint), :func:`validate_faulted` and :func:`degradation_report`;
* :mod:`repro.faults.tasks` — :func:`run_tasks_with_faults`, the SRT
  (Section 4) counterpart.

Everything is exact and deterministic: the same seed and plan produce
bit-identical recovered schedules on the Fraction and int backends and
under any ``parallel_map`` worker count (tested).
"""

from .model import (
    KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    FaultRecoveryError,
)
from .runner import (
    INJECTION_KINDS,
    FaultedResult,
    FaultSegment,
    RecoveryResult,
    degradation_report,
    injection_schedule,
    recover,
    run_with_faults,
    validate_faulted,
)
from .snapshot import Checkpoint, StateSnapshot, restore_state, snapshot_state
from .tasks import FaultedTaskResult, run_tasks_with_faults

__all__ = [
    "KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanError",
    "FaultRecoveryError",
    "FaultSegment",
    "FaultedResult",
    "FaultedTaskResult",
    "RecoveryResult",
    "Checkpoint",
    "StateSnapshot",
    "snapshot_state",
    "restore_state",
    "run_with_faults",
    "run_tasks_with_faults",
    "recover",
    "validate_faulted",
    "degradation_report",
    "injection_schedule",
    "INJECTION_KINDS",
]

"""Core SRJ model and the paper's sliding-window approximation algorithm."""

from .bounds import (
    fractional_load,
    longest_job_lower_bound,
    makespan_lower_bound,
    processor_lower_bound,
    resource_lower_bound,
)
from .instance import Instance
from .job import Job, JobPiece, make_job
from .schedule import Schedule, Step
from ..engine.trace import SRJResult, TraceRun
from .scheduler import schedule_srj
from .unit import UnitSizeScheduler, schedule_unit, unit_guarantee
from .validate import (
    ScheduleError,
    ValidationReport,
    assert_result_valid,
    assert_valid,
    validate_result,
    validate_schedule,
)

__all__ = [
    "Instance",
    "Job",
    "JobPiece",
    "make_job",
    "Schedule",
    "Step",
    "SRJResult",
    "TraceRun",
    "schedule_srj",
    "UnitSizeScheduler",
    "schedule_unit",
    "unit_guarantee",
    "ScheduleError",
    "ValidationReport",
    "assert_valid",
    "assert_result_valid",
    "validate_schedule",
    "validate_result",
    "makespan_lower_bound",
    "resource_lower_bound",
    "processor_lower_bound",
    "longest_job_lower_bound",
    "fractional_load",
]

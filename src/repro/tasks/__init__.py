"""Shared Resource Task-Scheduling (SRT / the paper's "SAS", Section 4)."""

from .baselines import (
    schedule_tasks_by_requirement,
    schedule_tasks_fifo,
    schedule_tasks_job_level,
)
from .bounds import (
    count_order_lower_bound,
    heavy_completion_bound,
    lemma_44_witness,
    light_completion_bound,
    resource_order_lower_bound,
    rounding_error_budget,
    srt_guarantee_factor,
    srt_lower_bound,
)
from .model import Task, TaskInstance, TaskScheduleResult
from .partition import (
    heavy_allotment,
    light_allotment,
    partition_tasks,
)
from .scheduler import schedule_tasks, solve_srt
from .sequential import SequentialResult, run_sequential
from .exact import solve_srt_exact
from .validate import validate_task_schedule

__all__ = [
    "Task",
    "TaskInstance",
    "TaskScheduleResult",
    "schedule_tasks",
    "solve_srt",
    "run_sequential",
    "SequentialResult",
    "validate_task_schedule",
    "solve_srt_exact",
    "partition_tasks",
    "heavy_allotment",
    "light_allotment",
    "srt_lower_bound",
    "resource_order_lower_bound",
    "count_order_lower_bound",
    "heavy_completion_bound",
    "light_completion_bound",
    "srt_guarantee_factor",
    "rounding_error_budget",
    "lemma_44_witness",
    "schedule_tasks_fifo",
    "schedule_tasks_by_requirement",
    "schedule_tasks_job_level",
]

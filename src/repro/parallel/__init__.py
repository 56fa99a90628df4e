"""Parallel execution engines: partitioning, schedules, DP, PP, hybrid."""

from repro.parallel.data_parallel import DataParallelEngine, DPWorker
from repro.parallel.fsdp import FSDPEngine, FSDPWorker, ShardPlan
from repro.parallel.operator_parallel import (
    ColumnParallelLinear,
    RowParallelLinear,
    TensorParallelMLP,
    shard_linear_by_columns,
    shard_linear_by_rows,
)
from repro.parallel.hybrid import (
    ParallelLayout,
    StagePlacement,
    megatron_figure2_layout,
)
from repro.parallel.partition import (
    partition_balanced,
    partition_by_sizes,
    stage_boundaries,
)
from repro.parallel.instructions import (
    INSTRUCTION_OPS,
    Instruction,
    ProgramCheck,
    ScheduleProgram,
    ScheduleVerificationError,
    verify_program,
)
from repro.parallel.pipeline import PipelineEngine, PipelineStage
from repro.parallel.programs import (
    build_program,
    default_virtual_stages,
    get_schedule,
    register_schedule,
    schedule_names,
)
from repro.parallel.results import IterationResult
from repro.parallel.schedules import (
    ScheduleTiming,
    bubble_ratio,
    program_op_key,
    simulate_program,
)

__all__ = [
    "DataParallelEngine",
    "DPWorker",
    "FSDPEngine",
    "FSDPWorker",
    "ShardPlan",
    "ColumnParallelLinear",
    "RowParallelLinear",
    "TensorParallelMLP",
    "shard_linear_by_columns",
    "shard_linear_by_rows",
    "PipelineEngine",
    "PipelineStage",
    "IterationResult",
    "partition_balanced",
    "partition_by_sizes",
    "stage_boundaries",
    "simulate_program",
    "program_op_key",
    "bubble_ratio",
    "ScheduleTiming",
    "INSTRUCTION_OPS",
    "Instruction",
    "ScheduleProgram",
    "ProgramCheck",
    "ScheduleVerificationError",
    "verify_program",
    "register_schedule",
    "get_schedule",
    "schedule_names",
    "default_virtual_stages",
    "build_program",
    "ParallelLayout",
    "StagePlacement",
    "megatron_figure2_layout",
]

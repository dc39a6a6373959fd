"""Cycle-level SM timing model."""

from repro.timing.gpu import (
    lower_to_timing_ops,
    simulate_architecture,
    simulate_architecture_columns,
)
from repro.timing.memory import (
    MemoryAccessCounts,
    MemoryModel,
    SetAssociativeCache,
)
from repro.timing.ops import (
    SCALAR_RF_BANK,
    TimingOp,
    build_timing_ops,
    build_timing_ops_columns,
    coalesce_addresses,
    compile_ops,
    rows_to_ops,
)
from repro.timing.scheduler import (
    WarpScheduler,
    partition_slots,
    partition_warps,
    scheduler_of_slot,
)
from repro.timing.scoreboard import Scoreboard
from repro.timing.sm import (
    ALU_LATENCY,
    CTRL_LATENCY,
    LONG_ALU_LATENCY,
    SFU_LATENCY,
    STALL_CAUSES,
    SmSimulator,
    StallBreakdown,
    TimingResult,
)
from repro.timing.sm_event import (
    DEFAULT_SM_ENGINE,
    SM_ENGINE_CHOICES,
    EventSmSimulator,
    create_sm_simulator,
)

__all__ = [
    "ALU_LATENCY",
    "CTRL_LATENCY",
    "LONG_ALU_LATENCY",
    "SCALAR_RF_BANK",
    "SFU_LATENCY",
    "STALL_CAUSES",
    "DEFAULT_SM_ENGINE",
    "SM_ENGINE_CHOICES",
    "EventSmSimulator",
    "MemoryAccessCounts",
    "MemoryModel",
    "Scoreboard",
    "SetAssociativeCache",
    "SmSimulator",
    "StallBreakdown",
    "TimingOp",
    "TimingResult",
    "WarpScheduler",
    "build_timing_ops",
    "build_timing_ops_columns",
    "coalesce_addresses",
    "compile_ops",
    "create_sm_simulator",
    "lower_to_timing_ops",
    "partition_slots",
    "partition_warps",
    "rows_to_ops",
    "scheduler_of_slot",
    "simulate_architecture",
    "simulate_architecture_columns",
]

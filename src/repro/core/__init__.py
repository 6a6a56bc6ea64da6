"""FPART core: the paper's contribution.

Device model, feasibility/cost machinery, move regions, solution stacks,
the improvement driver and the Algorithm 1 partitioner.
"""

from .checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointManager,
    RunCheckpoint,
    config_digest,
)
from .config import DEFAULT_CONFIG, FpartConfig
from .cost import (
    CostEvaluator,
    IncrementalCostEvaluator,
    SolutionCost,
    make_evaluator,
)
from .device import (
    DEVICE_CATALOG,
    XC2064,
    XC3020,
    XC3042,
    XC3090,
    Device,
    device_by_name,
)
from .exceptions import (
    BudgetExhaustedError,
    CheckpointError,
    IterationLimitError,
    OversizedCellError,
    PartitioningError,
    UnpartitionableError,
)
from .feasibility import (
    BlockPoint,
    Feasibility,
    block_distance,
    block_is_feasible,
    classify,
    count_feasible_blocks,
    infeasibility_distance,
    size_deviation_penalty,
    solution_points,
)
from .fpart import FpartPartitioner, FpartResult, ImproveTraceEntry, fpart
from .heterogeneous import (
    XILINX_LIBRARY,
    DeviceLibrary,
    HeterogeneousResult,
    PricedDevice,
    partition_heterogeneous,
)
from .improve import improve
from .interrupt import GracefulInterrupt
from .move_region import MoveRegion
from .runguard import (
    NULL_GUARD,
    RunBudget,
    RunGuard,
    default_iteration_cap,
)
from .solution_stack import DualSolutionStacks, SolutionStack
from .strategy import (
    ImproveStep,
    free_space,
    iteration_schedule,
    select_max_free,
    select_min_io,
    select_min_size,
)

__all__ = [
    "FpartConfig",
    "DEFAULT_CONFIG",
    "Device",
    "DEVICE_CATALOG",
    "device_by_name",
    "XC3020",
    "XC3042",
    "XC3090",
    "XC2064",
    "Feasibility",
    "BlockPoint",
    "classify",
    "block_is_feasible",
    "block_distance",
    "count_feasible_blocks",
    "infeasibility_distance",
    "size_deviation_penalty",
    "solution_points",
    "SolutionCost",
    "CostEvaluator",
    "IncrementalCostEvaluator",
    "make_evaluator",
    "GracefulInterrupt",
    "MoveRegion",
    "SolutionStack",
    "DualSolutionStacks",
    "improve",
    "free_space",
    "select_min_size",
    "select_min_io",
    "select_max_free",
    "ImproveStep",
    "iteration_schedule",
    "FpartPartitioner",
    "FpartResult",
    "ImproveTraceEntry",
    "fpart",
    "PricedDevice",
    "DeviceLibrary",
    "XILINX_LIBRARY",
    "HeterogeneousResult",
    "partition_heterogeneous",
    "PartitioningError",
    "UnpartitionableError",
    "OversizedCellError",
    "IterationLimitError",
    "BudgetExhaustedError",
    "CheckpointError",
    "RunBudget",
    "RunGuard",
    "NULL_GUARD",
    "default_iteration_cap",
    "RunCheckpoint",
    "CheckpointManager",
    "CHECKPOINT_SCHEMA",
    "config_digest",
]

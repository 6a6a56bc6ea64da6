"""Constructive initial-partition creation (section 3.2)."""

from .flat_build import (
    SweepResult,
    greedy_merge_bipartition,
    ratio_cut_bipartition,
    seed_grow_bipartition,
)
from .growing import GrowingBlock
from .initial import BUILDERS, build_candidate, create_bipartition
from .seeds import SEED_POOL_SIZE, bfs_distances_within, select_seeds

__all__ = [
    "GrowingBlock",
    "SEED_POOL_SIZE",
    "select_seeds",
    "bfs_distances_within",
    "greedy_merge_bipartition",
    "ratio_cut_bipartition",
    "seed_grow_bipartition",
    "SweepResult",
    "BUILDERS",
    "build_candidate",
    "create_bipartition",
]

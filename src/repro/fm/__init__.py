"""Fiduccia–Mattheyses bipartitioning: gain buckets, gains, refinement."""

from .bipartition import FmBipartitioner, FmResult, fm_refine
from .buckets import FlatGainBuckets
from .gains import max_possible_gain, move_gain, move_gain_vector, pin_gain

__all__ = [
    "FlatGainBuckets",
    "move_gain",
    "move_gain_vector",
    "pin_gain",
    "max_possible_gain",
    "FmBipartitioner",
    "FmResult",
    "fm_refine",
]

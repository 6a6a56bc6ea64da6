"""Exception hierarchy for the partitioning library."""

from __future__ import annotations

__all__ = [
    "PartitioningError",
    "UnpartitionableError",
    "OversizedCellError",
    "BudgetExhaustedError",
    "IterationLimitError",
    "CheckpointError",
]


class PartitioningError(Exception):
    """Base class for all partitioning failures."""


class UnpartitionableError(PartitioningError):
    """The circuit cannot be made feasible for the target device.

    Typical causes: a single cell bigger than ``S_MAX``, or a remainder
    reduced to one infeasible cell (the paper's method has no replication
    to fall back on).
    """


class OversizedCellError(UnpartitionableError):
    """A single cell is larger than the device capacity ``S_MAX``.

    A property of the input netlist/device pair, detected before any
    search runs (the CLI reports it as a data error, exit 65).
    """


class BudgetExhaustedError(PartitioningError):
    """A :class:`~repro.core.runguard.RunBudget` limit was reached.

    ``reason`` names the limit that tripped: ``"deadline"``,
    ``"iterations"`` or ``"moves"``.  In non-strict mode the FPART driver
    catches this and degrades gracefully to the best solution seen;
    ``FpartConfig(strict=True)`` lets it propagate.
    """

    def __init__(self, message: str, reason: str = "budget") -> None:
        super().__init__(message)
        self.reason = reason


class IterationLimitError(BudgetExhaustedError):
    """Algorithm 1 exceeded its iteration safety cap without converging.

    A :class:`BudgetExhaustedError` with ``reason="iterations"`` — kept
    as its own class for backward compatibility with callers that catch
    it specifically.
    """

    def __init__(self, message: str, reason: str = "iterations") -> None:
        super().__init__(message, reason)


class CheckpointError(PartitioningError):
    """A run checkpoint could not be loaded or does not match the run."""

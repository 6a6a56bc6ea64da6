"""The correctness gate: an independent recomputation of every result.

A result passes when

* its run status is ``feasible``;
* ``validate_assignment`` (a from-scratch recount of sizes, pins and
  external I/Os) finds every block within the device and agrees with
  the block count, sizes and pin counts the run reported;
* a state rebuilt from the bare assignment on the object substrate,
  swept once by the plain ``CostEvaluator.evaluate``, gives exactly the
  cost the run reported.

None of this shares code with the incremental cost or flat-array paths
the partitioner itself runs on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.cost import CostEvaluator
from repro.obs.trace import cost_fields
from repro.partition import PartitionState
from repro.partition.validate import validate_assignment


def recomputed_cost(hg, device, config, assignment: Sequence[int]) -> Dict:
    """``cost_fields`` of the assignment, recomputed from scratch."""
    state = PartitionState.from_assignment(hg, list(assignment))
    evaluator = CostEvaluator(
        device, config, device.lower_bound(hg), hg.num_terminals
    )
    return cost_fields(evaluator.evaluate(state, state.num_blocks - 1))


def check(
    hg,
    device,
    config,
    status: str,
    assignment: Optional[Sequence[int]],
    num_devices: int,
    cost: Optional[Dict],
    block_sizes: Optional[List[int]] = None,
    block_pins: Optional[List[int]] = None,
) -> List[str]:
    """Problems found with one reported result (empty list = pass)."""
    if status != "feasible":
        return [f"status {status!r}"]
    if assignment is None or cost is None:
        return ["no assignment or cost reported"]
    try:
        report = validate_assignment(hg, assignment, device)
    except ValueError as error:
        return [f"malformed assignment: {error}"]
    problems = [f"violation: {v}" for v in report.violations[:3]]
    if report.num_blocks != num_devices:
        problems.append(
            f"{report.num_blocks} blocks in the assignment, "
            f"{num_devices} reported"
        )
    if block_sizes is not None and list(report.block_sizes) != list(block_sizes):
        problems.append("block sizes differ from the recount")
    if block_pins is not None and list(report.block_pins) != list(block_pins):
        problems.append("block pin counts differ from the recount")
    if not problems:
        fresh = recomputed_cost(hg, device, config, assignment)
        if fresh != cost:
            problems.append(f"cost {cost} != recomputed {fresh}")
    return problems


def check_result(hg, device, config, result) -> List[str]:
    """:func:`check` for an in-process ``FpartResult``."""
    return check(
        hg,
        device,
        config,
        result.status,
        result.assignment,
        result.num_devices,
        cost_fields(result.cost) if result.cost is not None else None,
        result.block_sizes,
        result.block_pins,
    )

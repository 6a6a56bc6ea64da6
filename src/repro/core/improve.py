"""The ``Improve()`` call of Algorithm 1.

Wraps a :class:`~repro.sanchis.SanchisEngine` run with the solution-stack
protocol of section 3.6:

1. a first run collects the best pass solutions into two stacks
   (semi-feasible / infeasible);
2. a series of further runs restarts from every stacked solution —
   semi-feasible first, then infeasible (exploring around a good
   infeasible solution is the paper's escape hatch from local minima);
3. the best solution over all runs is restored into the state.

Feasibility classification is done against the evaluator's device; with
stack depth ``D`` at most ``2 D + 1`` starting solutions are explored.

Engine work whose outcome is already known is skipped (DESIGN.md §6,
"Known-outcome Improve() work"); every assignment and cost stays what
the full protocol gives:

* *replay* — the stacks only ever hold pass-end states of the first
  run.  When that run converged, a restart from the end of its pass
  ``i`` replays passes ``i+1..n`` and returns the first run's best,
  which cannot replace it (restarts win only on strict improvement),
  so the restarts are not run;
* *settled* — a :class:`SettledStates` memo remembers the state an
  earlier call of the same Algorithm-1 iteration left at the end of a
  converged run; a call with the same key from that very state would
  run one failing pass, so it returns the current cost instead.

Skipped work emits an ``improve_skip`` trace event and charges no moves
to the run guard.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACE, TraceWriter, cost_fields
from ..partition import PartitionState
from ..sanchis import SanchisEngine
from .config import FpartConfig
from .cost import CostEvaluator, SolutionCost
from .device import Device
from .feasibility import Feasibility
from .move_region import MoveRegion
from .runguard import NULL_GUARD, RunGuard
from .solution_stack import DualSolutionStacks

__all__ = ["improve", "SettledStates"]

#: A ``SettledStates`` key: participating blocks, remainder, block count.
SettledKey = Tuple[Union[FrozenSet[int], Tuple[int, ...]], int, int]


def _classify_cost(cost: SolutionCost, num_blocks: int) -> Feasibility:
    bad = num_blocks - cost.feasible_blocks
    if bad == 0:
        return Feasibility.FEASIBLE
    if bad == 1:
        return Feasibility.SEMI_FEASIBLE
    return Feasibility.INFEASIBLE


class SettledStates:
    """States that ``Improve()`` calls of one iteration left settled.

    A call is *settled* when the state it leaves is the end of a
    converged engine run: a fresh run with the same participating
    blocks, remainder and block count makes one failing pass from it
    and changes nothing.  ``FpartPartitioner`` keeps one memo per
    Algorithm-1 iteration and drops it at the iteration's end, so
    checkpoints (taken between iterations) never need to carry it.

    Within an iteration the remainder is fixed and a call changes the
    state only on a strict cost improvement, so the state never returns
    to an earlier assignment once it has left it; the memo therefore
    holds a single snapshot with the set of keys settled on it.
    """

    __slots__ = ("_assignment", "_keys")

    def __init__(self) -> None:
        self._assignment: Optional[List[int]] = None
        self._keys: Set[SettledKey] = set()

    @staticmethod
    def key(
        blocks: Sequence[int], remainder: int, num_blocks: int
    ) -> SettledKey:
        """Memo key of one call.

        A 2-block engine gives each cell one target, so its ``seq``
        numbering and selection do not depend on block order and the
        unordered pair is the key; a multi-block engine numbers entries
        per target in block order, so it keys on the ordered tuple.
        """
        unique = tuple(dict.fromkeys(blocks))
        if len(unique) == 2:
            return frozenset(unique), remainder, num_blocks
        return unique, remainder, num_blocks

    def holds(self, key: SettledKey, assignment: List[int]) -> bool:
        """True when ``key`` was settled on exactly ``assignment``."""
        return key in self._keys and assignment == self._assignment

    def record(
        self, key: SettledKey, assignment: List[int], settled: bool
    ) -> None:
        """Note the state a call left (``settled`` as defined above)."""
        if assignment != self._assignment:
            self._assignment = assignment
            self._keys = set()
        if settled:
            self._keys.add(key)


def improve(
    state: PartitionState,
    blocks: Sequence[int],
    remainder: int,
    evaluator: CostEvaluator,
    device: Device,
    config: FpartConfig,
    lower_bound: int,
    use_stacks: bool = True,
    guard: RunGuard = NULL_GUARD,
    metrics: MetricsRegistry = NULL_METRICS,
    tracer: TraceWriter = NULL_TRACE,
    settled: Optional[SettledStates] = None,
) -> SolutionCost:
    """Improve the partition among ``blocks``; returns the final cost.

    The state ends at the best solution found.  ``use_stacks=False``
    disables the restart protocol (single run) — used for the cheap extra
    FM calls at ``k = M`` and by ablations.

    The ``guard`` is consulted per applied move inside the engine and
    between stacked restarts.  When a budget trips (or a fault escapes
    an engine run) the state is restored to the best solution seen *so
    far in this call* before the exception propagates, so callers always
    observe a consistent, best-known state.

    ``metrics`` / ``tracer`` (defaulting to the shared null objects)
    record stack traffic here and are passed through to the engine;
    retained snapshots additionally emit ``solution_push`` trace events.

    ``settled`` is the calling iteration's memo (see
    :class:`SettledStates`); without one no call is skipped as settled.
    """
    metrics.counter("improve.calls").inc()
    best_assignment = state.assignment()
    if settled is not None:
        memo_key = SettledStates.key(blocks, remainder, state.num_blocks)
        if settled.holds(memo_key, best_assignment):
            metrics.counter("improve.calls_skipped").inc()
            if tracer.enabled:
                tracer.emit(
                    "improve_skip",
                    reason="settled",
                    blocks=list(blocks),
                    passes_avoided=1,
                )
            return evaluator.evaluate(state, remainder)

    two_block = len(set(blocks)) == 2
    region = MoveRegion(
        device,
        config,
        remainder,
        two_block,
        state.num_blocks,
        lower_bound,
    )

    def make_engine() -> SanchisEngine:
        return SanchisEngine(
            state, blocks, remainder, evaluator, region, config, guard,
            metrics, tracer,
        )

    stacks = DualSolutionStacks(config.stack_depth if use_stacks else 0)
    # First-run pass number of each pass-end cost; the costs of the
    # improving passes strictly decrease, so each stacked point maps to
    # the pass that produced it.
    pass_of: Dict[Tuple, int] = {}

    def collect(cost: SolutionCost) -> None:
        pass_of.setdefault(cost.key, len(pass_of) + 1)
        feasibility = _classify_cost(cost, state.num_blocks)
        retained = stacks.offer(feasibility, cost, state.assignment())
        metrics.counter("stack.offers").inc()
        if retained:
            metrics.counter("stack.pushes").inc()
            if tracer.enabled:
                tracer.emit(
                    "solution_push",
                    stack=feasibility.name.lower(),
                    cost=cost_fields(cost),
                )

    best_cost: SolutionCost = None  # type: ignore[assignment]
    try:
        first = make_engine().run(observer=collect if use_stacks else None)
        best_cost = first.best_cost
        best_assignment = state.assignment()
        best_converged = first.converged

        starts = [
            (start_cost, start_assignment)
            for start_cost, start_assignment in stacks.starting_solutions()
            if start_assignment != best_assignment
        ]
        if starts and first.converged:
            # Replay rule: each start is the end of some pass i of the
            # converged first run; its restart would replay passes
            # i+1..n and tie with best_cost.
            metrics.counter("improve.restarts_skipped").inc(len(starts))
            if tracer.enabled:
                tracer.emit(
                    "improve_skip",
                    reason="replay",
                    blocks=list(blocks),
                    passes_avoided=sum(
                        first.passes - pass_of[start_cost.key]
                        for start_cost, _ in starts
                    ),
                    restarts=len(starts),
                )
            starts = []
        for _, start_assignment in starts:
            guard.check()
            metrics.counter("stack.pops").inc()
            state.restore(start_assignment)
            result = make_engine().run()
            if result.best_cost < best_cost:
                best_cost = result.best_cost
                best_assignment = state.assignment()
                best_converged = result.converged
    finally:
        # On the normal path the state already sits at best_assignment
        # and this replays nothing; on an exception path it rewinds any
        # partially-explored restart to the best solution seen.
        state.restore(best_assignment)
    if settled is not None:
        settled.record(memo_key, best_assignment, best_converged)
    return best_cost

"""Skipped ``Improve()`` work is exact.

``improve()`` skips stacked restarts of a converged first run (they
replay it) and, inside one Algorithm-1 iteration, calls that start from
a state an earlier call left settled (they run one failing pass).
DESIGN.md §6, "Known-outcome Improve() work", has both arguments; these
tests check them against the full protocol, which is what a run gives
when every engine run reports ``converged=False``.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import json

import pytest

from repro.circuits import generate_circuit
from repro.core import FpartConfig, FpartPartitioner, MoveRegion, XC3020
from repro.core.cost import make_evaluator
from repro.core.improve import SettledStates, _classify_cost, improve
from repro.core.solution_stack import DualSolutionStacks
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceWriter
from repro.partition import PartitionState
from repro.sanchis import SanchisEngine

SEEDS = (1, 2, 3)
#: The module behind ``FpartPartitioner`` (``repro.core.fpart`` names
#: the function).
FPART_MODULE = importlib.import_module("repro.core.fpart")


def circuit(seed):
    return generate_circuit(
        f"known-outcome-{seed}", num_cells=400, num_ios=40, seed=seed
    )


@pytest.fixture
def forced_restarts(monkeypatch):
    """Make every engine run report ``converged=False``.

    Nothing then counts as known: every stacked restart runs and no
    call is remembered as settled, i.e. the full section-3.6 protocol.
    """
    run = SanchisEngine.run

    def unconverged(self, observer=None):
        return dataclasses.replace(run(self, observer), converged=False)

    def apply():
        monkeypatch.setattr(SanchisEngine, "run", unconverged)

    return apply


def traced_run(hg, config):
    stream = io.StringIO()
    metrics = MetricsRegistry()
    tracer = TraceWriter(stream, run_id="known", sample_moves=0)
    result = FpartPartitioner(
        hg, XC3020, config, metrics=metrics, tracer=tracer
    ).run()
    events = [json.loads(line) for line in stream.getvalue().splitlines()]
    return result, events, metrics.snapshot()["counters"]


def summary(result):
    return result.assignment, result.cost.key, result.num_devices


def count(events, kind):
    return sum(1 for event in events if event["event"] == kind)


class TestWholeRuns:
    def test_skips_reproduce_the_full_protocol(self, forced_restarts):
        runs = [traced_run(circuit(seed), FpartConfig(seed=seed)) for seed in SEEDS]
        forced_restarts()
        reasons = set()
        for seed, (result, events, counters) in zip(SEEDS, runs):
            full, full_events, full_counters = traced_run(
                circuit(seed), FpartConfig(seed=seed)
            )
            assert summary(result) == summary(full)
            skips = [e for e in events if e["event"] == "improve_skip"]
            reasons |= {e["reason"] for e in skips}
            # The passes left out are exactly the ones the events report.
            assert count(full_events, "pass_start") == count(
                events, "pass_start"
            ) + sum(e["passes_avoided"] for e in skips)
            assert count(full_events, "improve_skip") == 0
            assert counters["improve.calls"] == full_counters["improve.calls"]
            assert counters.get("improve.restarts_skipped", 0) == sum(
                e["restarts"] for e in skips if e["reason"] == "replay"
            )
            assert counters.get("improve.calls_skipped", 0) == sum(
                1 for e in skips if e["reason"] == "settled"
            )
        assert reasons == {"replay", "settled"}

    @pytest.mark.parametrize("max_passes", [1, 2])
    def test_pass_capped_first_runs_keep_their_restarts(
        self, forced_restarts, max_passes
    ):
        config = FpartConfig(seed=1, max_passes=max_passes)
        result, events, counters = traced_run(circuit(1), config)
        forced_restarts()
        full, full_events, _ = traced_run(circuit(1), config)
        assert summary(result) == summary(full)
        if max_passes == 2:
            # Some first runs hit the cap with stacked points left, and
            # their restarts still ran.
            assert counters.get("stack.pops", 0) > 0
        skipped = sum(
            e["passes_avoided"]
            for e in events
            if e["event"] == "improve_skip"
        )
        assert count(full_events, "pass_start") == (
            count(events, "pass_start") + skipped
        )


def captured_calls(seed):
    """``(assignment, blocks, remainder, num_blocks)`` of every
    ``Improve()`` call of one seeded FPART run, taken before the call."""
    calls = []

    def spy(state, blocks, remainder, *args, **kwargs):
        calls.append(
            (state.assignment(), list(blocks), remainder, state.num_blocks)
        )
        return improve(state, blocks, remainder, *args, **kwargs)

    FPART_MODULE.improve = spy
    try:
        FpartPartitioner(circuit(seed), XC3020, FpartConfig(seed=seed)).run()
    finally:
        FPART_MODULE.improve = improve
    return calls


class Call:
    """One captured ``Improve()`` call, replayable in isolation."""

    def __init__(self, hg, capture, config=FpartConfig()):
        self.hg = hg
        self.assignment, self.blocks, self.remainder, self.k = capture
        self.config = config
        self.m = XC3020.lower_bound(hg)
        self.evaluator = make_evaluator(
            XC3020, config, self.m, hg.num_terminals
        )

    def state(self):
        return PartitionState(self.hg, list(self.assignment), self.k)

    def engine(self, state, blocks=None):
        blocks = self.blocks if blocks is None else blocks
        region = MoveRegion(
            XC3020, self.config, self.remainder,
            len(set(blocks)) == 2, self.k, self.m,
        )
        return SanchisEngine(
            state, blocks, self.remainder, self.evaluator, region,
            self.config,
        )

    def improve(self, state, **kwargs):
        return improve(
            state, self.blocks, self.remainder, self.evaluator, XC3020,
            self.config, self.m, **kwargs,
        )


@pytest.fixture(scope="module")
def calls():
    return [
        Call(circuit(seed), capture)
        for seed in SEEDS
        for capture in captured_calls(seed)
    ]


class TestReplayedRestarts:
    def test_restarts_of_a_converged_run_replay_it(self, calls):
        checked = 0
        for call in calls:
            state = call.state()
            stacks = DualSolutionStacks(call.config.stack_depth)
            first = call.engine(state).run(
                observer=lambda cost: stacks.offer(
                    _classify_cost(cost, state.num_blocks),
                    cost,
                    state.assignment(),
                )
            )
            if not first.converged:
                continue
            best = state.assignment()
            for _, start in stacks.starting_solutions():
                if start == best:
                    continue
                state.restore(start)
                restart = call.engine(state).run()
                assert restart.converged
                assert restart.best_cost.key == first.best_cost.key
                assert state.assignment() == best
                checked += 1
        assert checked >= 10

    def test_improve_matches_forced_restarts(self, calls, forced_restarts):
        outcomes = []
        for call in calls:
            state = call.state()
            outcomes.append((call.improve(state).key, state.assignment()))
        forced_restarts()
        for call, outcome in zip(calls, outcomes):
            state = call.state()
            assert (call.improve(state).key, state.assignment()) == outcome


class TestSettledCalls:
    def test_second_call_runs_one_failing_pass(self, calls):
        checked = 0
        for call in calls:
            state = call.state()
            cost = call.improve(state)
            settled = state.assignment()
            metrics = MetricsRegistry()
            assert call.improve(state, metrics=metrics).key == cost.key
            assert state.assignment() == settled
            counters = metrics.snapshot()["counters"]
            assert counters["sanchis.passes"] == 1
            assert counters.get("stack.pops", 0) == 0
            checked += 1
        assert checked == len(calls)

    def test_memo_skips_the_second_call(self, calls):
        call = next(c for c in calls if len(c.blocks) == 2)
        state = call.state()
        memo = SettledStates()
        cost = call.improve(state, settled=memo)
        settled = state.assignment()
        stream = io.StringIO()
        metrics = MetricsRegistry()
        again = call.improve(
            state,
            settled=memo,
            metrics=metrics,
            tracer=TraceWriter(stream, run_id="known"),
        )
        assert again.key == cost.key and state.assignment() == settled
        counters = metrics.snapshot()["counters"]
        assert counters["improve.calls_skipped"] == 1
        assert "sanchis.passes" not in counters
        (event,) = map(json.loads, stream.getvalue().splitlines())
        assert event["event"] == "improve_skip"
        assert event["reason"] == "settled"
        assert event["passes_avoided"] == 1

    def test_memo_matches_only_the_settled_assignment(self):
        memo = SettledStates()
        pair = SettledStates.key((3, 1), 1, 4)
        memo.record(pair, [0, 1, 1], settled=True)
        assert memo.holds(SettledStates.key((1, 3), 1, 4), [0, 1, 1])
        assert not memo.holds(pair, [0, 1, 3])
        assert not memo.holds(SettledStates.key((3, 1), 3, 4), [0, 1, 1])
        assert not memo.holds(SettledStates.key((3, 1), 1, 5), [0, 1, 1])
        # A state that did not settle keeps earlier keys only while the
        # assignment is unchanged.
        memo.record(SettledStates.key((0, 1), 1, 4), [0, 1, 1], False)
        assert memo.holds(pair, [0, 1, 1])
        memo.record(SettledStates.key((0, 1), 1, 4), [1, 1, 1], False)
        assert not memo.holds(pair, [1, 1, 1])

    def test_multi_block_keys_keep_block_order(self):
        assert SettledStates.key((0, 1, 2), 2, 3) != SettledStates.key(
            (2, 1, 0), 2, 3
        )


class TestTwoBlockOrder:
    def test_engine_ignores_block_order(self, calls):
        pairs = [call for call in calls if len(set(call.blocks)) == 2]
        assert len(pairs) >= 20
        for call in pairs:
            runs = []
            for blocks in (call.blocks, call.blocks[::-1]):
                state = call.state()
                costs = []
                result = call.engine(state, blocks).run(
                    observer=lambda cost: costs.append(cost.key)
                )
                runs.append(
                    (costs, result.moves_applied, result.converged,
                     state.assignment())
                )
            assert runs[0] == runs[1]

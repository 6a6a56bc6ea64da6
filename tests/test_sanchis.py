"""Sanchis multi-way improvement engine."""

import random

import pytest

from repro.circuits import generate_circuit
from repro.core import DEFAULT_CONFIG, CostEvaluator, Device, FpartConfig, MoveRegion
from repro.core.cost import make_evaluator
from repro.fm import move_gain_vector
from repro.partition import PartitionState
from repro.sanchis import SanchisEngine


def make_engine(state, device, blocks, remainder, m=4, two_block=None, config=DEFAULT_CONFIG):
    if two_block is None:
        two_block = len(blocks) == 2
    evaluator = CostEvaluator(device, config, m, state.hg.num_terminals)
    region = MoveRegion(device, config, remainder, two_block, state.num_blocks, m)
    return SanchisEngine(state, blocks, remainder, evaluator, region, config)


class TestValidation:
    def test_needs_two_blocks(self, chain4, small_device):
        state = PartitionState.single_block(chain4)
        with pytest.raises(ValueError, match="at least two"):
            make_engine(state, small_device, [0], 0)

    def test_remainder_must_participate(self, chain4, small_device):
        state = PartitionState.from_assignment(chain4, [0, 0, 1, 1])
        with pytest.raises(ValueError, match="remainder"):
            make_engine(state, small_device, [0, 1], remainder=2)

    def test_invalid_block(self, chain4, small_device):
        state = PartitionState.from_assignment(chain4, [0, 0, 1, 1])
        with pytest.raises(ValueError, match="invalid block"):
            make_engine(state, small_device, [0, 5], remainder=0)


class TestTwoBlockImprovement:
    def test_reduces_cost_on_bad_split(self, two_clusters, tiny_device):
        state = PartitionState.from_assignment(
            two_clusters, [0, 1, 0, 1, 0, 1, 0, 1]
        )
        engine = make_engine(state, tiny_device, [0, 1], remainder=1, m=2)
        result = engine.run()
        assert result.best_cost <= result.initial_cost
        state.check_consistency()

    def test_grows_block_out_of_remainder(self, two_clusters, tiny_device):
        # Seed block 0 with one cluster-A cell, everything else in the
        # remainder: the engine should pull the rest of cluster A into
        # block 0 (cap 4.2 admits exactly 4 unit cells), reaching the
        # feasible 2-way solution with only the bridge net cut.
        state = PartitionState.from_assignment(
            two_clusters, [0, 1, 1, 1, 1, 1, 1, 1]
        )
        make_engine(state, tiny_device, [0, 1], remainder=1, m=2).run()
        assert state.block_size(0) == 4
        assert state.block_cells(0) == {0, 1, 2, 3}
        assert state.cut_nets == 1

    def test_full_blocks_are_frozen_by_the_window(self, two_clusters, tiny_device):
        # Both blocks exactly at capacity: the strict 2-block window
        # (floor 0.95*S_MAX, cap 1.05*S_MAX) admits no single move, so
        # the engine must leave the (bad) interleaved split untouched —
        # this is the documented design of section 3.5, not a bug.
        state = PartitionState.from_assignment(
            two_clusters, [0, 1, 0, 1, 0, 1, 0, 1]
        )
        before = state.assignment()
        make_engine(state, tiny_device, [0, 1], remainder=1, m=2).run()
        assert state.assignment() == before

    def test_respects_move_region_cap(self, two_clusters):
        device = Device("D", s_ds=4, t_max=20, delta=1.0)
        state = PartitionState.from_assignment(
            two_clusters, [0, 0, 0, 0, 1, 1, 1, 1]
        )
        # k=2 <= M=2: cap = 1.05 * 4 = 4.2 -> no cell can enter block 0.
        engine = make_engine(state, device, [0, 1], remainder=1, m=2)
        engine.run()
        assert state.block_size(0) <= 4


class TestMultiWayImprovement:
    def test_three_way(self, medium_circuit, small_device):
        n = medium_circuit.num_cells
        state = PartitionState.from_assignment(
            medium_circuit, [c % 3 for c in range(n)]
        )
        engine = make_engine(
            state, small_device, [0, 1, 2], remainder=2, m=3,
            two_block=False,
        )
        result = engine.run()
        assert result.best_cost <= result.initial_cost
        state.check_consistency()

    def test_observer_called_per_pass(self, two_clusters, tiny_device):
        state = PartitionState.from_assignment(
            two_clusters, [0, 1, 0, 1, 0, 1, 0, 1]
        )
        engine = make_engine(state, tiny_device, [0, 1], remainder=1, m=2)
        seen = []
        result = engine.run(observer=seen.append)
        assert len(seen) == result.passes

    def test_max_passes_respected(self, medium_circuit, small_device):
        config = FpartConfig(max_passes=1)
        n = medium_circuit.num_cells
        state = PartitionState.from_assignment(
            medium_circuit, [c % 2 for c in range(n)]
        )
        engine = make_engine(
            state, small_device, [0, 1], remainder=1, m=4, config=config
        )
        assert engine.run().passes == 1

    def test_deterministic(self, medium_circuit, small_device):
        n = medium_circuit.num_cells
        results = []
        for _ in range(2):
            state = PartitionState.from_assignment(
                medium_circuit, [c % 3 for c in range(n)]
            )
            make_engine(
                state, small_device, [0, 1, 2], remainder=2, m=3,
                two_block=False,
            ).run()
            results.append(state.assignment())
        assert results[0] == results[1]

    def test_cost_matches_final_state(self, two_clusters, tiny_device):
        state = PartitionState.from_assignment(
            two_clusters, [0, 1, 0, 1, 0, 1, 0, 1]
        )
        engine = make_engine(state, tiny_device, [0, 1], remainder=1, m=2)
        result = engine.run()
        fresh = engine.evaluator.evaluate(state, 1)
        assert fresh.key == result.best_cost.key


class _PerDirectionEngine(SanchisEngine):
    """Reference engine: one ``move_gain_vector`` call per direction."""

    def _gain_kernel(self, locked_in_block):
        state = self.state

        def kernel(cell, from_block, targets):
            return [
                move_gain_vector(state, cell, t, locked_in_block)
                for t in targets
            ]

        return kernel


class TestMultiBlockBackendIdentity:
    """The fused engine walks the reference multi-block trajectory.

    The engine computes all directions of a cell in one fused kernel and
    reads each move's key from the fused incremental evaluator.  The
    reference computes one ``move_gain_vector`` call per direction and
    a full O(k) cost sweep per move.  Whole FPART runs exercise almost
    only 2-block passes, so the k-way case is pinned here.
    """

    @staticmethod
    def run(reference, hg, device, k, seed):
        config = FpartConfig(incremental_cost=not reference)
        rng = random.Random(seed)
        state = PartitionState.from_assignment(
            hg, [rng.randrange(k) for _ in range(hg.num_cells)], k
        )
        m = device.lower_bound(hg)
        evaluator = make_evaluator(device, config, m, hg.num_terminals)
        region = MoveRegion(device, config, k - 1, False, k, m)
        engine_class = _PerDirectionEngine if reference else SanchisEngine
        engine = engine_class(
            state, range(k), k - 1, evaluator, region, config
        )
        costs = []
        result = engine.run(observer=lambda cost: costs.append(cost.key))
        state.check_consistency()
        return costs, result.moves_applied, state.assignment()

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_flat_equals_object(self, k):
        hg = generate_circuit("kway-identity", num_cells=160, num_ios=24, seed=k)
        device = Device("KWAY", s_ds=160 // k + 8, t_max=40, delta=1.0)
        fused = self.run(False, hg, device, k, seed=k)
        assert fused[1] > 0  # the passes really moved cells
        assert fused == self.run(True, hg, device, k, seed=k)

"""Constructive initial partition: growing blocks, seeds, merge, sweep."""

import pytest

from repro.core import DEFAULT_CONFIG, CostEvaluator, Device
from repro.initial import (
    GrowingBlock,
    bfs_distances_within,
    create_bipartition,
    greedy_merge_bipartition,
    ratio_cut_bipartition,
    select_seeds,
)
from repro.initial.flat_build import _Context, _sweep
from repro.partition import PartitionState, block_pin_counts


class TestGrowingBlock:
    def test_add_tracks_size_and_pins(self, chain4):
        block = GrowingBlock(chain4, [0])
        assert block.size == 1
        assert block.pins == 1  # net (0,1): cut + pad
        block.add(1)
        # net (0,1) now internal but has a pad -> still a pin;
        # net (1,2) cut -> pin.
        assert block.pins == 2

    def test_remove_is_inverse_of_add(self, two_clusters):
        block = GrowingBlock(two_clusters, [0, 1, 2])
        before = (block.size, block.pins)
        block.add(3)
        block.remove(3)
        assert (block.size, block.pins) == before
        block.check_consistency()

    def test_preview_matches_add(self, two_clusters):
        block = GrowingBlock(two_clusters, [0, 1])
        preview = block.preview_add(2)
        block.add(2)
        assert (block.size, block.pins) == preview

    def test_pins_match_partition_oracle(self, medium_circuit):
        cells = list(range(0, 40))
        block = GrowingBlock(medium_circuit, cells)
        assignment = [
            0 if c in set(cells) else 1
            for c in range(medium_circuit.num_cells)
        ]
        oracle = block_pin_counts(medium_circuit, assignment, 2)[0]
        assert block.pins == oracle

    def test_duplicate_add_rejected(self, chain4):
        block = GrowingBlock(chain4, [0])
        with pytest.raises(ValueError, match="already"):
            block.add(0)

    def test_missing_remove_rejected(self, chain4):
        block = GrowingBlock(chain4)
        with pytest.raises(ValueError, match="not in"):
            block.remove(0)

    def test_contains_and_len(self, chain4):
        block = GrowingBlock(chain4, [0, 2])
        assert 0 in block and 1 not in block
        assert len(block) == 2


class TestSeeds:
    def test_first_seed_is_biggest(self, clique5):
        s1, s2 = select_seeds(clique5.nets and clique5, range(5))
        assert s1 == 4  # size 3
        assert s2 != s1

    def test_second_seed_farthest(self, chain4):
        s1, s2 = select_seeds(chain4, range(4))
        # Equal sizes: lowest index wins seed1; seed2 is the chain end.
        assert s1 == 0
        assert s2 == 3

    def test_disconnected_seed_preferred(self):
        from repro.hypergraph import Hypergraph

        hg = Hypergraph([1, 1, 1], [(0, 1)])
        s1, s2 = select_seeds(hg, range(3))
        assert s1 == 0
        assert s2 == 2  # other component: infinitely far

    def test_restricted_bfs(self, chain4):
        dist = bfs_distances_within(chain4, {0, 1, 3}, 0)
        # Cell 2 is excluded, so 3 is unreachable within the set.
        assert dist == {0: 0, 1: 1}
        with pytest.raises(ValueError, match="not in"):
            bfs_distances_within(chain4, {1}, 0)

    def test_needs_two_cells(self, chain4):
        with pytest.raises(ValueError, match="at least two"):
            select_seeds(chain4, [1])


class TestGreedyMerge:
    def test_proper_subset(self, two_clusters, tiny_device):
        subset = greedy_merge_bipartition(two_clusters, range(8), tiny_device)
        assert 0 < len(subset) < 8

    def test_respects_size_cap(self, medium_circuit, small_device):
        subset = greedy_merge_bipartition(
            medium_circuit, range(medium_circuit.num_cells), small_device
        )
        size = sum(medium_circuit.cell_size(c) for c in subset)
        assert size <= small_device.s_max

    def test_finds_cluster_structure(self, two_clusters, tiny_device):
        subset = greedy_merge_bipartition(two_clusters, range(8), tiny_device)
        # The produced block should be one full cluster.
        assert subset in ({0, 1, 2, 3}, {4, 5, 6, 7})

    def test_works_on_subset_of_cells(self, two_clusters, tiny_device):
        subset = greedy_merge_bipartition(
            two_clusters, [4, 5, 6, 7], tiny_device
        )
        assert subset < {4, 5, 6, 7}

    def test_deterministic(self, medium_circuit, small_device):
        a = greedy_merge_bipartition(
            medium_circuit, range(medium_circuit.num_cells), small_device
        )
        b = greedy_merge_bipartition(
            medium_circuit, range(medium_circuit.num_cells), small_device
        )
        assert a == b

    def test_too_few_cells(self, chain4, tiny_device):
        with pytest.raises(ValueError, match="fewer than two"):
            greedy_merge_bipartition(chain4, [0], tiny_device)


def ratio_cut_sweep(hg, cells, device, seed, trace=None):
    """One sweep from ``seed`` over ``cells`` (fresh swept-set totals)."""
    ctx = _Context(hg, sorted(cells))
    ctx.prepare_sweep()
    return _sweep(ctx, device, seed, trace)


class TestRatioCut:
    def test_sweep_basic(self, two_clusters, tiny_device):
        result = ratio_cut_sweep(two_clusters, list(range(8)), tiny_device, seed=0)
        assert result.feasible
        assert 0 < len(result.subset) < 8
        assert result.ratio < float("inf")

    def test_sweep_finds_bridge(self, two_clusters, tiny_device):
        result = ratio_cut_sweep(two_clusters, list(range(8)), tiny_device, seed=0)
        assert set(result.subset) in ({0, 1, 2, 3}, {4, 5, 6, 7})

    def test_trace_records_both_sweeps(self, two_clusters, tiny_device):
        trace = []
        ratio_cut_bipartition(two_clusters, range(8), tiny_device, trace=trace)
        results = [step for step in trace if step[0] == "rc_result"]
        assert len(results) == 2  # one per seed
        assert len(trace) == 2 * 7 + 2  # every sweep stops one cell short

    def test_best_of_two_seeds(self, two_clusters, tiny_device):
        subset = ratio_cut_bipartition(two_clusters, range(8), tiny_device)
        assert subset in ({0, 1, 2, 3}, {4, 5, 6, 7})

    def test_too_few_cells(self, chain4, tiny_device):
        with pytest.raises(ValueError, match="fewer than two"):
            ratio_cut_bipartition(chain4, [0], tiny_device)

    def test_subset_never_everything(self, medium_circuit, small_device):
        subset = ratio_cut_bipartition(
            medium_circuit, range(medium_circuit.num_cells), small_device
        )
        if subset is not None:
            assert 0 < len(subset) < medium_circuit.num_cells


class TestCreateBipartition:
    def _evaluator(self, hg, device, m=4):
        return CostEvaluator(device, DEFAULT_CONFIG, m, hg.num_terminals)

    def test_creates_new_block(self, two_clusters, tiny_device):
        state = PartitionState.single_block(two_clusters)
        new = create_bipartition(
            state, 0, tiny_device, self._evaluator(two_clusters, tiny_device, 2)
        )
        assert new == 1
        assert state.num_blocks == 2
        assert 0 < state.block_num_cells(1) < 8
        state.check_consistency()

    def test_new_block_is_a_cluster(self, two_clusters, tiny_device):
        state = PartitionState.single_block(two_clusters)
        new = create_bipartition(
            state, 0, tiny_device, self._evaluator(two_clusters, tiny_device, 2)
        )
        assert state.block_cells(new) in ({0, 1, 2, 3}, {4, 5, 6, 7})

    def test_single_cell_remainder_raises(self, chain4, tiny_device):
        from repro.core import UnpartitionableError

        state = PartitionState.from_assignment(
            chain4, [1, 1, 1, 0], num_blocks=2
        )
        with pytest.raises(UnpartitionableError, match="cannot bipartition"):
            create_bipartition(
                state, 0, tiny_device, self._evaluator(chain4, tiny_device)
            )

    def test_two_cell_remainder(self, chain4, tiny_device):
        state = PartitionState.from_assignment(
            chain4, [1, 1, 0, 0], num_blocks=2
        )
        new = create_bipartition(
            state, 0, tiny_device, self._evaluator(chain4, tiny_device)
        )
        assert state.block_num_cells(new) == 1
        assert state.block_num_cells(0) == 1


def _disconnected_circuit():
    """Two components: a 2-cell chain (0-1) and a 4-cell chain (2..5).

    No net crosses the components, so any builder that needs more cells
    than one component holds must take its disconnected "jump" branch.
    """
    from repro.hypergraph import Hypergraph

    return Hypergraph(
        [1, 1, 1, 1, 1, 1],
        [(0, 1), (2, 3), (3, 4), (4, 5)],
        terminal_nets=[0, 1],
    )


class TestDisconnectedJumps:
    """The disconnected-circuit fallbacks in both builder families."""

    def test_ratio_cut_sweep_jump(self):
        from repro.core import Device

        hg = _disconnected_circuit()
        device = Device("TINY", s_ds=4, t_max=8, delta=1.0)
        trace = []
        result = ratio_cut_sweep(
            hg, list(range(6)), device, seed=0, trace=trace
        )
        # The sweep visits all but one cell; cells 2..5 are unreachable
        # from seed 0, so entering the second component requires the
        # empty-gains jump (biggest remaining cell, lowest index wins).
        moved = [step[1] for step in trace if step[0] == "rc"]
        assert moved == [0, 1, 2, 3, 4]
        assert result.feasible

    def test_grower_frontier_empty_jump(self):
        from repro.core import Device
        from repro.initial import seed_grow_bipartition

        hg = _disconnected_circuit()
        # Room for 5 cells: growth must leap across components.
        device = Device("TINY", s_ds=5, t_max=16, delta=1.0)
        trace = []
        subset = seed_grow_bipartition(
            hg, range(6), device, trace=trace
        )
        grown = {step[1] for step in trace if step[0] == "sg"}
        # The grown block spans both components, which is only possible
        # via the frontier-empty jump.
        assert {0, 1} & subset and {2, 3, 4, 5} & subset
        assert len(subset) == 5
        assert grown < subset

    def test_greedy_merge_disconnected(self):
        from repro.core import Device

        hg = _disconnected_circuit()
        device = Device("TINY", s_ds=5, t_max=16, delta=1.0)
        subset = greedy_merge_bipartition(hg, range(6), device)
        assert 0 < len(subset) < 6
        # One grower exhausts its component and jumps into the other.
        assert {0, 1} & subset and {2, 3, 4, 5} & subset


class TestNetTotalHoist:
    """The swept-set totals both seed sweeps share must stay constant."""

    def test_precomputed_totals_identical(self, medium_circuit, small_device):
        cells = list(range(medium_circuit.num_cells))
        shared = _Context(medium_circuit, cells)
        shared.prepare_sweep()
        for seed in (0, 5):
            fresh = ratio_cut_sweep(medium_circuit, cells, small_device, seed)
            assert fresh == _sweep(shared, small_device, seed, None)

    def test_totals_not_mutated_between_sweeps(self, two_clusters, tiny_device):
        ctx = _Context(two_clusters, list(range(8)))
        ctx.prepare_sweep()
        before = (list(ctx.tot), ctx.swept_size, ctx.swept_pins)
        _sweep(ctx, tiny_device, 0, None)
        assert (list(ctx.tot), ctx.swept_size, ctx.swept_pins) == before

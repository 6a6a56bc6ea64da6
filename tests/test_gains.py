"""Move gains: level-1 against a brute-force oracle, level-2 semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fm import max_possible_gain, move_gain, move_gain_vector
from repro.fm.gains import flat_gain_kernel
from repro.hypergraph import Hypergraph
from repro.partition import PartitionState, cut_nets


def brute_force_gain(state, cell, to_block):
    """Oracle: apply the move, measure the cut delta, undo."""
    before = cut_nets(state.hg, state.assignment())
    origin = state.move(cell, to_block)
    after = cut_nets(state.hg, state.assignment())
    state.move(cell, origin)
    return before - after


class TestLevel1:
    def test_matches_oracle_everywhere(self, two_clusters):
        state = PartitionState.from_assignment(
            two_clusters, [0, 0, 0, 0, 1, 1, 1, 1]
        )
        for cell in range(8):
            for to in range(2):
                if to == state.block_of(cell):
                    continue
                assert move_gain(state, cell, to) == brute_force_gain(
                    state, cell, to
                ), (cell, to)

    def test_matches_oracle_three_way(self, two_clusters):
        state = PartitionState.from_assignment(
            two_clusters, [0, 0, 1, 1, 2, 2, 2, 2]
        )
        for cell in range(8):
            for to in range(3):
                if to == state.block_of(cell):
                    continue
                assert move_gain(state, cell, to) == brute_force_gain(
                    state, cell, to
                ), (cell, to)

    def test_matches_oracle_generated(self, medium_circuit):
        state = PartitionState.from_assignment(
            medium_circuit,
            [c % 3 for c in range(medium_circuit.num_cells)],
        )
        for cell in range(0, medium_circuit.num_cells, 7):
            for to in range(3):
                if to == state.block_of(cell):
                    continue
                assert move_gain(state, cell, to) == brute_force_gain(
                    state, cell, to
                ), (cell, to)

    def test_bridge_cell_gain(self, two_clusters):
        state = PartitionState.from_assignment(
            two_clusters, [0, 0, 0, 0, 1, 1, 1, 1]
        )
        # Moving cell 3 to block 1 uncuts the bridge but cuts its three
        # cluster nets: gain = 1 - 3 = -2.
        assert move_gain(state, 3, 1) == -2

    def test_max_possible_gain(self, two_clusters):
        assert max_possible_gain(
            PartitionState.single_block(two_clusters)
        ) == 4  # every cell touches 4 nets


class TestLevel2:
    def test_level1_component_matches(self, two_clusters):
        state = PartitionState.from_assignment(
            two_clusters, [0, 0, 0, 0, 1, 1, 1, 1]
        )
        locked = [dict() for _ in range(two_clusters.num_nets)]
        for cell in range(8):
            to = 1 - state.block_of(cell)
            g1, _ = move_gain_vector(state, cell, to, locked)
            assert g1 == move_gain(state, cell, to)

    def test_cut_with_recoverable_leftover(self, chain4):
        state = PartitionState.from_assignment(chain4, [0, 0, 1, 1])
        locked = [dict() for _ in range(chain4.num_nets)]
        g1, g2 = move_gain_vector(state, 0, 1, locked)
        # net (0,1) entirely in block 0 with 2 pins: cut it (-1), but the
        # leftover pin is free and alone -> recoverable, no g2 penalty.
        assert (g1, g2) == (-1, 0)

    def test_positive_lookahead(self):
        from repro.hypergraph import Hypergraph

        # Net (0,1,2) with pins 0,1 in block 0 and pin 2 in block 1:
        # moving cell 0 to block 1 leaves one free pin behind whose move
        # would uncut the net -> level-2 credit.
        hg = Hypergraph([1, 1, 1], [(0, 1, 2)])
        state = PartitionState.from_assignment(hg, [0, 0, 1])
        locked = [dict()]
        g1, g2 = move_gain_vector(state, 0, 1, locked)
        assert (g1, g2) == (0, 1)

    def test_lookahead_blocked_by_lock(self, chain4):
        # Net (1,2) spans blocks {0: cell1, 1: cell2}... consider moving
        # cell 1 toward block 1 when net (0,1) has a locked companion.
        state = PartitionState.from_assignment(chain4, [0, 0, 1, 1])
        free_locked = [dict() for _ in range(chain4.num_nets)]
        g1_free, g2_free = move_gain_vector(state, 1, 1, free_locked)
        locked = [dict() for _ in range(chain4.num_nets)]
        locked[0][0] = 1  # net (0,1): companion pin locked in block 0
        g1_lock, g2_lock = move_gain_vector(state, 1, 1, locked)
        assert g1_free == g1_lock  # level 1 ignores locks
        assert g2_lock <= g2_free  # lock can only hurt the look-ahead

    def test_unrecoverable_cut_penalized(self):
        from repro.hypergraph import Hypergraph

        # One 3-pin net entirely in block 0; a second block exists.
        hg = Hypergraph([1, 1, 1], [(0, 1, 2)])
        state = PartitionState.from_assignment(hg, [0, 0, 0], num_blocks=2)
        locked = [dict()]
        g1, g2 = move_gain_vector(state, 0, 1, locked)
        # Cutting a 3-pin net leaves 2 pins behind: not recoverable in
        # one move -> level-2 penalty.
        assert (g1, g2) == (-1, -1)

    def test_recoverable_cut_not_penalized(self):
        from repro.hypergraph import Hypergraph

        hg = Hypergraph([1, 1], [(0, 1)])
        state = PartitionState.from_assignment(hg, [0, 0], num_blocks=2)
        locked = [dict()]
        g1, g2 = move_gain_vector(state, 0, 1, locked)
        assert (g1, g2) == (-1, 0)


@st.composite
def locked_flat_states(draw):
    """A random state, per-net lock counts and per-cell targets."""
    num_cells = draw(st.integers(2, 10))
    num_blocks = draw(st.integers(2, 5))
    nets = [
        tuple(
            draw(
                st.lists(
                    st.integers(0, num_cells - 1),
                    min_size=1,
                    max_size=min(5, num_cells),
                    unique=True,
                )
            )
        )
        for _ in range(draw(st.integers(1, 14)))
    ]
    hg = Hypergraph([1] * num_cells, nets)
    assignment = draw(
        st.lists(
            st.integers(0, num_blocks - 1),
            min_size=num_cells,
            max_size=num_cells,
        )
    )
    locked = [
        {
            b: n
            for b, n in enumerate(
                draw(
                    st.lists(
                        st.integers(0, 2),
                        min_size=num_blocks,
                        max_size=num_blocks,
                    )
                )
            )
            if n
        }
        for _ in nets
    ]
    # Targets: any ordered subset of the other blocks, so a span-2 net's
    # other block is sometimes not among them.
    targets = [
        draw(
            st.permutations(
                [b for b in range(num_blocks) if b != assignment[cell]]
            ).flatmap(lambda p: st.integers(0, len(p)).map(lambda n: p[:n]))
        )
        for cell in range(num_cells)
    ]
    return hg, assignment, num_blocks, locked, targets


class TestFlatGainKernel:
    """The fused all-directions kernel equals ``move_gain_vector``.

    ``move_gain_vector`` (one direction per call) is the reference; the
    level-1 part is also checked against the brute-force cut delta.
    """

    @staticmethod
    def check(hg, assignment, num_blocks, locked, targets):
        state = PartitionState.from_assignment(hg, assignment, num_blocks)
        kernel = flat_gain_kernel(state, locked)
        for cell, cell_targets in enumerate(targets):
            got = kernel(cell, assignment[cell], cell_targets)
            assert got == [
                move_gain_vector(state, cell, t, locked) for t in cell_targets
            ]
            assert [g1 for g1, _ in got] == [
                brute_force_gain(state, cell, t) for t in cell_targets
            ]

    @settings(max_examples=300, deadline=None)
    @given(locked_flat_states())
    def test_matches_move_gain_vector(self, case):
        self.check(*case)

    def test_span2_other_block_not_a_target(self):
        # Net (0, 1) spans blocks {0, 2}; only block 1 is a target, so
        # cell 0's +1 toward block 2 must not leak into block 1.
        hg = Hypergraph([1, 1, 1], [(0, 1), (0, 2)])
        state = PartitionState.from_assignment(hg, [0, 2, 1])
        locked = [{}, {}]
        kernel = flat_gain_kernel(state, locked)
        assert kernel(0, 0, [1]) == [(1, 0)]
        assert kernel(0, 0, [1, 2]) == [(1, 0), (1, 0)]
        self.check(hg, [0, 2, 1], 3, locked, [[1], [], [2, 0]])

    def test_level2_blocked_by_locked_companion(self):
        # Net (0, 1, 2): two pins in block 0, one in block 1.  The
        # look-ahead credit toward block 1 needs both block-0 pins free.
        hg = Hypergraph([1, 1, 1], [(0, 1, 2)])
        state = PartitionState.from_assignment(hg, [0, 0, 1], 3)
        kernel = flat_gain_kernel(state, [{}])
        assert kernel(0, 0, [1, 2]) == [(0, 1), (0, 0)]
        locked = [{0: 1}]
        kernel = flat_gain_kernel(state, locked)
        assert kernel(0, 0, [1, 2]) == [(0, 0), (0, 0)]
        self.check(hg, [0, 0, 1], 3, locked, [[2, 1], [1], [0, 2]])

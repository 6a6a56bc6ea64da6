"""One partition substrate: the flat state, its buckets and whole runs.

Three layers of evidence, matching DESIGN.md section 9:

* **state replay** — operation sequences (moves, rewinds, block growth
  past the counter stride, snapshot restores, full restores) applied to
  :class:`PartitionState` and checked after every op against the
  from-scratch recounts of :mod:`repro.partition.cut`; seeded sequences
  also check FM gains against the brute-force cut delta and the
  incremental cost keys against the O(k) sweep, and a hypothesis test
  draws the sequences itself;
* **bucket order** — :class:`FlatGainBuckets` against a plain
  list-of-stacks LIFO model over random op sequences;
* **whole runs** — full ``fpart`` runs reproduce the frozen golden
  corpus, serial and with pooled builders, and the ``--restarts``
  portfolio winner does not depend on ``jobs``.
"""

import importlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import XC3042, fpart, mcnc_circuit
from repro.circuits import generate_circuit
from repro.cli import build_parser
from repro.core import CostEvaluator, FpartConfig, IncrementalCostEvaluator
from repro.core.config import DEFAULT_CONFIG
from repro.core.device import device_by_name
from repro.fm import move_gain
from repro.fm.buckets import FlatGainBuckets
from repro.hypergraph import Hypergraph
from repro.partition import PartitionState, cut
from test_buckets import LifoModel
from test_golden import GOLDEN_PATH, _sha256


class TestBackendDispatch:
    """The substrate knob is gone: one state class and no selector."""

    def test_state_class(self):
        from repro.partition.state import PartitionState as StateClass

        assert StateClass is PartitionState
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.backend")

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError):
            FpartConfig(backend="flat")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "c.hgr", "--backend", "flat"]
            )

    def test_single_block_state(self, chain4):
        state = PartitionState.single_block(chain4)
        assert state.flat_spans == [1, 1, 1]
        assert [state.net_block_count(e, 0) for e in range(3)] == [2, 2, 2]
        assert state.net_distribution(0) == {0: 2}
        # Only net 0 carries a pad, so only it shows as a block pin.
        assert state.block_pin_counts == (1,)
        state.check_consistency()

    def test_copy_preserves_backend(self, chain4):
        state = PartitionState.from_assignment(chain4, [0, 1, 0, 1], 2)
        twin = state.copy()
        assert type(twin) is PartitionState
        twin.move(1, 0)
        assert state.assignment() == [0, 1, 0, 1]
        assert twin.assignment() == [0, 0, 0, 1]
        state.check_consistency()
        twin.check_consistency()


# ---------------------------------------------------------------------------
# State replay against the from-scratch recounts
# ---------------------------------------------------------------------------

#: Op kinds; each op is ``(kind, a, b)`` with two non-negative ints the
#: replay maps onto whatever is valid in the current state.
OP_KINDS = (
    "move", "add_block", "mark", "rewind",
    "snapshot", "restore_snapshot", "restore",
)
MAX_BLOCKS = 9  # past the initial counter stride of 4: forces re-layouts


def random_ops(seed, length):
    """Seeded op sequence, mostly moves (the hot path)."""
    rng = random.Random(seed)
    weights = (70, 4, 8, 5, 6, 5, 2)
    return [
        (
            rng.choices(OP_KINDS, weights)[0],
            rng.randrange(1 << 16),
            rng.randrange(1 << 16),
        )
        for _ in range(length)
    ]


def check_against_recount(state, nets=None):
    """Every aggregate of ``state`` equals the from-scratch recount."""
    hg = state.hg
    assignment = state.assignment()
    k = state.num_blocks
    assert list(state.block_sizes) == cut.block_sizes(hg, assignment, k)
    pins = cut.block_pin_counts(hg, assignment, k)
    assert list(state.block_pin_counts) == pins
    assert list(state.block_ext_io_counts) == cut.block_ext_io_counts(
        hg, assignment, k
    )
    assert state.cut_nets == cut.cut_nets(hg, assignment)
    assert state.total_pins == sum(pins)
    for e in range(hg.num_nets) if nets is None else nets:
        recount = {}
        for p in hg.pins_of(e):
            recount[assignment[p]] = recount.get(assignment[p], 0) + 1
        assert state.net_distribution(e) == recount
        assert state.net_span(e) == len(recount)


def replay(hg, ops, on_step=None):
    """Apply ``ops`` to a single-block start; returns the final state.

    Marks and snapshots share one stack: rewinding or restoring to an
    entry drops the entries above it (their journal positions are gone),
    and a full restore clears the stack.  ``on_step(state)`` runs after
    every op.
    """
    state = PartitionState.single_block(hg)
    stack = []  # ("mark", journal mark) | ("snap", snapshot)
    for kind, a, b in ops:
        if kind == "move":
            state.move(a % hg.num_cells, b % state.num_blocks)
        elif kind == "add_block":
            if state.num_blocks < MAX_BLOCKS:
                state.add_block()
        elif kind == "mark":
            stack.append(("mark", state.journal_mark()))
        elif kind == "snapshot":
            stack.append(("snap", state.snapshot()))
        elif kind in ("rewind", "restore_snapshot") and stack:
            i = a % len(stack)
            tag, value = stack[i]
            if tag == "mark":
                state.rewind(value)
            else:
                state.restore_snapshot(value)
            del stack[i:]
        elif kind == "restore":
            rng = random.Random(a)
            nb = 1 + b % MAX_BLOCKS
            state.restore([rng.randrange(nb) for _ in range(hg.num_cells)], nb)
            stack.clear()
        if on_step is not None:
            on_step(state)
    state.check_consistency()
    return state


class TestDifferentialProperties:
    """Replayed op sequences never leave the from-scratch recount."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_sequences_small(self, two_clusters, seed):
        replay(two_clusters, random_ops(seed, 400), check_against_recount)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_random_sequences_with_keys(self, seed):
        hg = generate_circuit(
            "flatcore", num_cells=300, num_ios=24, seed=seed
        )
        device = device_by_name("XC3042")
        m = device.lower_bound(hg)
        evaluator = IncrementalCostEvaluator(
            device, DEFAULT_CONFIG, m, hg.num_terminals
        )
        oracle = CostEvaluator(device, DEFAULT_CONFIG, m, hg.num_terminals)
        rng = random.Random(seed)
        probe_nets = sorted(rng.sample(range(hg.num_nets), 16))
        probe_cells = sorted(rng.sample(range(hg.num_cells), 4))
        attached = []

        def step(state):
            if not attached:
                evaluator.attach(state)
                attached.append(state)
            check_against_recount(state, probe_nets)
            remainder = state.num_blocks - 1
            assert (
                evaluator.current_key(remainder)
                == oracle.evaluate(state, remainder).key
            )
            if state.num_blocks == 1:
                return
            before = cut.cut_nets(hg, state.assignment())
            for c in probe_cells:
                t = (state.block_of(c) + 1) % state.num_blocks
                gain = move_gain(state, c, t)
                origin = state.move(c, t)
                assert gain == before - cut.cut_nets(hg, state.assignment())
                state.move(c, origin)

        replay(hg, random_ops(seed, 500), step)

    def test_replay_fingerprints_cover_every_op(self, two_clusters):
        ops = [(kind, 3, 5) for kind in OP_KINDS] * 3
        seen = []
        replay(two_clusters, ops, lambda state: seen.append(state.assignment()))
        assert len(seen) == len(ops)

    def test_consistency_after_replay(self, medium_circuit):
        # replay() runs check_consistency() on exit.
        state = replay(medium_circuit, random_ops(9, 600))
        assert state.num_blocks >= 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 9),
        st.lists(
            st.lists(st.integers(0, 8), min_size=1, max_size=4),
            min_size=1,
            max_size=10,
        ),
        st.lists(
            st.tuples(
                st.sampled_from(OP_KINDS),
                st.integers(0, 1000),
                st.integers(0, 1000),
            ),
            max_size=60,
        ),
    )
    def test_hypothesis_replay(self, num_cells, raw_nets, ops):
        nets = [
            tuple(sorted({p % num_cells for p in net})) for net in raw_nets
        ]
        hg = Hypergraph([1 + c % 3 for c in range(num_cells)], nets,
                        terminal_nets=[0])
        replay(hg, ops, check_against_recount)


# ---------------------------------------------------------------------------
# Bucket order
# ---------------------------------------------------------------------------


class TestFlatGainBuckets:
    """FlatGainBuckets must be observationally identical to the model."""

    @staticmethod
    def _fingerprint(b):
        return (len(b), b.max_gain_value(), b.peek_max(), tuple(b.iter_from_max()))

    @staticmethod
    def _model_fingerprint(model):
        order = model.order()
        top = max(model.gain.values()) if model.gain else None
        return (len(model.gain), top, order[0] if order else None, tuple(order))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_op_equivalence(self, seed):
        rng = random.Random(seed)
        max_gain, capacity = 6, 48
        model = LifoModel(max_gain)
        flat = FlatGainBuckets(max_gain, capacity)
        members = model.gain
        for _ in range(2000):
            r = rng.random()
            if r < 0.45 or not members:
                cell = rng.randrange(capacity)
                gain = rng.randint(-max_gain, max_gain)
                if cell in members:
                    with pytest.raises(ValueError):
                        flat.insert(cell, gain)
                else:
                    model.insert(cell, gain)
                    flat.insert(cell, gain)
            elif r < 0.60:
                cell = rng.choice(sorted(members))
                model.remove(cell)
                flat.remove(cell)
            elif r < 0.75:
                cell = rng.choice(sorted(members))
                gain = rng.randint(-max_gain, max_gain)
                model.update(cell, gain)
                flat.update(cell, gain)
            elif r < 0.85:
                cell = rng.choice(sorted(members))
                bounded = max(
                    -max_gain, min(max_gain, members[cell] + rng.randint(-2, 2))
                )
                delta = bounded - members[cell]
                if delta:
                    model.update(cell, bounded)
                flat.adjust(cell, delta)
            else:
                assert flat.pop_max() == model.pop_max()
            assert self._fingerprint(flat) == self._model_fingerprint(model)
            for cell, gain in members.items():
                assert cell in flat
                assert flat.gain_of(cell) == gain

    def test_errors_match(self):
        flat = FlatGainBuckets(3, 8)
        with pytest.raises(KeyError):
            flat.remove(2)
        with pytest.raises(KeyError):
            flat.gain_of(2)
        flat.insert(2, 1)
        with pytest.raises(ValueError):
            flat.insert(2, -1)
        with pytest.raises(ValueError):
            flat.insert(3, 4)  # gain out of range
        assert flat.pop_max() == 2
        assert flat.pop_max() is None
        assert flat.peek_max() is None
        assert flat.max_gain_value() is None

    def test_clear(self):
        flat = FlatGainBuckets(2, 6)
        for cell in range(6):
            flat.insert(cell, cell % 3 - 1)
        flat.clear()
        assert len(flat) == 0
        assert list(flat.iter_from_max()) == []
        flat.insert(0, 2)  # reusable after clear
        assert flat.pop_max() == 0


# ---------------------------------------------------------------------------
# Whole runs against the golden corpus
# ---------------------------------------------------------------------------


def golden_record(result):
    """The ``fpart_golden.json`` fields a plain (untraced) run yields."""
    cost = result.cost
    return {
        "assignment_sha256": _sha256(result.assignment),
        "cost": [
            cost.feasible_blocks,
            cost.distance,
            cost.total_pins,
            cost.ext_balance,
            cost.cut_nets,
        ],
        "num_devices": result.num_devices,
    }


def golden(key):
    entry = json.loads(GOLDEN_PATH.read_text())["entries"][key]
    return {name: entry[name] for name in ("assignment_sha256", "cost", "num_devices")}


class TestWholeRunBitIdentity:
    """Full fpart runs reproduce the frozen corpus bit for bit."""

    @pytest.mark.parametrize("builder_jobs", [1, 4])
    def test_s9234_xc3042(self, builder_jobs):
        hg = mcnc_circuit("s9234", "XC3000")
        result = fpart(hg, XC3042, config=FpartConfig(builder_jobs=builder_jobs))
        assert golden_record(result) == golden("s9234/XC3042/seed0")
        assert result.status == "feasible"

    def test_c3540_xc3042(self):
        hg = mcnc_circuit("c3540", "XC3000")
        result = fpart(hg, XC3042)
        assert golden_record(result) == golden("c3540/XC3042/seed0")

    def test_portfolio_winner_unchanged(self):
        from repro.parallel import run_restarts

        hg = mcnc_circuit("c3540", "XC3000")
        config = FpartConfig(seed=3)
        portfolios = [
            run_restarts(hg, XC3042, config, restarts=4, jobs=jobs)
            for jobs in (1, 4)
        ]
        assert all(p.status == "complete" for p in portfolios)
        serial, pooled = portfolios
        assert serial.winner_index == pooled.winner_index
        assert serial.winner.assignment == pooled.winner.assignment
        assert serial.winner.cost.key == pooled.winner.cost.key

    def test_checkpoints_interchangeable(self):
        from repro.core.checkpoint import config_digest

        # Execution knobs never fork a run lineage: a checkpoint written
        # with pooled builders resumes with in-process ones.
        assert config_digest(FpartConfig(builder_jobs=4)) == config_digest(
            FpartConfig()
        )
        assert config_digest(FpartConfig(seed=1)) != config_digest(
            FpartConfig()
        )

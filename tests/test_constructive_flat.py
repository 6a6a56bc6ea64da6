"""Constructive builders against a plain reference implementation.

The builders in ``repro.initial.flat_build`` keep their candidates in
bucketed, incrementally updated structures.  This file re-states each
builder the simplest way — a :class:`~repro.initial.GrowingBlock` per
side and a full scan of the candidates per step — and checks that both
make the same decision at every step (DESIGN.md section 13):

* **per-step equivalence** — returned subsets and the per-step trace
  tuples (cut, sizes and pin counts after every move) are compared
  entry for entry, on fixtures and on random builder invocations;
* **branch coverage** — the disconnected-circuit jump fallbacks;
* **whole runs** — a full ``fpart`` run reproduces the golden corpus,
  and a seeded run (all three builders) is unchanged when the driver's
  builders are swapped for the reference ones, serial and pooled.
"""

import random
from collections import Counter

import pytest

from repro import XC3042, fpart, mcnc_circuit
from repro.circuits import generate_circuit
from repro.core import Device, FpartConfig
from repro.core.device import device_by_name
from repro.hypergraph import Hypergraph
from repro.initial import (
    BUILDERS,
    GrowingBlock,
    greedy_merge_bipartition,
    ratio_cut_bipartition,
    seed_grow_bipartition,
    select_seeds,
)
from repro.initial import flat_build
from repro.initial import initial as initial_module
from test_flat_core import golden, golden_record
from test_golden_extended import constructive_ops, replay_builders

# ---------------------------------------------------------------------------
# Reference builders: the section 3.2 rules, one full scan per step
# ---------------------------------------------------------------------------


def _reference_sweep(hg, cells, device, seed, trace):
    """One ratio-cut sweep from ``seed``; returns ``(subset, ratio)``."""
    total = Counter(e for c in cells for e in hg.nets_of(c))
    in_a = Counter()
    side_a = GrowingBlock(hg)
    side_b = GrowingBlock(hg, cells)
    cut = 0
    order = []
    best = (float("inf"), None, True)  # (ratio, prefix length, side A?)

    def move(cell):
        nonlocal cut, best
        for e in hg.nets_of(cell):
            t, i = total[e], in_a[e]
            cut += (0 < i + 1 < t) - (0 < i < t)
            in_a[e] = i + 1
        side_b.remove(cell)
        side_a.add(cell)
        order.append(cell)
        trace.append(("rc", cell, cut, side_a.size, side_a.pins,
                      side_b.size, side_b.pins))
        if side_b.size == 0:
            return
        a_ok = device.fits(side_a.size, side_a.pins)
        b_ok = device.fits(side_b.size, side_b.pins)
        ratio = cut / (side_a.size * side_b.size)
        if (a_ok or b_ok) and ratio < best[0]:
            side = side_a.size >= side_b.size if a_ok and b_ok else a_ok
            best = (ratio, len(order), side)

    def gain(v):
        return sum(
            (0 < in_a[e] < total[e]) - (0 < in_a[e] + 1 < total[e])
            for e in hg.nets_of(v)
            if total[e] >= 2
        )

    move(seed)
    while len(side_b) > 1:
        adjacent = [
            v for v in side_b.cells
            if any(in_a[e] for e in hg.nets_of(v))
        ]
        if adjacent:
            cell = max(adjacent, key=lambda v: (gain(v), hg.cell_size(v), -v))
        else:  # disconnected: jump to the biggest remaining cell
            cell = max(side_b.cells, key=lambda v: (hg.cell_size(v), -v))
        move(cell)
    ratio, length, side_a_wins = best
    if length is None:
        result = ((), float("inf"), False)
    else:
        prefix = set(order[:length])
        subset = prefix if side_a_wins else set(cells) - prefix
        result = (tuple(sorted(subset)), ratio, True)
    trace.append(("rc_result",) + result)
    return result


def reference_ratio_cut(hg, cells, device, rng=None, trace=None):
    cells = sorted(set(cells))
    trace = [] if trace is None else trace
    seeds = select_seeds(hg, cells, rng=rng)
    results = [
        r for r in (_reference_sweep(hg, cells, device, s, trace) for s in seeds)
        if r[2] and 0 < len(r[0]) < len(cells)
    ]
    if not results:
        return None
    return set(min(results, key=lambda r: r[1])[0])


class _ReferenceGrower:
    """A block grown by the ``S / T`` merge score of [1]."""

    def __init__(self, hg, seed, s_max):
        self.hg = hg
        self.s_max = s_max
        self.block = GrowingBlock(hg, [seed])
        self.saturated = False

    def pick(self, unassigned):
        hg = self.hg
        block_nets = {e for c in self.block.cells for e in hg.nets_of(c)}
        best, best_key = None, None
        for v in unassigned:
            size = self.block.size + hg.cell_size(v)
            if size > self.s_max or block_nets.isdisjoint(hg.nets_of(v)):
                continue
            _, pins = self.block.preview_add(v)
            score = float("inf") if pins <= 0 else size / pins
            key = (score, hg.cell_size(v), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        if best is not None:
            return best
        room = self.s_max - self.block.size
        fitting = [v for v in unassigned if hg.cell_size(v) <= room]
        if not fitting:
            return None
        return max(fitting, key=lambda v: (hg.cell_size(v), -v))

    def grow(self, unassigned):
        if self.saturated:
            return None
        cell = self.pick(unassigned)
        if cell is None:
            self.saturated = True
            return None
        unassigned.discard(cell)
        self.block.add(cell)
        return cell


def reference_greedy_merge(hg, cells, device, rng=None, trace=None):
    cells = sorted(set(cells))
    seed1, seed2 = select_seeds(hg, cells, rng=rng)
    unassigned = set(cells) - {seed1, seed2}
    growers = [
        _ReferenceGrower(hg, seed1, device.s_max),
        _ReferenceGrower(hg, seed2, device.s_max),
    ]
    while not all(g.saturated for g in growers):
        added = [g.grow(unassigned) for g in growers]
        for which, cell in enumerate(added):
            if cell is not None and trace is not None:
                block = growers[which].block
                trace.append(("gm", which, cell, block.size, block.pins))
        if added == [None, None]:
            break
    a, b = (g.block for g in growers)
    return set(a.cells if (a.size, -a.pins) >= (b.size, -b.pins) else b.cells)


def reference_seed_grow(hg, cells, device, rng=None, trace=None):
    cells = sorted(set(cells))
    seed1, _ = select_seeds(hg, cells, rng=rng)
    unassigned = set(cells) - {seed1}
    grower = _ReferenceGrower(hg, seed1, device.s_max)
    while len(unassigned) > 1:
        cell = grower.grow(unassigned)
        if cell is None:
            break
        if trace is not None:
            trace.append(("sg", cell, grower.block.size, grower.block.pins))
    return set(grower.block.cells)


REFERENCE = {
    "greedy_merge": reference_greedy_merge,
    "ratio_cut": reference_ratio_cut,
    "seed_grow": reference_seed_grow,
}

PAIRS = [
    ("greedy_merge", greedy_merge_bipartition),
    ("ratio_cut", ratio_cut_bipartition),
    ("seed_grow", seed_grow_bipartition),
]


def first_divergence(ops, got, want):
    """Locate the first differing op / trace step, or None."""
    for i, ((sub_g, trace_g), (sub_w, trace_w)) in enumerate(zip(got, want)):
        if trace_g != trace_w:
            step = next(
                (j for j, (a, b) in enumerate(zip(trace_g, trace_w)) if a != b),
                min(len(trace_g), len(trace_w)),
            )
            return f"op {i} = {ops[i][:2]} diverges at trace step {step}"
        if sub_g != sub_w:
            return f"op {i} = {ops[i][:2]} returns a different subset"
    if len(got) != len(want):
        return "record counts differ"
    return None


class TestBuilderEquivalence:
    """Direct builder-vs-reference comparison on small circuits."""

    @pytest.mark.parametrize("name,fn", PAIRS)
    def test_two_clusters(self, name, fn, two_clusters, tiny_device):
        got_trace, want_trace = [], []
        got = fn(two_clusters, range(8), tiny_device, trace=got_trace)
        want = REFERENCE[name](two_clusters, range(8), tiny_device, trace=want_trace)
        assert got == want
        assert got_trace == want_trace

    @pytest.mark.parametrize("name,fn", PAIRS)
    def test_medium_circuit(self, name, fn, medium_circuit, small_device):
        cells = range(medium_circuit.num_cells)
        got_trace, want_trace = [], []
        got = fn(medium_circuit, cells, small_device, trace=got_trace)
        want = REFERENCE[name](
            medium_circuit, cells, small_device, trace=want_trace
        )
        assert got == want
        assert got_trace == want_trace

    @pytest.mark.parametrize("name,fn", PAIRS)
    def test_seeded(self, name, fn, medium_circuit, small_device):
        cells = range(medium_circuit.num_cells)
        for seed in range(4):
            got = fn(medium_circuit, cells, small_device, rng=random.Random(seed))
            want = REFERENCE[name](
                medium_circuit, cells, small_device, rng=random.Random(seed)
            )
            assert got == want

    def test_flat_builders_registry(self):
        assert dict(BUILDERS) == {
            "greedy_merge": flat_build.greedy_merge_bipartition,
            "ratio_cut": flat_build.ratio_cut_bipartition,
            "seed_grow": flat_build.seed_grow_bipartition,
        }


class TestConstructiveDifferential:
    """Random builder invocations, replayed against the reference."""

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_circuits(self, seed):
        hg = generate_circuit("confl", num_cells=220, num_ios=20, seed=seed)
        device = device_by_name("XC3042")
        ops = constructive_ops(hg, seed=seed, rounds=10)
        got = replay_builders(hg, device, ops)
        want = replay_builders(hg, device, ops, REFERENCE)
        assert first_divergence(ops, got, want) is None
        assert sum(len(trace) for _, trace in got) > 0

    def test_replay_records_traces(self, medium_circuit, small_device):
        ops = constructive_ops(medium_circuit, seed=1, rounds=4)
        records = replay_builders(medium_circuit, small_device, ops)
        assert len(records) == len(ops)
        for subset, trace in records:
            assert subset is None or len(subset) > 0
            assert isinstance(trace, tuple)

    def test_divergence_is_localized(self, medium_circuit, small_device):
        ops = [("build", "ratio_cut", tuple(range(12)), None)] * 2
        records = replay_builders(medium_circuit, small_device, ops)
        assert first_divergence(ops, records, records) is None
        subset, trace = records[1]
        tampered = records[:1] + [(subset, trace[:3] + (("rc", -1),) + trace[4:])]
        assert first_divergence(ops, records, tampered) == (
            "op 1 = ('build', 'ratio_cut') diverges at trace step 3"
        )


def _disconnected_circuit():
    return Hypergraph(
        [1, 1, 1, 1, 1, 1],
        [(0, 1), (2, 3), (3, 4), (4, 5)],
        terminal_nets=[0, 1],
    )


class TestDisconnectedJumpEquivalence:
    """The jump fallbacks decide like the reference."""

    def test_ratio_cut_jump(self):
        hg = _disconnected_circuit()
        device = Device("TINY", s_ds=4, t_max=8, delta=1.0)
        got_trace, want_trace = [], []
        got = ratio_cut_bipartition(hg, range(6), device, trace=got_trace)
        want = reference_ratio_cut(hg, range(6), device, trace=want_trace)
        assert (got, got_trace) == (want, want_trace)

    def test_grower_jump(self):
        hg = _disconnected_circuit()
        device = Device("TINY", s_ds=5, t_max=16, delta=1.0)
        for name in ("greedy_merge", "seed_grow"):
            got_trace, want_trace = [], []
            got = dict(BUILDERS)[name](hg, range(6), device, trace=got_trace)
            want = REFERENCE[name](hg, range(6), device, trace=want_trace)
            assert (got, got_trace) == (want, want_trace)
        # The seed-grow result really does span both components (the
        # jump branch fired, we did not just skip it).
        subset = seed_grow_bipartition(hg, range(6), device)
        assert {0, 1} & subset and {2, 3, 4, 5} & subset


class TestWholeRunBitIdentity:
    """Full fpart runs through the constructive phase."""

    @pytest.mark.parametrize("builder_jobs", [1, 4])
    def test_c3540_xc3042(self, builder_jobs):
        hg = mcnc_circuit("c3540", "XC3000")
        result = fpart(hg, XC3042, config=FpartConfig(builder_jobs=builder_jobs))
        assert golden_record(result) == golden("c3540/XC3042/seed0")

    @pytest.mark.parametrize("builder_jobs", [1, 4])
    def test_seeded_run_uses_flat_seed_grow(self, builder_jobs, monkeypatch):
        # seed != 0 puts seed_grow in the portfolio, so this pins all
        # three builders inside the driver, serial and pooled.
        hg = generate_circuit("confl-run", num_cells=300, num_ios=24, seed=9)
        config = FpartConfig(builder_jobs=builder_jobs, seed=5)
        result = fpart(hg, XC3042, config=config)
        calls = Counter()

        def counted(name):
            def builder(*args, **kwargs):
                calls[name] += 1
                return REFERENCE[name](*args, **kwargs)

            return builder

        for name in REFERENCE:
            monkeypatch.setitem(
                initial_module._BUILDER_BY_NAME, name, counted(name)
            )
        reference = fpart(hg, XC3042, config=FpartConfig(seed=5))
        assert calls["seed_grow"] > 0
        assert result.assignment == reference.assignment
        assert result.cost.key == reference.cost.key

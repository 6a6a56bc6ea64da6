"""Extended golden corpus: FPART move sequences, builders and baselines.

``tests/golden/extended_golden.json`` widens the frozen corpus of
``tests/test_golden.py`` (whose 40 entries stay as they are) in three
sections:

* ``fpart`` — whole FPART runs for seed 2 on XC3020/XC3042 and for
  seeds {0, 1, 2} on XC3090/XC2064.  On top of the ``test_golden``
  record, each entry carries ``pass_moves_sha256``: one sha256 per
  Sanchis pass over the lexicographic keys of that pass's
  ``move_batch`` events, traced with ``sample_moves=1`` (every applied
  move), so a change to the move sequence is localised to a pass.  The
  per-pass digests are cut to their first 16 hex digits to keep the
  file small.
* ``builders`` — the sha256 of the constructive builders'
  ``(subset, trace)`` records over a fixed random sequence of builder
  invocations (:func:`constructive_ops`), per circuit: the ten
  stand-ins plus two generated circuits.
* ``baselines`` — the assignment sha256 (or the typed error) and the
  device count of ``kwayx``, ``direct_kway``, ``anneal_kway``, ``rp0``
  and ``fpart_multilevel`` on the stand-ins × XC3020/XC3042
  (``direct_kway`` skips s38417/s38584, where one run takes minutes).

The corpus was generated once, before the partition substrate was
unified, and the generator then also checked every ``fpart`` and
``builders`` record against the retired object substrate.  It is never
regenerated in a change that touches the search: a mismatch means the
change altered behaviour.

Re-derivation rule: ``assignment_sha256``, ``cost`` and ``num_devices``
(and the builder and baseline sections) are never re-derived.  The
pass-level fields of the ``fpart`` section (``passes``,
``pass_start_sha256`` and ``pass_moves_sha256``) describe how a run got
there and may be re-derived only by a change that skips engine work
whose outcome is already known, leaves every other field
byte-identical, and checks, against a clean clone of its parent, that
each run's new pass list is the parent's list with exactly the passes
its ``improve_skip`` trace events report removed.  That was done once, when ``improve()`` began
skipping replayed restarts and settled calls (DESIGN.md §6 and §14).

By default two of the stand-ins under 500 cells (:data:`TIER1`) are
checked in the ``fpart`` and ``baselines`` sections, and every small
stand-in plus the smaller generated circuit in the cheap ``builders``
section; ``REPRO_FULL=1`` checks every entry.
``python tests/test_golden_extended.py --write`` regenerates the file.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.baselines import anneal_kway, direct_kway, kwayx, rp0
from repro.circuits import generate_circuit, mcnc_circuit
from repro.clustering import fpart_multilevel
from repro.core import FpartConfig, FpartPartitioner, device_by_name
from repro.core.exceptions import PartitioningError
from repro.hypergraph import Hypergraph
from repro.initial import BUILDERS
from repro.obs.trace import TraceWriter

GOLDEN_PATH = Path(__file__).parent / "golden" / "extended_golden.json"
CIRCUITS = (
    "c3540", "c5315", "c6288", "c7552", "s5378",
    "s9234", "s13207", "s15850", "s38417", "s38584",
)
#: The stand-ins under 500 cells.
SMALL = ("c3540", "c5315", "c7552", "s5378", "s9234")
#: Checked by default in the fpart and baselines sections, which keeps
#: them near 10 s (c5315 and c7552 take 8-9 s per direct_kway run); the
#: rest need ``REPRO_FULL=1``.
TIER1 = ("c3540", "s5378")

FPART_GRID = tuple(
    (device, seed)
    for device, seeds in (
        ("XC3020", (2,)),
        ("XC3042", (2,)),
        ("XC3090", (0, 1, 2)),
        ("XC2064", (0, 1, 2)),
    )
    for seed in seeds
)
#: Entries re-run with ``builder_jobs=4`` (the record must not change).
POOLED = ("c3540/XC2064/seed1", "s5378/XC3042/seed2")

#: Generated circuits for the builder section: name -> (cells, ios, seed).
GENERATED = {"gen300": (300, 30, 3), "gen1200": (1200, 96, 5)}
SMALL_GENERATED = ("gen300",)
BUILDER_DEVICE = "XC3042"
BUILDER_ROUNDS = 8

BASELINE_DEVICES = ("XC3020", "XC3042")
BASELINES: Dict[str, Callable] = {
    "kwayx": kwayx,
    "direct_kway": direct_kway,
    "anneal_kway": anneal_kway,
    "rp0": rp0,
    "fpart_multilevel": fpart_multilevel,
}
SLOW_BASELINE = {"direct_kway": ("s38417", "s38584")}

_BUILDER_BY_NAME = dict(BUILDERS)


def _sha256(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _full() -> bool:
    return bool(os.environ.get("REPRO_FULL"))


# ---------------------------------------------------------------------------
# FPART runs with per-pass move sequences
# ---------------------------------------------------------------------------


def fpart_id(circuit: str, device: str, seed: int) -> str:
    return f"{circuit}/{device}/seed{seed}"


def fpart_entry(
    circuit: str, device: str, seed: int, **overrides
) -> Dict:
    """One ``fpart`` record, computed from a fresh fully traced run."""
    hg = mcnc_circuit(circuit, "XC3000")
    stream = io.StringIO()
    tracer = TraceWriter(stream, run_id="golden", sample_moves=1)
    result = FpartPartitioner(
        hg,
        device_by_name(device),
        FpartConfig(seed=seed, **overrides),
        tracer=tracer,
    ).run()
    passes: List = []
    moves: List[List] = []
    for event in map(json.loads, stream.getvalue().splitlines()):
        if event["event"] == "pass_start":
            passes.append([event["blocks"], event["cost"]])
            moves.append([])
        elif event["event"] == "move_batch":
            moves[-1].append(event["key"])
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
        "passes": len(passes),
        "pass_start_sha256": _sha256(passes),
        "pass_moves_sha256": [_sha256(keys)[:16] for keys in moves],
    }


def _fpart_ids(full: bool) -> List[Tuple[str, str, int]]:
    return [
        (circuit, device, seed)
        for circuit in CIRCUITS
        if full or circuit in TIER1
        for device, seed in FPART_GRID
    ]


# ---------------------------------------------------------------------------
# Constructive builders
# ---------------------------------------------------------------------------

#: One builder invocation: ``("build", builder, cells, rng_seed)``.
BuildOp = Tuple[str, str, Tuple[int, ...], Optional[int]]


def constructive_ops(
    hg: Hypergraph, seed: int = 0, rounds: int = BUILDER_ROUNDS
) -> List[BuildOp]:
    """Deterministic random sequence of builder invocations over ``hg``.

    Each op runs one builder on the whole circuit (as the root
    bipartition does) or on a random subset of at least two cells (as a
    remainder block), with or without a per-op rng seed (seeded seed
    selection).
    """
    names = [name for name, _ in BUILDERS]
    rng = random.Random(seed)
    ops: List[BuildOp] = []
    for _ in range(rounds):
        builder = names[rng.randrange(len(names))]
        if rng.random() < 0.4:
            cells = tuple(range(hg.num_cells))
        else:
            k = rng.randrange(2, hg.num_cells + 1)
            cells = tuple(sorted(rng.sample(range(hg.num_cells), k)))
        rng_seed = rng.getrandbits(64) if rng.random() < 0.5 else None
        ops.append(("build", builder, cells, rng_seed))
    return ops


def replay_builders(
    hg: Hypergraph,
    device,
    ops: Sequence[BuildOp],
    builders: Optional[Dict[str, Callable]] = None,
) -> List[Tuple]:
    """Run each op; one ``(subset, trace)`` record per op."""
    builders = builders or _BUILDER_BY_NAME
    records: List[Tuple] = []
    for _, name, cells, rng_seed in ops:
        rng = random.Random(rng_seed) if rng_seed is not None else None
        trace: List[Tuple] = []
        subset = builders[name](hg, list(cells), device, rng=rng, trace=trace)
        records.append(
            (
                tuple(sorted(subset)) if subset is not None else None,
                tuple(trace),
            )
        )
    return records


def builder_circuit(name: str) -> Hypergraph:
    if name in GENERATED:
        cells, ios, seed = GENERATED[name]
        return generate_circuit(name, num_cells=cells, num_ios=ios, seed=seed)
    return mcnc_circuit(name, "XC3000")


def builder_entry(name: str) -> Dict:
    hg = builder_circuit(name)
    ops = constructive_ops(hg, seed=len(name))
    records = replay_builders(hg, device_by_name(BUILDER_DEVICE), ops)
    return {
        "ops": len(ops),
        "steps": sum(len(trace) for _, trace in records),
        "records_sha256": _sha256(records),
    }


def _builder_ids(full: bool) -> List[str]:
    return [
        name
        for name in CIRCUITS + tuple(GENERATED)
        if full or name in SMALL or name in SMALL_GENERATED
    ]


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def baseline_id(method: str, circuit: str, device: str) -> str:
    return f"{method}/{circuit}/{device}"


def baseline_entry(method: str, circuit: str, device: str) -> Dict:
    hg = mcnc_circuit(circuit, "XC3000")
    try:
        result = BASELINES[method](hg, device_by_name(device))
    except PartitioningError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    record = {"num_devices": result.num_devices, "feasible": result.feasible}
    if hasattr(result, "assignment"):
        record["assignment_sha256"] = _sha256(list(result.assignment))
    else:
        # rp0 reports its replication phase instead of an assignment.
        record["replications"] = result.replications
        record["pins_saved"] = result.pins_saved
    return record


def _baseline_ids(full: bool) -> List[Tuple[str, str, str]]:
    return [
        (method, circuit, device)
        for method in BASELINES
        for circuit in CIRCUITS
        if (full or circuit in TIER1)
        and circuit not in SLOW_BASELINE.get(method, ())
        for device in BASELINE_DEVICES
    ]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def _load() -> Dict[str, Dict]:
    return json.loads(GOLDEN_PATH.read_text())


def test_corpus_covers_the_grid():
    corpus = _load()
    assert sorted(corpus["fpart"]) == sorted(
        fpart_id(*key) for key in _fpart_ids(True)
    )
    assert sorted(corpus["builders"]) == sorted(_builder_ids(True))
    assert sorted(corpus["baselines"]) == sorted(
        baseline_id(*key) for key in _baseline_ids(True)
    )


@pytest.mark.parametrize(
    "circuit,device,seed",
    [pytest.param(*key, id=fpart_id(*key)) for key in _fpart_ids(_full())],
)
def test_fpart_moves(circuit, device, seed):
    expected = _load()["fpart"][fpart_id(circuit, device, seed)]
    assert fpart_entry(circuit, device, seed) == expected


@pytest.mark.parametrize("key", POOLED)
def test_fpart_moves_builder_jobs_4(key):
    circuit, device, seed = key.split("/")
    record = fpart_entry(circuit, device, int(seed[4:]), builder_jobs=4)
    assert record == _load()["fpart"][key]


@pytest.mark.parametrize("name", _builder_ids(_full()))
def test_builders(name):
    assert builder_entry(name) == _load()["builders"][name]


@pytest.mark.parametrize(
    "method,circuit,device",
    [
        pytest.param(*key, id=baseline_id(*key))
        for key in _baseline_ids(_full())
    ],
)
def test_baseline(method, circuit, device):
    expected = _load()["baselines"][baseline_id(method, circuit, device)]
    assert baseline_entry(method, circuit, device) == expected


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def _write() -> None:
    corpus: Dict[str, Dict] = {"fpart": {}, "builders": {}, "baselines": {}}
    for key in _fpart_ids(True):
        corpus["fpart"][fpart_id(*key)] = fpart_entry(*key)
        print("fpart", fpart_id(*key), flush=True)
    for key in POOLED:
        circuit, device, seed = key.split("/")
        pooled = fpart_entry(circuit, device, int(seed[4:]), builder_jobs=4)
        assert pooled == corpus["fpart"][key], f"builder_jobs=4 differs on {key}"
    for name in _builder_ids(True):
        corpus["builders"][name] = builder_entry(name)
        print("builders", name, flush=True)
    for key in _baseline_ids(True):
        corpus["baselines"][baseline_id(*key)] = baseline_entry(*key)
        print("baseline", baseline_id(*key), flush=True)
    GOLDEN_PATH.write_text(
        json.dumps({"schema": 1, **corpus}, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_extended.py --write")
    _write()

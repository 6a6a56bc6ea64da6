"""Span tracing of the program's public calls, from outside the program.

The benchmark never edits ``src/``.  It measures each layer from the
outside: :func:`install` replaces a public function *in the module that
calls it* (``repro.core.fpart`` imports ``create_bipartition`` and
``improve`` by name, so those two are wrapped there) or a public method
on its class, with a wrapper that records one span per call into an
in-memory list.  :func:`uninstall` puts the originals back.

A span is ``(name, start, end, parent)`` with ``parent`` the index of
the enclosing span (``-1`` for a root).  A layer's self time is the sum
of its spans' durations minus the part covered by their child spans.

Serve workers are forked after :func:`install`, so they inherit the
wrappers.  :func:`traced_partition_job` (the pool's task function while
tracing) dumps each job's spans and counters to a per-process JSONL file
that the parent merges after the run.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int]


class Tracer:
    """In-memory span recorder with an explicit enclosing-span stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        #: Work counts measured at the wrapped boundaries.
        self.counts: Dict[str, int] = defaultdict(int)
        #: While set, wrappers call straight through (used by the gate).
        self.paused = False

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)

    def parent_name(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        # Open spans carry their name (the evaluate wrapper reads its
        # parent's) and an end of None until they close.
        self.spans.append((name, 0.0, None, parent))
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent)

    def closed_spans(self) -> List[Span]:
        """Every span; called only once every span has closed."""
        assert not self.stack, "spans still open"
        return list(self.spans)


TRACER = Tracer()


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per span name: duration minus child durations.

    Child spans of one parent never overlap (calls nest on one thread),
    so subtracting their summed durations is exact.
    """
    child_total = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - child_total[index]
    return dict(out)


def inclusive_times(spans: List[Span]) -> Dict[str, Tuple[float, int]]:
    """(total seconds, call count) per span name, outermost calls only.

    A span nested inside a span of the same name (recursion) is not
    counted twice.
    """
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for name, start, end, parent in spans:
        if parent >= 0 and spans[parent][0] == name:
            continue
        out[name][0] += end - start
        out[name][1] += 1
    return {name: (value[0], int(value[1])) for name, value in out.items()}


# -- the wrapped public calls -------------------------------------------------

_ORIGINALS: List[Tuple[object, str, object]] = []


def _patch(owner, attr: str, make_wrapper: Callable) -> None:
    original = getattr(owner, attr)
    _ORIGINALS.append((owner, attr, original))
    setattr(owner, attr, make_wrapper(original))


def _simple(name: str):
    def make(original):
        def wrapper(*args, **kwargs):
            if TRACER.paused:
                return original(*args, **kwargs)
            return TRACER.call(name, original, *args, **kwargs)

        return wrapper

    return make


def _read_hgr(original):
    def wrapper(*args, **kwargs):
        if TRACER.paused:
            return original(*args, **kwargs)
        hg = TRACER.call("hypergraph.read_hgr", original, *args, **kwargs)
        TRACER.counts["hypergraph.pins"] += sum(len(net) for net in hg.nets)
        return hg

    return wrapper


def _build_candidate(original):
    def wrapper(name, hg, cells, *args, **kwargs):
        if TRACER.paused:
            return original(name, hg, cells, *args, **kwargs)
        TRACER.counts["initial.cells_swept"] += len(cells)
        return TRACER.call(
            f"initial.{name}", original, name, hg, cells, *args, **kwargs
        )

    return wrapper


def _evaluate(original):
    def wrapper(self, *args, **kwargs):
        if TRACER.paused:
            return original(self, *args, **kwargs)
        # Candidate scoring inside create_bipartition belongs to the
        # constructive layer; every other full sweep to core.cost.
        layer = (
            "initial.evaluate"
            if TRACER.parent_name() == "initial.create_bipartition"
            else "cost.evaluate"
        )
        return TRACER.call(layer, original, self, *args, **kwargs)

    return wrapper


def install() -> None:
    """Wrap every traced public call (idempotent)."""
    if _ORIGINALS:
        return
    # ``repro.core`` re-exports the ``fpart`` function under the
    # submodule's name, so modules are looked up by their full name.
    fpart_module = importlib.import_module("repro.core.fpart")
    hgio = importlib.import_module("repro.hypergraph.io")
    initial_module = importlib.import_module("repro.initial.initial")
    from repro.core.cost import CostEvaluator
    from repro.partition.state import PartitionState
    from repro.sanchis.engine import SanchisEngine

    _patch(hgio, "read_hgr", _read_hgr)
    _patch(fpart_module.FpartPartitioner, "run", _simple("core.fpart_run"))
    _patch(
        fpart_module, "create_bipartition",
        _simple("initial.create_bipartition"),
    )
    _patch(initial_module, "build_candidate", _build_candidate)
    _patch(fpart_module, "improve", _simple("improve.improve"))
    _patch(SanchisEngine, "run_pass", _simple("sanchis.run_pass"))
    _patch(CostEvaluator, "evaluate", _evaluate)
    _patch(PartitionState, "restore", _simple("partition.restore"))


def install_serve(dump_dir: str, registry_factory: Callable) -> None:
    """Also route serve jobs through :func:`traced_partition_job`.

    The worker builds ``FpartPartitioner`` without a metrics registry;
    the name is re-bound in ``repro.serve.worker`` to a factory that
    passes one through the public ``metrics=`` parameter.
    """
    daemon_module = importlib.import_module("repro.serve.daemon")
    worker_module = importlib.import_module("repro.serve.worker")

    global _DUMP_DIR, _RUN_PARTITION_JOB, _REGISTRY_FACTORY
    install()
    _DUMP_DIR = dump_dir
    _REGISTRY_FACTORY = registry_factory
    _RUN_PARTITION_JOB = daemon_module.run_partition_job
    _patch(daemon_module, "run_partition_job", lambda _orig: traced_partition_job)

    def with_metrics(cls):
        def factory(*args, **kwargs):
            kwargs.setdefault("metrics", _REGISTRY)
            return cls(*args, **kwargs)

        return factory

    _patch(worker_module, "FpartPartitioner", with_metrics)


def uninstall() -> None:
    while _ORIGINALS:
        owner, attr, original = _ORIGINALS.pop()
        setattr(owner, attr, original)


_DUMP_DIR = ""
_RUN_PARTITION_JOB: Optional[Callable] = None
_REGISTRY_FACTORY: Optional[Callable] = None
_REGISTRY = None


def traced_partition_job(**kwargs):
    """Pool task while tracing: run the job, then dump its spans.

    Runs in a forked serve worker.  Each job starts from an empty span
    buffer and a zeroed registry, and appends one JSON line to
    ``worker-<pid>.jsonl`` in the dump directory.
    """
    global _REGISTRY
    TRACER.reset()
    _REGISTRY = _REGISTRY_FACTORY()
    try:
        return TRACER.call("serve.worker_job", _RUN_PARTITION_JOB, **kwargs)
    finally:
        record = {
            "job_id": kwargs.get("job_id"),
            "spans": TRACER.closed_spans(),
            "counts": dict(TRACER.counts),
            "counters": _REGISTRY.snapshot()["counters"],
        }
        path = os.path.join(_DUMP_DIR, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(record) + "\n")


def read_worker_dumps(dump_dir: str) -> List[Dict]:
    records: List[Dict] = []
    for name in sorted(os.listdir(dump_dir)):
        if name.startswith("worker-") and name.endswith(".jsonl"):
            with open(os.path.join(dump_dir, name), encoding="utf-8") as f:
                records.extend(json.loads(line) for line in f if line.strip())
    return records

"""Per-layer metrics of a traced run.

Times come from the spans ``tracing`` records around the wrapped public
calls; work counts from the program's own ``MetricsRegistry`` counters
(passed in through ``metrics=``) and from the counts the wrappers take.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from tracing import inclusive_times, self_times

#: (name, unit) of every per-layer metric the gated workloads report.
PER_LAYER = (
    ("hypergraph.parse_s", "s"),
    ("hypergraph.ns_per_pin", "ns"),
    ("initial.busy_s", "s"),
    ("initial.calls", "count"),
    ("initial.cells_swept", "count"),
    ("initial.ns_per_cell_swept", "ns"),
    ("initial.ratio_cut_s", "s"),
    ("initial.greedy_merge_s", "s"),
    ("initial.seed_grow_s", "s"),
    ("initial.evaluate_s", "s"),
    ("improve.busy_s", "s"),
    ("improve.calls", "count"),
    ("improve.stack_pops", "count"),
    ("sanchis.pass_s", "s"),
    ("sanchis.passes", "count"),
    ("sanchis.moves_tried", "count"),
    ("sanchis.heap_pushes", "count"),
    ("sanchis.ns_per_move", "ns"),
    ("sanchis.accept_ratio", "ratio"),
    ("cost.evaluate_s", "s"),
    ("cost.full_sweeps", "count"),
    ("partition.restore_s", "s"),
    ("partition.restores", "count"),
    ("fpart.driver_s", "s"),
    ("gate.check_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_frac", "ratio"),
)

#: The serve layer's metrics, reported by ``serve_small`` only.
SERVE_LAYER = (
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.attempt_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.dispatch_overhead_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.dedup_hit_ratio", "ratio"),
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


class LayerTotals:
    """Self/inclusive times and counts summed over span sets."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)

    def add(self, spans, counts: Dict, counters: Dict) -> None:
        spans = [tuple(s) for s in spans]
        for name, value in self_times(spans).items():
            self.self_s[name] += value
        for name, (total, calls) in inclusive_times(spans).items():
            self.incl[name][0] += total
            self.incl[name][1] += calls
        for name, value in counts.items():
            self.counts[name] += value
        for name, value in counters.items():
            self.counters[name] += value

    def busy(self, name: str) -> float:
        return self.incl[name][0] if name in self.incl else 0.0

    def calls(self, name: str) -> int:
        return int(self.incl[name][1]) if name in self.incl else 0

    def core_metrics(self) -> Dict[str, float]:
        parse_s = self.self_s.get("hypergraph.read_hgr", 0.0)
        builders = ("initial.ratio_cut", "initial.greedy_merge", "initial.seed_grow")
        builder_s = sum(self.busy(b) for b in builders)
        pass_s = self.busy("sanchis.run_pass")
        tried = self.counters.get("sanchis.moves_tried", 0)
        return {
            "hypergraph.parse_s": parse_s,
            "hypergraph.ns_per_pin": _ratio(
                parse_s, self.counts.get("hypergraph.pins", 0), 1e9
            ),
            "initial.busy_s": self.busy("initial.create_bipartition"),
            "initial.calls": self.calls("initial.create_bipartition"),
            "initial.cells_swept": self.counts.get("initial.cells_swept", 0),
            "initial.ns_per_cell_swept": _ratio(
                builder_s, self.counts.get("initial.cells_swept", 0), 1e9
            ),
            "initial.ratio_cut_s": self.busy("initial.ratio_cut"),
            "initial.greedy_merge_s": self.busy("initial.greedy_merge"),
            "initial.seed_grow_s": self.busy("initial.seed_grow"),
            "initial.evaluate_s": self.busy("initial.evaluate"),
            "improve.busy_s": self.busy("improve.improve"),
            "improve.calls": self.calls("improve.improve"),
            "improve.stack_pops": self.counters.get("stack.pops", 0),
            "sanchis.pass_s": pass_s,
            "sanchis.passes": self.counters.get("sanchis.passes", 0),
            "sanchis.moves_tried": tried,
            "sanchis.heap_pushes": self.counters.get("sanchis.heap_pushes", 0),
            "sanchis.ns_per_move": _ratio(pass_s, tried, 1e9),
            "sanchis.accept_ratio": _ratio(
                self.counters.get("sanchis.moves_accepted", 0), tried
            ),
            "cost.evaluate_s": self.busy("cost.evaluate"),
            "cost.full_sweeps": self.counters.get("cost.full_sweeps", 0),
            "partition.restore_s": self.busy("partition.restore"),
            "partition.restores": self.calls("partition.restore"),
            "fpart.driver_s": self.self_s.get("core.fpart_run", 0.0),
            "gate.check_s": self.busy("gate.check"),
        }

    def self_table(self) -> Dict[str, float]:
        return dict(sorted(self.self_s.items(), key=lambda kv: -kv[1]))


def batch_layers(spans, counts, counters, overhead_pct: float) -> Tuple[Dict, Dict]:
    """Per-layer metrics of a traced batch run, plus the self-time table.

    The traced wall is the sum of the ``bench.circuit`` root spans (file
    to validated assignment); what no named layer covers is the root's
    own self time.
    """
    totals = LayerTotals()
    totals.add(spans, counts, counters)
    roots = [s for s in spans if s[3] == -1 and s[0] == "bench.circuit"]
    wall = sum(end - start for _n, start, end, _p in roots)
    unattributed = totals.self_s.get("bench.circuit", 0.0)
    metrics = totals.core_metrics()
    metrics["trace.overhead_pct"] = overhead_pct
    metrics["trace.attributed_frac"] = _ratio(wall - unattributed, wall)
    return metrics, totals.self_table()


def _union_within(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def serve_layers(
    records: List[Dict],
    results: Dict[str, Dict],
    events: List[Dict],
    worker_dumps: List[Dict],
    submit_spans,
    overhead_pct: float,
) -> Tuple[Dict, Dict]:
    """Per-layer metrics of a traced serve run.

    Service-side intervals (queued wait, attempts) come from the
    service's own ``spans.jsonl``; in-worker layers from the forked
    workers' span dumps.  The traced wall is the sum of client latencies;
    the attributed part is what the submit call, the queued spans and
    the attempt spans of each submission's job cover.
    """
    starts: Dict[str, Dict] = {}
    ends: Dict[str, Dict] = {}
    for event in events:
        if event.get("event") == "span_start":
            starts[event["span_id"]] = event
        elif event.get("event") == "span_end":
            ends[event["span_id"]] = event
    queued: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    attempts: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span_id, start in starts.items():
        end = ends.get(span_id)
        job_id = start.get("job_id")
        if end is None or not job_id:
            continue
        interval = (start["t"], end["t"])
        if start["name"] == "queued":
            queued[job_id].append(interval)
        elif start["name"].startswith("attempt["):
            attempts[job_id].append(interval)

    wall = attributed = 0.0
    for rec in records:
        lo, hi = rec["t0"], rec["t1"]
        wall += hi - lo
        job_id = rec.get("job_id", "")
        covered = [(lo, rec["t_submitted"])]
        covered += queued.get(job_id, []) + attempts.get(job_id, [])
        attributed += _union_within(covered, lo, hi)

    attempt_s, run_s, overhead_s = [], [], []
    for job_id, intervals in attempts.items():
        for start, end in intervals:
            attempt_s.append(end - start)
        ran = results.get(job_id, {}).get("wall_seconds")
        if ran is not None and intervals:
            run_s.append(ran)
            overhead_s.append((intervals[-1][1] - intervals[-1][0]) - ran)
    queue_s = [end - start for ivs in queued.values() for start, end in ivs]

    totals = LayerTotals()
    for dump in worker_dumps:
        totals.add(dump["spans"], dump["counts"], dump["counters"])
    metrics = totals.core_metrics()
    metrics.update(
        {
            "serve.submit_ms": _median_ms([e - s for _n, s, e, _p in submit_spans]),
            "serve.queue_wait_ms": _median_ms(queue_s),
            "serve.attempt_ms": _median_ms(attempt_s),
            "serve.run_ms": _median_ms(run_s),
            "serve.dispatch_overhead_ms": _median_ms(overhead_s),
            "serve.result_ms": _median_ms(
                [r["result_s"] for r in records if "result_s" in r]
            ),
            "serve.dedup_hit_ratio": _ratio(
                sum(1 for r in records if r.get("dedup")), len(records)
            ),
            "trace.overhead_pct": overhead_pct,
            "trace.attributed_frac": _ratio(attributed, wall),
        }
    )
    return metrics, totals.self_table()

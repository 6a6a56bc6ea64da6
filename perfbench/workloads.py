"""The benchmark's three workloads and the metrics computed from them.

Every workload reports the same end-to-end metrics (see ``METRICS`` in
``run.py``); how each is measured is stated on the workload.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import shutil
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import repro.hypergraph.io as hgio
from repro.circuits import generate_circuit, mcnc_circuit
from repro.circuits.mcnc import MCNC_NAMES
from repro.core.config import DEFAULT_CONFIG, FpartConfig
from repro.core.device import device_by_name
from repro.core.fpart import FpartPartitioner
from repro.obs.spans import read_span_log
from repro.serve import TERMINAL_STATES, PartitionService, ServiceConfig
from repro.serve.worker import job_config

import gate
from probe import cpu_factor, probe_seconds, probes, wall_factor
from tracing import TRACER

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


# -- statistics ---------------------------------------------------------------


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile
    with at least ten samples beyond it; the maximum when there are too
    few samples for that."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- batch workloads ----------------------------------------------------------


class Sample:
    """One try of one circuit: wall and CPU seconds, and the
    ``((wall, cpu), (wall, cpu))`` probes taken right before and after."""

    __slots__ = ("label", "cells", "seconds", "cpu", "devices", "problems", "probes")

    def __init__(self, label, cells, seconds, cpu, devices, problems, probes):
        self.label = label
        self.cells = cells
        self.seconds = seconds
        self.cpu = cpu
        self.devices = devices
        self.problems = problems
        self.probes = probes

    def reference_seconds(self) -> float:
        # A batch try is single-threaded and waits on nothing, so its CPU
        # time is its wall time minus what the host took away; scaling it
        # by the CPU time of the probes next to it removes the host's
        # speed phases as well.
        return self.cpu * cpu_factor(self.probes)


class BatchWorkload:
    """A fixed set of netlist files, each timed from ``read_hgr`` to an
    assignment that passed the correctness gate.

    One round partitions every circuit once.  A run makes a fixed number
    of rounds, so every run takes the best of the same number of tries.
    The probes that convert each try to reference seconds run outside
    its timed window (and outside its trace span).
    """

    def __init__(self, name, device_name, config, circuits, rounds):
        self.name = name
        self.rounds = rounds
        self.device = device_by_name(device_name)
        self.config = config
        #: ``[(label, hypergraph factory)]``
        self.circuits = circuits
        self.files: List[Tuple[str, Path, int]] = []

    def teardown(self) -> None:
        pass

    def setup(self, work: Path) -> None:
        files = []
        for label, make in self.circuits:
            hg = make()
            path = work / f"{label.replace('/', '_')}.hgr"
            hgio.write_hgr(hg, path)
            files.append((label, path, hg.num_cells))
        self.files = files

    def solve(self, path, registry, traced):
        """The timed window: ``read_hgr`` to a gated assignment."""
        hg = hgio.read_hgr(path)
        result = FpartPartitioner(
            hg, self.device, self.config, keep_trace=False, metrics=registry
        ).run()
        if not traced:
            return result, gate.check_result(hg, self.device, self.config, result)
        TRACER.paused = True
        try:
            problems = TRACER.call(
                "gate.check", gate.check_result,
                hg, self.device, self.config, result,
            )
        finally:
            TRACER.paused = False
        return result, problems

    def one(self, label, path, cells, registry, traced) -> Sample:
        before = probe_seconds()
        wall, cpu = time.perf_counter(), time.process_time()
        if traced:
            result, problems = TRACER.call(
                "bench.circuit", self.solve, path, registry, True
            )
        else:
            result, problems = self.solve(path, registry, False)
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
        return Sample(
            label, cells, wall, cpu, result.num_devices, problems,
            (before, probe_seconds()),
        )

    def measure(self, rounds: int, registry, traced: bool = False):
        """``rounds`` rounds of every circuit, round-robin."""
        return [
            [
                self.one(label, path, cells, registry, traced)
                for label, path, cells in self.files
            ]
            for _ in range(rounds)
        ]

    @staticmethod
    def summarize(rounds: List[List[Sample]]) -> Dict:
        samples = [s for r in rounds for s in r]
        times: Dict[str, List[float]] = defaultdict(list)
        devices: Dict[str, set] = defaultdict(set)
        cells: Dict[str, int] = {}
        failures = []
        ref_times: Dict[str, List[float]] = defaultdict(list)
        for s in samples:
            times[s.label].append(s.seconds)
            ref_times[s.label].append(s.reference_seconds())
            devices[s.label].add(s.devices)
            cells[s.label] = s.cells
            failures.extend(f"{s.label}: {p}" for p in s.problems)
        for label, seen in devices.items():
            if len(seen) > 1:
                failures.append(f"{label}: device count varies {sorted(seen)}")
        # Each circuit's time is its best try in reference seconds.
        # One latency per circuit keeps the sample count, and with it
        # the tail percentile, fixed.
        best = {label: min(t) for label, t in ref_times.items()}
        latencies = [b * 1000.0 for b in best.values()]
        tail_ms, tail_pct, beyond = tail(latencies)
        labels = list(best)
        raw_best = {label: min(t) for label, t in times.items()}
        raw_latencies = [b * 1000.0 for b in raw_best.values()]
        return {
            "wall_s": sum(best.values()),
            "wall_exponent": slope(
                [cells[l] for l in labels], [best[l] for l in labels]
            ),
            "devices_total": sum(min(devices[l]) for l in labels),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms,
            "jobs_per_s": len(labels) / sum(best.values()),
            "attempted": len(samples),
            "failed": sum(1 for s in samples if s.problems)
            + sum(1 for seen in devices.values() if len(seen) > 1),
            "failures": failures,
            "tail_percentile": tail_pct,
            "tail_samples_beyond": beyond,
            "samples": len(latencies),
            "rounds": len(rounds),
            "probe_s": [p for s in samples for p in s.probes],
            "raw": {
                "wall_s": sum(raw_best.values()),
                "latency_p50_ms": statistics.median(raw_latencies),
                "latency_tail_ms": tail(raw_latencies)[0],
                "jobs_per_s": len(labels) / sum(raw_best.values()),
            },
            "per_circuit": {
                l: {
                    "cells": cells[l],
                    "devices": min(devices[l]),
                    "best_ref_s": best[l],
                    "raw_s": times[l],
                    "ref_s": ref_times[l],
                }
                for l in labels
            },
        }


def mcnc_xc3020(seed: int, smoke: bool) -> BatchWorkload:
    """Table 2: the ten Table-1 stand-ins on XC3020, canonical seed 0.

    The circuits are fixed by the paper; ``seed`` does not change them.
    """
    names = ("c3540", "s5378") if smoke else MCNC_NAMES
    return BatchWorkload(
        "mcnc_xc3020",
        "XC3020",
        DEFAULT_CONFIG,
        [(n, lambda n=n: mcnc_circuit(n, "XC3000")) for n in names],
        rounds=1,
    )


#: (cells, instances) per rung.  The 8k rung is left out, and the 4k
#: rung has one instance, so that two rounds stay well inside the run
#: length; two instances of the small rungs average out part of how
#: much one generated circuit's run time varies.
LADDER_RUNGS = ((1000, 2), (2000, 2), (4000, 1))
LADDER_RUNGS_SMOKE = ((200, 1), (400, 1))


def gen_ladder(seed: int, smoke: bool) -> BatchWorkload:
    """Generated circuits past the 842-cell MCNC ceiling on XC3042.

    ``FpartConfig(seed=1)`` makes this the one workload that runs the
    seeded ``seed_grow`` builder; the generator seeds come from ``seed``.
    """
    circuits = []
    for cells, count in LADDER_RUNGS_SMOKE if smoke else LADDER_RUNGS:
        for i in range(count):
            gen_seed = seed * 1_000_003 + cells * 16 + i
            circuits.append(
                (
                    f"gen{cells}_{i}",
                    lambda c=cells, s=gen_seed: generate_circuit(
                        f"ladder{c}", c, max(10, c // 20), seed=s
                    ),
                )
            )
    # Two rounds: a generated circuit's time varies more from try to try
    # than the fixed MCNC set's does.
    return BatchWorkload(
        "gen_ladder", "XC3042", FpartConfig(seed=1), circuits, rounds=2
    )


# -- serve workload -------------------------------------------------------------

SERVE_DEVICE = "XC3042"
#: Named explicitly: ``JobSpec.delta`` defaults to 0.1, unlike the CLI's
#: catalog 0.9, and a later fix of that default must not move the
#: numbers measured here.
SERVE_DELTA = 0.9
SERVE_JOBS = 2
SERVE_CLIENTS = 2
#: A submission not terminal this long after it was sent is cancelled
#: and counted as failed; it is never retried.
SERVE_DEADLINE_S = 10.0
SERVE_POLL_S = 0.002
#: Submissions per chunk (about 2.5 s at this commit), and probes on
#: each side of a chunk.
SERVE_CHUNK = 32
SERVE_PROBES = 6
#: wall_s, wall_exponent and devices_total are taken over the first
#: this many distinct specs of the stream, so they do not depend on how
#: many jobs a run gets through.
SERVE_FIXED_SPECS = 96
#: Spec k has ``lo + (hi - lo) * frac(k * golden ratio)`` cells, so any
#: prefix of the stream spreads evenly over the range whatever the seed;
#: the seed changes the circuits' structure and which specs repeat.
SERVE_CELLS = (150, 450)
SERVE_CELLS_SMOKE = (60, 120)


class ServeWorkload:
    """An in-process ``PartitionService`` (``jobs=2``) under a closed
    loop of two clients.

    The seeded stream holds generated netlists of 150-450 cells; every
    fourth submission repeats an earlier spec, so it is a dedup hit.
    """

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        unique = 12 if smoke else 192
        self.specs = []
        for k in range(unique):
            lo, hi = SERVE_CELLS_SMOKE if smoke else SERVE_CELLS
            cells = lo + int((hi - lo) * ((k * 0.6180339887498949) % 1.0))
            self.specs.append((k, cells, rng.getrandbits(32)))
        # Stream of spec indexes; every fourth repeats an earlier spec.
        self.stream: List[Tuple[int, bool]] = []
        fresh = 0
        while fresh < unique:
            if len(self.stream) % 4 == 3:
                self.stream.append((rng.randrange(fresh), True))
            else:
                self.stream.append((fresh, False))
                fresh += 1
        self.fixed = min(SERVE_FIXED_SPECS, unique // 2)
        self.paths: List[Path] = []
        self.service: Optional[PartitionService] = None
        self.work: Optional[Path] = None
        self._services = 0

    def payload(self, k: int) -> Dict:
        return {
            "netlist": str(self.paths[k]),
            "device": SERVE_DEVICE,
            "delta": SERVE_DELTA,
            "config": {},
            "label": f"spec{k}",
        }

    def setup(self, work: Path) -> None:
        self.work = work
        self.paths = []
        for k, cells, gen_seed in self.specs:
            hg = generate_circuit(
                f"serve{k}", cells, max(16, cells // 8), seed=gen_seed
            )
            path = work / f"spec{k}.hgr"
            hgio.write_hgr(hg, path)
            self.paths.append(path)
        self.service = self.start_service()

    def start_service(self) -> PartitionService:
        self._services += 1
        state = self.work / f"state{self._services}"
        shutil.rmtree(state, ignore_errors=True)
        service = PartitionService(
            ServiceConfig(state_dir=str(state), jobs=SERVE_JOBS)
        ).start()
        # The pool forks its workers on demand.  Two warm-up jobs, sent
        # before any client thread exists, bring both up inside set-up.
        warm = []
        for w in range(SERVE_JOBS):
            path = self.work / f"warmup{w}.hgr"
            if not path.exists():
                hgio.write_hgr(
                    generate_circuit(f"warmup{w}", 40, 8, seed=w), path
                )
            response = service.submit(
                {"netlist": str(path), "device": SERVE_DEVICE,
                 "delta": SERVE_DELTA}
            )
            warm.append(response["job"]["job_id"])
        deadline = time.monotonic() + SERVE_DEADLINE_S
        while not all(
            service.job(j)["job"]["state"] in TERMINAL_STATES for j in warm
        ):
            if time.monotonic() > deadline:
                service.close()
                raise RuntimeError("serve warm-up jobs did not finish")
            time.sleep(SERVE_POLL_S)
        return service

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def measure(self, seconds: float, traced: bool = False) -> Dict:
        service = self.service
        self.state_dir = service.state_dir
        records: List[Dict] = []
        results: Dict[str, Dict] = {}
        lock = threading.Lock()
        cursor = [0]

        def submit(i: int) -> Dict:
            k, repeat = self.stream[i]
            rec = {"index": i, "spec": k, "repeat": repeat}
            rec["t0"] = time.time()
            p0 = time.perf_counter()
            if traced:
                response = TRACER.call(
                    "serve.submit", service.submit, self.payload(k)
                )
            else:
                response = service.submit(self.payload(k))
            rec["t_submitted"] = time.time()
            state = f"rejected {response['status']}"
            if response["status"] in (200, 201):
                job_id = response["job"]["job_id"]
                rec["job_id"] = job_id
                rec["dedup"] = response.get("dedup")
                state = response["job"]["state"]
                deadline = p0 + SERVE_DEADLINE_S
                while state not in TERMINAL_STATES:
                    if time.perf_counter() > deadline:
                        service.cancel(job_id)
                        state = "missed its deadline"
                        break
                    time.sleep(SERVE_POLL_S)
                    state = service.job(job_id)["job"]["state"]
            rec["latency_s"] = time.perf_counter() - p0
            rec["t1"] = time.time()
            rec["state"] = state
            if state == "done":
                with lock:
                    fetch = job_id not in results
                    if fetch:
                        results[job_id] = {}
                if fetch:
                    r0 = time.perf_counter()
                    got = service.result(job_id)
                    rec["result_s"] = time.perf_counter() - r0
                    results[job_id] = got.get("result") or {}
            return rec

        def client(end: int) -> None:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= end:
                        return
                    cursor[0] += 1
                try:
                    rec = submit(i)
                except Exception as error:  # noqa: BLE001 - counted, not lost
                    rec = {
                        "index": i, "spec": self.stream[i][0],
                        "repeat": self.stream[i][1], "latency_s": 0.0,
                        "t0": time.time(), "t1": time.time(),
                        "t_submitted": time.time(),
                        "state": f"client error {type(error).__name__}: {error}",
                    }
                with lock:
                    records.append(rec)

        # The stream goes through in chunks.  Between chunks the service
        # is idle and the host-speed probe runs, so the service's own
        # load cannot move the probe, and each chunk is scaled by the
        # probes right before and after it.
        chunks = []
        started = time.perf_counter()
        while cursor[0] < len(self.stream) and (
            time.perf_counter() - started < seconds
        ):
            first = cursor[0]
            end = min(first + SERVE_CHUNK, len(self.stream))
            before = probes(SERVE_PROBES)
            threads = [
                threading.Thread(target=client, args=(end,), name=f"client{c}")
                for c in range(SERVE_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            chunks.append((first, end, before + probes(SERVE_PROBES)))
        self.teardown()
        records.sort(key=lambda r: r["index"])
        for first, end, chunk_probes in chunks:
            factor = wall_factor(chunk_probes)
            for rec in records[first:end]:
                rec["factor"] = factor
        return {"records": records, "results": results, "chunks": chunks}

    def summarize(self, run: Dict) -> Dict:
        records, results = run["records"], run["results"]
        failures = []
        for rec in records:
            if rec["state"] != "done":
                failures.append(f"submission {rec['index']}: {rec['state']}")
        # Latencies in reference seconds: each scaled by its chunk's probes.
        latencies = [r["latency_s"] * r["factor"] * 1000.0 for r in records]
        raw_latencies = [r["latency_s"] * 1000.0 for r in records]
        tail_ms, tail_pct, beyond = tail(latencies)
        spans = []
        for first, end, chunk_probes in run["chunks"]:
            chunk = records[first:end]
            spans.append(
                (
                    max(r["t1"] for r in chunk) - min(r["t0"] for r in chunk),
                    wall_factor(chunk_probes),
                )
            )
        done = sum(1 for r in records if r["state"] == "done")
        # Too few distinct specs done (a slow program) is not a failure:
        # the fixed-set metrics then cover the ones that were.
        firsts = [
            r for r in records if not r["repeat"] and r["state"] == "done"
        ][: self.fixed]
        cells = [self.specs[r["spec"]][1] for r in firsts]
        devices = [
            results.get(r.get("job_id"), {}).get("num_devices") or 0
            for r in firsts
        ]
        first_latencies = [r["latency_s"] * r["factor"] for r in firsts]
        raw = {
            "wall_s": sum(r["latency_s"] for r in firsts),
            "latency_p50_ms": statistics.median(raw_latencies),
            "latency_tail_ms": tail(raw_latencies)[0],
            "jobs_per_s": done / sum(span for span, _ in spans),
        }
        return {
            "wall_s": sum(first_latencies),
            "wall_exponent": slope(cells, first_latencies)
            if len(firsts) > 1
            else 0.0,
            "devices_total": sum(devices),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms,
            "jobs_per_s": done / sum(span * f for span, f in spans),
            "raw": raw,
            "attempted": len(records),
            "failed": sum(1 for r in records if r["state"] != "done"),
            "failures": failures,
            "tail_percentile": tail_pct,
            "tail_samples_beyond": beyond,
            "samples": len(records),
            "fixed_specs": len(firsts),
            "probe_s": [p for _, _, ps in run["chunks"] for p in ps],
            "latency_mean_s": statistics.fmean(latencies) / 1000.0,
            "dedup_hits": sum(1 for r in records if r.get("dedup")),
            "distinct_specs": len(results),
        }

    def verify(self, run: Dict, summary: Dict) -> None:
        """Gate every served result and compare it with an in-process
        run of the same spec (two worker processes)."""
        records, results = run["records"], run["results"]
        jobs = {}
        for rec in records:
            job_id = rec.get("job_id")
            if rec["state"] == "done" and job_id not in jobs:
                jobs[job_id] = (rec["spec"], results.get(job_id, {}))
        tasks = [
            (str(self.paths[k]), served) for k, served in jobs.values()
        ]
        ctx = multiprocessing.get_context("spawn")
        pool = ctx.Pool(2)
        try:
            outcomes = pool.map(_reference_check, tasks, chunksize=4)
        finally:
            pool.close()
            pool.join()
        bad = set()
        for job_id, problems in zip(jobs, outcomes):
            if problems:
                bad.add(job_id)
                summary["failures"].extend(f"job {job_id}: {p}" for p in problems)
        summary["failed"] += sum(
            1 for r in records if r["state"] == "done" and r.get("job_id") in bad
        )

    def service_spans(self) -> List[Dict]:
        """Span events the last measured service logged."""
        return read_span_log(self.state_dir / "spans.jsonl")


def _reference_check(task) -> List[str]:
    """Gate one served result and rerun its spec in this process."""
    path, served = task
    hg = hgio.read_hgr(path)
    device = device_by_name(SERVE_DEVICE).with_delta(SERVE_DELTA)
    config = job_config({})
    problems = gate.check(
        hg,
        device,
        config,
        served.get("status", "missing"),
        served.get("assignment"),
        served.get("num_devices", -1),
        served.get("cost"),
    )
    reference = FpartPartitioner(hg, device, config, keep_trace=False).run()
    if list(reference.assignment) != list(served.get("assignment") or []):
        problems.append("assignment differs from an in-process run")
    return problems


WORKLOADS = {
    "mcnc_xc3020": mcnc_xc3020,
    "gen_ladder": gen_ladder,
    "serve_small": ServeWorkload,
}

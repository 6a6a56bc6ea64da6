"""FPART benchmark: one workload, one run, one JSON line of results.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mcnc_xc3020 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: two
rounds of a batch workload, or ``--seconds`` of serve traffic.
``--trace 1`` runs the workload twice, untraced then traced (one round,
or half the seconds, each), and reports the per-layer metrics, the
tracing overhead and how much of the traced wall the named layers
account for.

Every result passes the correctness gate (``gate.py``) or counts as
failed; any failure makes the command exit 1.  The last line of stdout
is ``{"correct", "attempted", "failed", "metrics"}``; a fuller record is
written to ``perfbench/out/``.  ``--smoke`` shrinks every workload to
its smallest size (used by ``selftest.py``).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("wall_exponent", "1"),
    ("devices_total", "devices"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (the import is part of set-up)
    import layers
    import tracing
    from repro.obs.metrics import NULL_METRICS, MetricsRegistry
    from tracing import TRACER
    from probe import wall_factor
    from workloads import SETUP_REPEATS, WORKLOADS, peak_rss_mb

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    out = HERE / "out"
    work = out / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    serve = args.workload == "serve_small"
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        start = time.perf_counter()
        workload.setup(work)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    def measure(seconds, rounds=None, traced=False, registry=NULL_METRICS):
        if serve:
            run = workload.measure(seconds, traced=traced)
            summary = workload.summarize(run)
            summary["peak_rss_mb"] = peak_rss_mb()
            workload.verify(run, summary)
            return run, summary
        rounds = workload.measure(rounds or workload.rounds, registry, traced=traced)
        summary = workload.summarize(rounds)
        summary["peak_rss_mb"] = peak_rss_mb()
        return rounds, summary

    try:
        if not args.trace:
            _run, summary = measure(args.seconds)
            factor = wall_factor(summary["probe_s"])
            metrics = {name: summary[name] for name, _ in END_TO_END if name in summary}
            metrics["setup_s"] = setup_s * factor
            raw = dict(summary["raw"], setup_s=setup_s)
            units = END_TO_END
            extra = {"raw": raw, "reference_factor": factor}
        else:
            half = args.seconds / 2.0
            _run, plain = measure(half, 1)
            TRACER.reset()
            registry = MetricsRegistry()
            if serve:
                tracing.install_serve(str(work), MetricsRegistry)
                workload.service = workload.start_service()
            else:
                tracing.install()
            try:
                run, summary = measure(half, 1, traced=True, registry=registry)
            finally:
                tracing.uninstall()
            # Batch phases time the same circuits; serve phases may get
            # through different numbers of jobs, so compare mean latency.
            key = "latency_mean_s" if serve else "wall_s"
            overhead = (summary[key] / plain[key] - 1.0) * 100.0
            if serve:
                job_ids = {r.get("job_id") for r in run["records"]}
                metrics, table = layers.serve_layers(
                    run["records"],
                    run["results"],
                    workload.service_spans(),
                    [
                        dump
                        for dump in tracing.read_worker_dumps(str(work))
                        if dump["job_id"] in job_ids
                    ],
                    [s for s in TRACER.closed_spans() if s[0] == "serve.submit"],
                    overhead,
                )
            else:
                metrics, table = layers.batch_layers(
                    TRACER.closed_spans(),
                    TRACER.counts,
                    registry.snapshot()["counters"],
                    overhead,
                )
            summary["failed"] += plain["failed"]
            summary["attempted"] += plain["attempted"]
            summary["failures"] = plain["failures"] + summary["failures"]
            units = layers.PER_LAYER + (layers.SERVE_LAYER if serve else ())
            extra = {"self_seconds": table, "untraced": plain}
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)

    failed = min(summary["failed"], summary["attempted"])
    correct = failed == 0 and not summary["failures"]
    unit_of = dict(units)
    report = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit_of[name]}
            for name, _ in units
        },
    }

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, unit in units:
        line = f"  {name:32s} {metrics[name]:>14.6g} {unit}"
        if name in extra.get("raw", {}) and extra["raw"][name] != metrics[name]:
            line += f"  (raw {extra['raw'][name]:.6g})"
        print(line)
    if "reference_factor" in extra:
        print(
            f"  run's median probe: reference wall seconds = raw x "
            f"{extra['reference_factor']:.4f}"
        )
    print(
        f"  tail = p{summary['tail_percentile']:.2f} "
        f"({summary['tail_samples_beyond']} of {summary['samples']} "
        f"samples beyond)"
    )
    print(
        f"  failed_frac = {failed}/{summary['attempted']} = "
        f"{failed / summary['attempted']:.4f}"
    )
    if args.trace:
        print("  self seconds per layer:")
        for name, seconds in extra["self_seconds"].items():
            print(f"    {name:30s} {seconds:10.4f}")
    for failure in summary["failures"][:20]:
        print(f"  FAILED {failure}")

    record = dict(report, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, smoke=args.smoke,
                  summary=summary, **extra)
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks, each workload at its smallest size (``--smoke``):

* the last stdout line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and the metrics are exactly the ones
  ``BENCHMARK.json`` lists for the mode, with the same units;
* the correctness gate passes real results and trips on corrupted ones;
* without the program's sources the command fails without a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = list(SPEC["command"]) + [
        "--workload", workload, "--seed", "7", "--seconds", "2",
        "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(
        cmd, cwd=cwd, capture_output=True, text=True, timeout=170
    )


#: Runnable but not in ``BENCHMARK.json`` (see NOTES.md); its traced run
#: adds the serve layer's metrics to the gated per-layer set.
UNGATED = {"serve_small": "serve."}


def check_schema() -> None:
    for workload in [w["name"] for w in SPEC["workloads"]] + list(UNGATED):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exits 0")
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                expect(False, f"{label} ends with a JSON line")
                continue
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{label} result keys",
            )
            expect(result["correct"] is True, f"{label} correct")
            expect(
                isinstance(result["attempted"], int) and result["attempted"] >= 1,
                f"{label} attempted >= 1",
            )
            expect(result["failed"] == 0, f"{label} failed == 0")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {
                name: entry.get("unit")
                for name, entry in result["metrics"].items()
                if not (trace and workload in UNGATED
                        and name.startswith(UNGATED[workload]))
            }
            expect(got == want, f"{label} metric names and units")
            expect(
                all(
                    isinstance(entry["value"], (int, float))
                    for entry in result["metrics"].values()
                ),
                f"{label} metric values are numbers",
            )


def check_gate() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gate
    from repro import XC3042, fpart, generate_circuit
    from repro.core.config import DEFAULT_CONFIG

    hg = generate_circuit("selftest", 400, 40, seed=3)
    result = fpart(hg, XC3042)
    expect(
        gate.check_result(hg, XC3042, DEFAULT_CONFIG, result) == [],
        "gate passes a real result",
    )

    moved = list(result.assignment)
    cell = next(c for c, b in enumerate(moved) if b == 0)
    moved[cell] = 1
    result.assignment = moved
    expect(
        gate.check_result(hg, XC3042, DEFAULT_CONFIG, result) != [],
        "gate trips on an assignment with one cell moved",
    )

    result.assignment = [0] * hg.num_cells
    expect(
        gate.check_result(hg, XC3042, DEFAULT_CONFIG, result) != [],
        "gate trips on an all-in-one-block assignment",
    )

    served = {
        "status": "feasible",
        "assignment": list(fpart(hg, XC3042).assignment),
        "num_devices": result.num_devices,
        "cost": {"f": 0, "d_k": 0.0, "t_sum": 0, "d_k_e": 0.0, "cut": 0},
    }
    expect(
        gate.check(hg, XC3042, DEFAULT_CONFIG, **served) != [],
        "gate trips on a wrong reported cost",
    )


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(
        proc.returncode != 0 and not last.startswith("{"),
        "without the program's sources: non-zero exit and no result",
    )
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_gate()
    check_bare_directory()
    check_schema()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

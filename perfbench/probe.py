"""A fixed pure-Python probe of how fast the host runs right now.

The benchmark's host runs in phases.  In some, the same work on the
same input takes up to about 45% more CPU time for tens of seconds at a
time, and a tight loop slows with it.  In others the vCPU is taken away
(wall time grows, CPU time does not).  Both come from the host, not the
program, so every timing the benchmark reports is in *reference
seconds*: a time scaled by ``PROBE_REF_S`` over the probe time measured
next to it on the same clock.  The probe allocates nothing that outlives
it and calls no program code, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence, Tuple

#: Iterations of the probe loop: about 17 ms on the 2.1 GHz vCPUs the
#: benchmark was defined on.
PROBE_ITERATIONS = 150_000
#: The probe time that defines a reference second.
PROBE_REF_S = 0.017


def probe_seconds() -> Tuple[float, float]:
    """(wall, CPU) seconds of one probe."""
    table = list(range(64))
    acc = 0
    wall, cpu = time.perf_counter(), time.process_time()
    for i in range(PROBE_ITERATIONS):
        acc = (acc + table[i & 63] * i) & 0xFFFF
    return time.perf_counter() - wall, time.process_time() - cpu


def probes(count: int) -> List[Tuple[float, float]]:
    return [probe_seconds() for _ in range(count)]


def wall_factor(probe_times: Sequence[Tuple[float, float]]) -> float:
    """Factor that turns raw wall seconds into reference seconds."""
    return PROBE_REF_S / statistics.median(wall for wall, _ in probe_times)


def cpu_factor(probe_times: Sequence[Tuple[float, float]]) -> float:
    """Factor that turns CPU seconds into reference seconds."""
    return PROBE_REF_S / statistics.median(cpu for _, cpu in probe_times)

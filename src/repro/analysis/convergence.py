"""Convergence traces of an FPART run.

Turns the per-``Improve()`` trace of :class:`FpartResult` into series a
report can plot: the infeasibility distance and the remainder pressure
over the run, plus a terminal sparkline rendering.  This is the
"how does the search approach the feasible region" view that motivates
the paper's future-work early-abort idea.

The second half of the module consumes the JSONL trace stream written
by :class:`~repro.obs.trace.TraceWriter` instead of an in-memory
result: :func:`convergence_from_trace` extracts one point per engine
pass (the paper's lexicographic tuple ``(f, d_k, T_SUM, d_k^E)`` at
pass entry, closed by the run's final cost),
:func:`render_pass_table` renders it as the deterministic per-pass
convergence table behind ``fpart report --trace`` (closed by a count of
the ``improve_skip`` events: engine work left out because its outcome
was already known), and
:func:`render_convergence_svg` draws a dependency-free SVG plot of the
distance series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..core import FpartResult

__all__ = [
    "ConvergencePoint",
    "convergence_series",
    "sparkline",
    "render_convergence",
    "TracePassPoint",
    "convergence_from_trace",
    "render_pass_table",
    "render_convergence_svg",
]

_TICKS = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class ConvergencePoint:
    """State after one Improve() call."""

    index: int
    iteration: int
    label: str
    distance: float
    feasible_blocks: int
    total_pins: int


def convergence_series(result: FpartResult) -> List[ConvergencePoint]:
    """One point per Improve() call, in execution order."""
    series = []
    for index, entry in enumerate(result.trace):
        series.append(
            ConvergencePoint(
                index=index,
                iteration=entry.iteration,
                label=entry.label,
                distance=entry.cost_after.distance,
                feasible_blocks=entry.cost_after.feasible_blocks,
                total_pins=entry.cost_after.total_pins,
            )
        )
    return series


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of a series (empty string for no data)."""
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return _TICKS[0] * len(values)
    span = hi - lo
    return "".join(
        _TICKS[min(len(_TICKS) - 1, int((v - lo) / span * len(_TICKS)))]
        for v in values
    )


def render_convergence(result: FpartResult) -> str:
    """Text report: distance sparkline plus per-iteration milestones."""
    series = convergence_series(result)
    if not series:
        return "no trace recorded"
    distances = [p.distance for p in series]
    lines = [
        f"Convergence of {result.circuit} on {result.device} "
        f"({len(series)} improvement calls, "
        f"{result.iterations} iterations):",
        f"  d_k: {sparkline(distances)}  "
        f"[{max(distances):.3f} .. {min(distances):.3f}]",
    ]
    last_iteration = None
    for point in series:
        if point.iteration != last_iteration:
            last_iteration = point.iteration
            lines.append(
                f"  iter {point.iteration:2d}: d={point.distance:7.3f} "
                f"feasible={point.feasible_blocks:2d} "
                f"T_SUM={point.total_pins}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Trace-stream consumers (fpart report --trace)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TracePassPoint:
    """One engine pass of a traced run, in stream order.

    ``kind`` is ``"pass"`` for ``pass_start`` events (cost at pass
    entry) and ``"final"`` for the closing ``run_end`` cost.
    """

    index: int
    kind: str
    blocks: int
    f: int
    d_k: float
    t_sum: int
    d_k_e: float


def _cost_point(
    index: int, kind: str, blocks: int, cost: dict
) -> TracePassPoint:
    return TracePassPoint(
        index=index,
        kind=kind,
        blocks=blocks,
        f=int(cost["f"]),
        d_k=float(cost["d_k"]),
        t_sum=int(cost["t_sum"]),
        d_k_e=float(cost["d_k_e"]),
    )


def convergence_from_trace(events: Iterable[dict]) -> List[TracePassPoint]:
    """Per-pass cost series of a JSONL trace (see ``repro.obs.trace``).

    One point per ``pass_start`` event in stream order, closed by the
    ``run_end`` cost when the trace has one.  Events without a cost
    payload (e.g. a faulted run's ``run_end``) are skipped.
    """
    points: List[TracePassPoint] = []
    final: Optional[TracePassPoint] = None
    for event in events:
        kind = event.get("event")
        cost = event.get("cost")
        if not isinstance(cost, dict):
            continue
        if kind == "pass_start":
            blocks = event.get("blocks")
            points.append(
                _cost_point(
                    len(points),
                    "pass",
                    len(blocks) if isinstance(blocks, list) else 0,
                    cost,
                )
            )
        elif kind == "run_end":
            final = _cost_point(
                len(points), "final", int(event.get("num_devices", 0)), cost
            )
    if final is not None:
        points.append(final)
    return points


def render_pass_table(events: Iterable[dict]) -> str:
    """Deterministic per-pass convergence table of a traced run.

    Columns are the paper's lexicographic tuple; the last row is the
    run's final cost.  Floats are rendered with fixed precision so the
    same trace always produces byte-identical output.  A trace with
    ``improve_skip`` events gets one more line counting them per reason
    with the passes they avoided.
    """
    events = list(events)
    points = convergence_from_trace(events)
    if not points:
        return "no pass data in trace"
    lines = [
        "pass   kind   blocks       f        d_k    T_SUM      d_k^E",
        "-" * 59,
    ]
    for p in points:
        lines.append(
            f"{p.index:4d}  {p.kind:>5s}  {p.blocks:6d}  {p.f:6d}  "
            f"{p.d_k:9.4f}  {p.t_sum:7d}  {p.d_k_e:9.4f}"
        )
    distances = [p.d_k for p in points]
    lines.append("")
    lines.append(
        f"d_k: {sparkline(distances)}  "
        f"[{max(distances):.4f} .. {min(distances):.4f}]"
    )
    skips: Dict[str, int] = {}
    avoided = 0
    for event in events:
        if event.get("event") == "improve_skip":
            reason = str(event.get("reason"))
            skips[reason] = skips.get(reason, 0) + 1
            avoided += int(event.get("passes_avoided", 0))
    if skips:
        counts = ", ".join(f"{skips[r]} {r}" for r in sorted(skips))
        lines.append(
            f"improve_skip: {counts}; {avoided} passes avoided"
        )
    return "\n".join(lines)


def render_convergence_svg(
    events: Iterable[dict], width: int = 640, height: int = 240
) -> str:
    """Dependency-free SVG line plot of ``d_k`` over passes.

    Deterministic output (fixed-precision coordinates); returns a
    minimal placeholder document when the trace has no cost points.
    """
    points = convergence_from_trace(events)
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    if not points:
        return header + "<text x='10' y='20'>no pass data</text></svg>"
    values = [p.d_k for p in points]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pad = 30
    plot_w = width - 2 * pad
    plot_h = height - 2 * pad
    n = len(values)
    coords = []
    for i, v in enumerate(values):
        x = pad + (plot_w * i / (n - 1) if n > 1 else plot_w / 2)
        y = pad + plot_h * (1.0 - (v - lo) / span)
        coords.append(f"{x:.2f},{y:.2f}")
    parts = [
        header,
        f'<rect x="0" y="0" width="{width}" height="{height}" '
        'fill="white"/>',
        f'<polyline points="{" ".join(coords)}" fill="none" '
        'stroke="#1f77b4" stroke-width="2"/>',
        f'<text x="{pad}" y="{pad - 10}" font-size="12">'
        f"d_k over {n} points (max {hi:.4f}, min {lo:.4f})</text>",
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#888" stroke-width="1"/>',
        "</svg>",
    ]
    return "".join(parts)

"""Convergence series and sparkline rendering."""

import pytest

from repro.analysis import (
    convergence_series,
    render_convergence,
    sparkline,
)
from repro.core import FpartPartitioner


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant(self):
        assert sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_monotone(self):
        line = sparkline([0, 1, 2, 3])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 4

    def test_extremes_mapped(self):
        line = sparkline([5.0, 0.0, 10.0])
        assert line[1] == "▁" and line[2] == "█"


class TestConvergence:
    @pytest.fixture(scope="class")
    def result(self, ):
        from repro.circuits import generate_circuit
        from repro.core import Device

        hg = generate_circuit("conv", num_cells=250, num_ios=30, seed=2)
        device = Device("C", s_ds=60, t_max=45, delta=1.0)
        return FpartPartitioner(hg, device).run()

    def test_series_matches_trace(self, result):
        series = convergence_series(result)
        assert len(series) == len(result.trace)
        assert [p.label for p in series] == [
            e.label for e in result.trace
        ]

    def test_distance_reaches_zero(self, result):
        series = convergence_series(result)
        assert series[-1].distance == 0.0  # the run ends feasible

    def test_indices_sequential(self, result):
        series = convergence_series(result)
        assert [p.index for p in series] == list(range(len(series)))

    def test_render(self, result):
        text = render_convergence(result)
        assert "d_k:" in text
        assert "iter " in text

    def test_render_empty_trace(self, result):
        from repro.core import FpartResult

        empty = FpartResult(
            circuit="x", device="y", num_devices=1, lower_bound=1,
            feasible=True, assignment=[], block_sizes=[], block_pins=[],
            iterations=0, runtime_seconds=0.0, trace=[],
        )
        assert render_convergence(empty) == "no trace recorded"


class TestTraceConsumers:
    """Unit tests of the JSONL-trace convergence consumers."""

    COST = {"f": 1, "d_k": 2.5, "t_sum": 120, "d_k_e": 0.5, "cut": 9}
    FINAL = {"f": 0, "d_k": 0.0, "t_sum": 100, "d_k_e": 0.1, "cut": 7}

    def _events(self):
        return [
            {"event": "run_start", "circuit": "c"},
            {"event": "pass_start", "blocks": [0, 1, 2], "cost": self.COST},
            {"event": "move_batch", "moves": 64, "key": [1, 2, 3, 4]},
            {"event": "pass_start", "blocks": [0, 1], "cost": self.FINAL},
            {"event": "run_end", "num_devices": 2, "cost": self.FINAL},
        ]

    def test_points_from_pass_starts_and_run_end(self):
        from repro.analysis import convergence_from_trace

        points = convergence_from_trace(self._events())
        assert [p.kind for p in points] == ["pass", "pass", "final"]
        assert points[0].blocks == 3
        assert points[0].f == 1 and points[0].d_k == 2.5
        assert points[-1].blocks == 2
        assert [p.index for p in points] == [0, 1, 2]

    def test_events_without_cost_are_skipped(self):
        from repro.analysis import convergence_from_trace

        events = self._events()
        del events[4]["cost"]  # faulted run_end carries cost=None
        points = convergence_from_trace(events)
        assert [p.kind for p in points] == ["pass", "pass"]

    def test_pass_table_renders_and_is_deterministic(self):
        from repro.analysis import render_pass_table

        text = render_pass_table(self._events())
        assert text == render_pass_table(self._events())
        lines = text.splitlines()
        assert "T_SUM" in lines[0] and "d_k^E" in lines[0]
        assert "final" in text
        assert "d_k:" in lines[-1]

    def test_pass_table_counts_improve_skips(self):
        from repro.analysis import convergence_from_trace, render_pass_table

        events = self._events()
        assert "improve_skip" not in render_pass_table(events)
        events[3:3] = [
            {"event": "improve_skip", "reason": "replay", "blocks": [0, 1],
             "passes_avoided": 3, "restarts": 2},
            {"event": "improve_skip", "reason": "settled", "blocks": [1, 0],
             "passes_avoided": 1},
            {"event": "improve_skip", "reason": "settled", "blocks": [2, 0],
             "passes_avoided": 1},
        ]
        # Skips carry no cost: the per-pass series is unchanged.
        assert convergence_from_trace(events) == convergence_from_trace(
            self._events()
        )
        lines = render_pass_table(events).splitlines()
        assert lines[-1] == "improve_skip: 1 replay, 2 settled; 5 passes avoided"

    def test_pass_table_empty_trace(self):
        from repro.analysis import render_pass_table

        assert render_pass_table([]) == "no pass data in trace"

    def test_svg_plot(self):
        from repro.analysis import render_convergence_svg

        svg = render_convergence_svg(self._events())
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert svg == render_convergence_svg(self._events())

    def test_svg_empty_trace(self):
        from repro.analysis import render_convergence_svg

        svg = render_convergence_svg([])
        assert svg.startswith("<svg")
        assert "no pass data" in svg

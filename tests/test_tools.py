"""Tests for the command-line tools."""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import main as runner_main
from repro.experiments.sweep import load_sweep_file
from repro.tools.trace_view import build_parser as view_parser
from repro.tools.trace_view import main as view_main, render_trace
from tests.conftest import make_trace


class TestTraceView:
    def test_render_contains_panels(self):
        trace = make_trace([0.1, 1.0, 1.0, 0.1], flows=[1, 50, 60, 2],
                           marked_frac=[0, 0.5, 1.0, 0],
                           queue_frac=[0, 0.2, 0.4, 0])
        text = render_trace(trace)
        assert "(a) ingress Gbps" in text
        assert "(b) active flows" in text
        assert "(c) ECN-marked Gbps" in text
        assert "(d) retransmit Gbps" in text
        assert "Bursts" in text
        assert "yes" in text  # the 60-flow burst is an incast

    def test_render_truncates_long_burst_lists(self):
        utils = [1.0, 0.0] * 40
        trace = make_trace(utils, flows=[30, 0] * 40)
        text = render_trace(trace)
        assert "first 25 of 40" in text

    def test_cli_runs(self, capsys):
        assert view_main(["--service", "messaging",
                          "--duration-ms", "150"]) == 0
        out = capsys.readouterr().out
        assert "messaging" in out

    def test_parser_defaults(self):
        args = view_parser().parse_args([])
        assert args.service == "aggregator"
        assert args.duration_ms == 2000


class TestDctcpModesSweep:
    """The operating-mode sweep is a ``dumbbell_incast`` spec run through
    ``sweep run`` (it replaced a tool with its own flags)."""

    SPEC = (Path(__file__).resolve().parents[1] / "examples" / "sweeps"
            / "dctcp_modes.yaml")

    def test_sweep_runs_small(self, tmp_path, capsys):
        spec = tmp_path / "modes.yaml"
        spec.write_text("name: modes\nscenario: dumbbell_incast\n"
                        "axes: {n_flows: [20]}\n", encoding="utf-8")
        assert runner_main(["sweep", "run", str(spec), "--scale", "0.14",
                            "--jobs", "1", "--no-cache",
                            "--json-dir", str(tmp_path / "json")]) == 0
        out = capsys.readouterr().out
        assert "Operating mode vs grid point" in out
        assert "K* = 90, overflow at 1358" in out
        row = next(line for line in out.splitlines()
                   if line.startswith("n_flows=20 "))
        assert row.split()[1] == "HEALTHY"   # predicted
        assert row.split()[-1] == "HEALTHY"  # observed
        data = json.loads((tmp_path / "json" / "sweep:modes.json")
                          .read_text(encoding="utf-8"))["data"]
        point = data["points"]["n_flows=20"]
        assert point["mode"] == "HEALTHY" and point["n_flows"] == 20
        assert point["n_bursts"] == 3  # max(3, round(11 x 0.14))

    def test_spec_declares_the_mode_grid(self):
        spec = load_sweep_file(self.SPEC)
        assert spec.scenario == "dumbbell_incast"
        assert [a.name for a in spec.axes] == ["n_flows"]
        assert spec.axes[0].values == (50, 100, 200, 500, 1000)
        assert "cca" not in spec.fixed  # the dctcp default

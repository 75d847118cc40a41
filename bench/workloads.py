"""The six workloads, driven only through the program's public surface.

``run_incast_sim`` (with its ``IncastSimConfig``) serves the three
``incast_*`` workloads; ``runner.main(argv)`` — the ``repro-experiments``
entry point — serves ``fleet_study`` and the two sweep workloads. Nothing
else of the program is named here, so the ROADMAP refactors can land
without editing the benchmark.

A pass is split so that only the program runs inside the timed region:
``prepare`` (fresh directories), ``execute`` (timed: one call into the
program), ``collect`` (read the outputs back, clean up). ``--seed`` reaches
every generated input: ``IncastSimConfig.seed`` or the runner's ``--seed``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import tempfile
from pathlib import Path
from typing import Any

from bench.manifest import ROOT

SPEC = ROOT / "bench" / "specs" / "engine_grid.yaml"


@dataclasses.dataclass
class PassOutput:
    """What one pass produced, read back outside the timed region."""

    document: Any   # digested (volatile fields stripped by checks.digest)
    facts: dict     # inputs of the workload's semantic check


class Workload:
    """One named workload at one seed, working under ``tmp``."""

    name = ""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        """Imports and input generation; ``setup_s`` ends when this
        returns."""

    def prime(self) -> None:
        """Reference outputs a check needs (untimed, not set-up)."""

    def prepare(self) -> Any:
        """Per-pass state created outside the timed region."""

    def execute(self, ctx: Any) -> Any:
        """The timed region: one call into the program."""
        raise NotImplementedError

    def collect(self, ctx: Any, raw: Any) -> PassOutput:
        """Read the pass's outputs back and clean up (untimed)."""
        raise NotImplementedError

    def work(self, out: PassOutput) -> tuple[float, str]:
        """Size of one pass's fixed input, for the derived rates printed
        beside ``wall_s`` (``amount / wall_s``; never gated)."""
        raise NotImplementedError

    def layer_counts(self, raw: Any, out: PassOutput) -> dict:
        """Group-B counts of one pass. Traced runs only: this may reach
        past the two entry points, so nothing end-to-end depends on it."""
        return {}


# --- §4: packet-level incast through run_incast_sim -----------------------

class Incast(Workload):
    """Dumbbell, ``n_flows`` x one 15 ms burst (the first of the paper's
    run, slow-start ramp included), DCTCP."""

    n_flows = 100
    n_bursts = 1
    telemetry = False

    def setup(self) -> None:
        from repro.experiments.environment import (IncastSimConfig,
                                                   run_incast_sim)
        self._run = run_incast_sim
        self._config = IncastSimConfig
        self._cfg = self._make_config(self.telemetry)

    def _make_config(self, telemetry: bool):
        # burst_duration_ns keeps its default: the paper's 15 ms.
        return self._config(n_flows=self.n_flows, n_bursts=self.n_bursts,
                            seed=self.seed, telemetry=telemetry)

    def execute(self, ctx: None) -> Any:
        return self._run(self._cfg)

    def collect(self, ctx: None, result: Any) -> PassOutput:
        bursts = [dataclasses.asdict(b) for b in result.burst_results]
        document = {"summary": result.export_dict(), "bursts": bursts}
        facts = {"bursts_completed": len(bursts),
                 "bursts_expected": self.n_bursts,
                 "drops": sum(b["drops"] for b in bursts),
                 "rtos": sum(b["rto_events"] for b in bursts),
                 "bursts": bursts}
        if result.telemetry is not None:
            capture = result.telemetry.to_dict()
            document["telemetry"] = capture
            facts["telemetry_intervals"] = capture["n_intervals"]
            facts["telemetry_events"] = capture["n_events"]
        return PassOutput(document, facts)

    def work(self, out: PassOutput) -> tuple[float, str]:
        end_ns = max(b["complete_ns"] for b in out.facts["bursts"])
        return end_ns / 1e3, "simulated_us"

    def layer_counts(self, result: Any, out: PassOutput) -> dict:
        bursts = out.facts["bursts"]
        net = result.network
        queues = (net.trunk_queue.stats, net.bottleneck_queue.stats)
        # Every data segment a sender emits enters (or is dropped at) the
        # sender-side trunk queue, so its offered count is the segment
        # count without reaching into per-connection state.
        segments = queues[0].enqueued_packets + queues[0].dropped_packets
        retransmits = sum(b["retransmitted_packets"] for b in bursts)
        return {
            "netsim.drops": sum(q.dropped_packets for q in queues),
            "netsim.ecn_marks": sum(q.marked_packets for q in queues),
            "netsim.peak_queue_pkts": max(
                (b["peak_queue_packets"] for b in bursts), default=0),
            "tcp.segments": segments,
            "tcp.retransmits": retransmits,
            "tcp.rto_fired": out.facts["rtos"],
            "tcp.fast_retransmits": sum(b["fast_retransmits"]
                                        for b in bursts),
            "tcp.slow_path_share": (retransmits / segments if segments
                                    else 0.0),
        }


class IncastSteady(Incast):
    name = "incast_steady"


class IncastLossy(Incast):
    name = "incast_lossy"
    n_flows = 1000


class IncastTelemetry(Incast):
    name = "incast_telemetry"
    telemetry = True

    def prime(self) -> None:
        result = self._run(self._make_config(telemetry=False))
        self._untelemetered = [dataclasses.asdict(b)
                               for b in result.burst_results]

    def collect(self, ctx: None, result: Any) -> PassOutput:
        out = super().collect(ctx, result)
        out.facts["untelemetered_bursts"] = self._untelemetered
        return out


# --- §3 and the engine: through the repro-experiments entry point ---------

@dataclasses.dataclass
class _PassDirs:
    root: Path
    json_dir: Path


class Runner(Workload):
    """One ``runner.main(argv)`` call per pass, exports read back from a
    fresh ``--json-dir``."""

    def setup(self) -> None:
        from repro.experiments import runner
        self._main = runner.main

    def argv(self, dirs: _PassDirs) -> list[str]:
        raise NotImplementedError

    def prepare(self) -> _PassDirs:
        root = Path(tempfile.mkdtemp(prefix="pass-", dir=self.tmp))
        return _PassDirs(root, root / "json")

    def execute(self, dirs: _PassDirs) -> int:
        # The reports the CLI prints are part of the work; the terminal
        # is not.
        with contextlib.redirect_stdout(io.StringIO()):
            return self._main(self.argv(dirs))

    def collect(self, dirs: _PassDirs, exit_code: int) -> PassOutput:
        try:
            exports = {p.name: p.read_bytes()
                       for p in sorted(dirs.json_dir.glob("*.json"))}
        finally:
            shutil.rmtree(dirs.root, ignore_errors=True)
        document = {name: json.loads(blob)
                    for name, blob in exports.items()}
        report = document.get("run_report.json", {})
        facts = {"exit_code": exit_code, "files": sorted(exports),
                 "engine_failed": report.get("failed", 0),
                 "units": report.get("n_units", 0),
                 "executed": report.get("executed", 0),
                 "cache_hits": report.get("cache_hits", 0),
                 "exports": exports}
        return PassOutput(document, facts)

    def work(self, out: PassOutput) -> tuple[float, str]:
        return out.facts["units"], "units"

    def layer_counts(self, exit_code: int, out: PassOutput) -> dict:
        return {"engine.units": out.facts["units"],
                "engine.executed": out.facts["executed"],
                "engine.cache_hits": out.facts["cache_hits"]}


class FleetStudy(Runner):
    """Section 3 through the CLI: the sampling and daily campaigns.

    fig3 is left out on purpose. At any scale that fits a one-second
    pass its campaign sits on the three-hosts-per-service floor, and the
    work of a pass then swings with the seed (Python calls per pass over
    ten seeds: IQR 17-18 % of the median with fig3 at scales 0.05-0.15,
    against 4.7 % for this argv), which ``wall_s`` would report as noise.
    """

    name = "fleet_study"

    def argv(self, dirs: _PassDirs) -> list[str]:
        return ["-e", "table1", "-e", "fig1", "-e", "fig2", "-e", "fig4",
                "--scale", "0.5", "--jobs", "1", "--no-cache",
                "--seed", str(self.seed), "--json-dir", str(dirs.json_dir)]


class SweepCold(Runner):
    """Engine write side: a fresh, empty cache directory every pass."""

    name = "sweep_cold"

    def cache_dir(self, dirs: _PassDirs) -> Path:
        return dirs.root / "cache"

    def argv(self, dirs: _PassDirs) -> list[str]:
        return ["sweep", "run", str(SPEC), "--jobs", "1",
                "--seed", str(self.seed),
                "--cache-dir", str(self.cache_dir(dirs)),
                "--json-dir", str(dirs.json_dir)]


def _sweep_export(exports: dict[str, bytes]) -> bytes | None:
    """The exported sweep result (not the run report)."""
    blobs = [blob for name, blob in exports.items()
             if name.startswith("sweep")]
    return blobs[0] if len(blobs) == 1 else None


class SweepWarm(SweepCold):
    """Engine read side: every pass runs against the cache one cold pass
    filled during set-up."""

    name = "sweep_warm"

    def setup(self) -> None:
        super().setup()
        # Every set-up fills its own empty cache, or the later set-up
        # samples of a run would find the first one's entries.
        self._cache = Path(tempfile.mkdtemp(prefix="warm-cache-",
                                            dir=self.tmp))
        dirs = self.prepare()
        cold = super().collect(dirs, self.execute(dirs))
        self._cold_export = _sweep_export(cold.facts["exports"])

    def cache_dir(self, dirs: _PassDirs) -> Path:
        return self._cache

    def collect(self, dirs: _PassDirs, exit_code: int) -> PassOutput:
        out = super().collect(dirs, exit_code)
        export = _sweep_export(out.facts["exports"])
        out.facts["export_matches_cold"] = (
            export is not None and export == self._cold_export)
        return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (IncastSteady, IncastLossy, IncastTelemetry,
                              FleetStudy, SweepCold, SweepWarm)}

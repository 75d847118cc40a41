"""Start-up is proportional to what the run uses.

Every CLI invocation, pool worker, ``repro.tools.worker`` and
``repro.tools.cacheserver`` pays its imports before anything else, so
what an entry point loads is budgeted here: each case runs in a fresh
interpreter and asserts on ``sys.modules`` *after the work is done*, not
just after the first import — a module merely deferred into the first
pass would still be counted. See DESIGN.md § *Import policy*.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_MARK = "@@modules "

#: What no local serial run has a use for: the TLS / HTTP / e-mail
#: stack behind the remote cache client, the process pool, the
#: coordinator, an experiment nobody asked for, the TCP stack.
NEVER_FOR_A_SERIAL_RUN = (
    "ssl", "http.client", "email", "multiprocessing",
    "concurrent.futures.process",
    "repro.experiments.engine.distributed",
    "repro.experiments.engine.remote_cache",
    "repro.experiments.ablations", "repro.tcp.connection")

#: The packet substrate, which a fluid grid never chooses.
PACKET_SUBSTRATE = (
    "repro.netsim.switch", "repro.netsim.nic", "repro.telemetry.recorder",
    "repro.workloads.incast")

FLUID_SPEC = """\
name: budget-grid
scenario: leafspine_mix
axes:
  ecn_threshold_packets: [20, 65]
  n_mice: [4, 8]
fixed:
  backend: fluid
  n_elephants: 2
"""


def modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it ran ``code``
    (which may print, and may end in ``SystemExit(0)``)."""
    harness = (
        "import json, sys\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        f"print({_MARK!r} + json.dumps(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", harness],
                          capture_output=True, text=True, timeout=300,
                          env={"PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stdout + done.stderr
    line = [ln for ln in done.stdout.splitlines() if ln.startswith(_MARK)]
    return set(json.loads(line[-1][len(_MARK):]))


def repro_modules(modules: set[str]) -> list[str]:
    return sorted(m for m in modules
                  if m == "repro" or m.startswith("repro."))


def assert_absent(modules: set[str], names) -> None:
    loaded = sorted(set(names) & modules)
    assert not loaded, f"loaded but not needed: {loaded}"


def run_main(argv: list[str]) -> str:
    """Source of one silent, successful ``runner.main(argv)``."""
    return ("import contextlib, io\n"
            "from repro.experiments import runner\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = runner.main({argv!r})\n"
            "assert code == 0, code\n")


def test_importing_the_runner():
    modules = modules_after("import repro.experiments.runner")
    assert_absent(modules, NEVER_FOR_A_SERIAL_RUN)
    assert len(repro_modules(modules)) <= 30, repro_modules(modules)


def test_a_complete_fluid_sweep(tmp_path):
    spec = tmp_path / "grid.yaml"
    spec.write_text(FLUID_SPEC, encoding="utf-8")
    modules = modules_after(run_main([
        "sweep", "run", str(spec), "--jobs", "1", "--seed", "3",
        "--cache-dir", str(tmp_path / "cache"),
        "--json-dir", str(tmp_path / "json")]))
    assert (tmp_path / "json" / "sweep:budget-grid.json").exists()
    assert_absent(modules, NEVER_FOR_A_SERIAL_RUN + PACKET_SUBSTRATE)
    assert len(repro_modules(modules)) <= 45, repro_modules(modules)


def test_the_section_3_experiments(tmp_path):
    modules = modules_after(run_main([
        "-e", "table1", "-e", "fig1", "-e", "fig2", "-e", "fig4",
        "--scale", "0.05", "--jobs", "1", "--no-cache", "--seed", "3",
        "--json-dir", str(tmp_path / "json")]))
    assert (tmp_path / "json" / "fig4.json").exists()
    assert_absent(modules, ("repro.tcp.connection", "repro.netsim.switch",
                            "repro.experiments.fig5"))


def test_importing_the_cache_server():
    modules = modules_after("import repro.tools.cacheserver")
    assert_absent(modules, ("numpy",))
    assert len(repro_modules(modules)) <= 10, repro_modules(modules)


def help_of(tool: str) -> set[str]:
    return modules_after(
        "import runpy\n"
        f"sys.argv = [{tool!r}, '--help']\n"
        f"runpy.run_module('repro.tools.{tool}', run_name='__main__')\n")


def test_tools_load_what_they_name():
    """``--help`` exits 0 on what the tool's own ``import`` lines name
    (and those modules' own), not on the whole experiments package."""
    everything = ("repro.experiments.environment", "repro.tcp.connection",
                  "repro.netsim.switch", "repro.telemetry.recorder")

    worker = help_of("worker")          # engine core + the wire protocol
    assert_absent(worker, everything + ("repro.experiments.runner",))
    assert len(repro_modules(worker)) <= 25, repro_modules(worker)

    server = help_of("cacheserver")     # the cache module, nothing else
    assert_absent(server, everything + ("numpy",))
    assert len(repro_modules(server)) <= 10, repro_modules(server)

    viewer = help_of("telemetry_view")  # ascii_plot + the JSON writer
    assert_absent(viewer, everything + ("repro.experiments.engine",))
    assert len(repro_modules(viewer)) <= 12, repro_modules(viewer)

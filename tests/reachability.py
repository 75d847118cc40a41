"""Reachability audit: what in ``src/repro`` no shipped surface runs.

Run from the repository root (about 13 minutes on two cores)::

    python -m tests.reachability

The audit runs the shipped surface — the experiments CLI, every CI smoke
step, ``golden --check``, the examples and example sweeps, every CLI's
``--help``, the extension example in docs/MITIGATIONS.md, and the
``bench`` harness — with a call recorder installed in every Python
process it starts: a ``cProfile`` per thread, inherited by forked pool
workers and installed in fresh interpreters by a generated
``sitecustomize``. It then enumerates every ``def`` under ``src/repro``
with :mod:`ast` and prints

- the functions no process ever entered, and
- the defaulted fields of ``*Config`` dataclasses that no process ever
  set to a non-default value (each one a knob whose branch nobody runs).

A finding on :data:`ALLOWLIST` is kept on purpose and prints with its
reason; anything else is a finding, and the command exits 1. Protocol
methods (``__dunder__``) and interface stubs (a body of only a
docstring, ``...``, ``pass`` or ``raise NotImplementedError``) are
called by the interpreter or overridden by design and are counted, not
listed.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import shutil
import subprocess
import sys
import tempfile
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Set in every audited process: the directory its records go to.
OUT_ENV = "REPRO_REACH_OUT"

_ACCESSOR = "state accessor: tests and callers read the object through it"
_SCALE = ("reached only at larger scale: loss, RTO or idle restart under "
          "these wrappers, or SACK holes, needs more flows than --scale 0.05")
_SAFETY = "safety code: runs only when a cache, journal or unit fails"
_ITEM = "ROADMAP item {} owns it (out of scope for this audit's deletions)"
_REFERENCE = ("a reference tests compare against: the per-{} form the "
              "columnar fast path is checked against")
_SWEEP = ("named shipped consumer: `sweep list` advertises it as a "
          "`sweep run` axis of {}")

#: Kept-but-unreached functions and never-set knobs, each with its reason.
#: Keys are ``module:Qualname`` (functions) or ``module:Class.field``
#: (knobs). :func:`stale_allowlist` fails the audit on a key that names
#: nothing under ``src/repro``.
ALLOWLIST: dict[str, str] = {
    # analysis
    "repro.analysis.cdf:EmpiricalCdf.values": _ACCESSOR,
    "repro.analysis.cdf:EmpiricalCdf.evaluate":
        "a reference tests compare against: F(x), the inverse "
        "percentile() is documented and tested to agree with",
    "repro.analysis.cdf:EmpiricalCdf.median": "called by __repr__",
    "repro.analysis.export:_emit_text_keyed":
        "safety code: the writer's path for non-str dict keys, pinned by "
        "test_export's writer-vs-json.dumps property",
    "repro.analysis.fct:FlowFct.fct_ns": _ACCESSOR,
    "repro.analysis.fct:FlowFct.fct_ms": _ACCESSOR,
    "repro.analysis.fct:FlowFct.to_dict": _ACCESSOR,
    "repro.analysis.fct:FctSet.records": _REFERENCE.format("flow row"),
    "repro.analysis.fct:FctSet.digest": _REFERENCE.format("FctSet"),
    "repro.analysis.fct:FctSet.summary": _REFERENCE.format("FctSet"),
    "repro.analysis.fct:FctSet.export_dict": _REFERENCE.format("FctSet"),
    # core
    "repro.core.bursts:Burst.mean_utilization": _REFERENCE.format("burst"),
    "repro.core.bursts:Burst.mean_active_flows": _ACCESSOR,
    "repro.core.incast:incast_fraction": _REFERENCE.format("burst"),
    "repro.core.incast:low_mode_fraction": _REFERENCE.format("burst"),
    "repro.core.metrics:BurstMetrics.from_burst": _REFERENCE.format("burst"),
    "repro.core.metrics:TraceSummary.bursts": _REFERENCE.format("burst"),
    "repro.core.predictor:IncastDegreePredictor.samples": _ACCESSOR,
    # experiments and engine
    "repro.experiments.backends:run_incast_fluid": _ITEM.format(5),
    "repro.experiments.engine.cache:ResultCache.path_for": _ACCESSOR,
    "repro.experiments.engine.cache:ResultCache._drop_corrupt": _SAFETY,
    "repro.experiments.engine.cache:ResultCache._note_put_failure": _SAFETY,
    "repro.experiments.engine.core:_describe_exception": _ITEM.format(10),
    "repro.experiments.engine.core:_Campaign._put_fault": _SAFETY,
    "repro.experiments.engine.core:LocalPoolBackend.execute."
    "requeue_uncharged":
        _SAFETY + " (a crashed worker's pool-mates; whether any were in "
        "flight when the CI chaos step's crash lands is timing)",
    "repro.experiments.engine.core:_Campaign.on_permanent_failure": _SAFETY,
    "repro.experiments.engine.distributed:FrameDecoder.pending_bytes":
        _ITEM.format(10),
    "repro.experiments.engine.journal:CampaignJournal.record_failed":
        _SAFETY,
    "repro.experiments.engine.remote_cache:_flip_last_bit": _ITEM.format(10),
    "repro.experiments.engine.remote_cache:RemoteCacheTier.state":
        _ITEM.format(10),
    "repro.experiments.engine.remote_cache:RemoteCacheTier._record_failure":
        _SAFETY,
    "repro.experiments.engine.remote_cache:RemoteCacheTier._degrade":
        _SAFETY,
    "repro.experiments.engine.report:FailureRecord.label": _SAFETY,
    "repro.experiments.engine.report:FailureRecord.to_dict": _SAFETY,
    "repro.experiments.scenarios:ScenarioResult.export_dict":
        _REFERENCE.format("result"),
    "repro.measurement.records:HostTrace.times_ms": _ACCESSOR,
    # netsim
    "repro.netsim.fluid:degenerate_point_flows":
        "a reference tests compare against: the analytic K* the fluid "
        "and cross-validation tests check the substrates against",
    "repro.netsim.nic:HostNIC.add_ingress_hook":
        "the measurement tap tests observe delivered packets through",
    "repro.netsim.nic:HostNIC.egress_backlog_packets": _ACCESSOR,
    "repro.netsim.nic:HostNIC._pump":
        "a reference tests compare against: the per-packet drain the "
        "egress differential tests run the fast path against",
    "repro.netsim.packet:Packet.end_seq": _ACCESSOR,
    "repro.netsim.packet:Packet.ecn_capable": _ACCESSOR,
    "repro.netsim.packet:ack_packet":
        "the ACK constructor tests inject packets with; the receiver "
        "builds its ACKs inline",
    "repro.netsim.queues:DropTailQueue.len_bytes": _ACCESSOR,
    "repro.netsim.switch:Switch.forwarded_packets": _ACCESSOR,
    "repro.netsim.switch:Switch.ports": _ACCESSOR,
    # simcore
    "repro.simcore.event:Event.time_ns": _ACCESSOR,
    "repro.simcore.event:Event.seq": _ACCESSOR,
    "repro.simcore.event:Event.fn": _ACCESSOR,
    "repro.simcore.event:Event.args": _ACCESSOR,
    "repro.simcore.event:Event.cancelled": _ACCESSOR,
    "repro.simcore.event:Event.cancel":
        "the handle's documented cancel; the kernel cancels through the "
        "queue on the hot path",
    "repro.simcore.hooks:HookRegistry.active": _ACCESSOR,
    "repro.simcore.hooks:HookRegistry.n_subscriptions": _ACCESSOR,
    "repro.simcore.kernel:Simulator.count_batched":
        "no caller left in the package; its one remaining consumer is "
        "bench/trace.py's EventCounters, which wraps it, and ROADMAP "
        "item 1 retires both",
    "repro.simcore.kernel:reset_total_events_processed":
        "test isolation for the process-global event counter",
    "repro.simcore.kernel:Simulator.events_processed": _ACCESSOR,
    "repro.simcore.kernel:Simulator.pending_events": _ACCESSOR,
    "repro.simcore.kernel:Timer.armed": _ACCESSOR,
    "repro.simcore.kernel:Timer.expiry_ns": _ACCESSOR,
    "repro.simcore.random:RngHub.seed": _ACCESSOR,
    # tcp
    "repro.tcp.cca.base:CongestionControl.in_slow_start": _ACCESSOR,
    "repro.tcp.cca.reno:Reno.on_ack":
        "the classic-ECN baseline CCA: test_packet_pins pins its runs "
        "and the TCP property and impairment tests drive it",
    "repro.tcp.cca.reno:Reno.on_loss": "the classic-ECN baseline CCA "
                                       "(see Reno.on_ack)",
    "repro.tcp.cca.reno:Reno.on_rto": "the classic-ECN baseline CCA "
                                      "(see Reno.on_ack)",
    "repro.tcp.cca.reno:Reno._multiplicative_decrease":
        "the classic-ECN baseline CCA (see Reno.on_ack)",
    "repro.tcp.connection:TcpSender.pending_bytes": _ACCESSOR,
    "repro.tcp.connection:TcpSender._fill_sack_holes": _SCALE,
    "repro.tcp.guardrail:CwndGuardrail.cwnd_bytes": _ACCESSOR,
    "repro.tcp.guardrail:CwndGuardrail.ssthresh_bytes": _ACCESSOR,
    "repro.tcp.guardrail:CwndGuardrail.on_loss": _SCALE,
    "repro.tcp.guardrail:CwndGuardrail.on_rto": _SCALE,
    "repro.tcp.guardrail:CwndGuardrail.on_restart_after_idle": _SCALE,
    "repro.tcp.rtt:RttEstimator.rttvar_ns": _ACCESSOR,
    "repro.tcp.sack:SackScoreboard.ranges": _ACCESSOR,
    "repro.tcp.sack:SackScoreboard.highest_sacked": _ACCESSOR,
    "repro.tcp.sack:SackScoreboard.next_hole": _SCALE,
    "repro.tcp.schemes.base:SchemeRuntime.finish":
        "the interface default (no stats) every built-in scheme overrides",
    "repro.tcp.schemes.base:BaselineScheme.install":
        "the registry contract every scheme offers; environments skip "
        "installing the default scheme",
    "repro.tcp.schemes.pulser:PulserBackoff.cwnd_bytes": _ACCESSOR,
    "repro.tcp.schemes.pulser:PulserBackoff.ssthresh_bytes": _ACCESSOR,
    "repro.tcp.schemes.pulser:PulserBackoff.on_restart_after_idle": _SCALE,
    # telemetry, tools, units, workloads
    "repro.telemetry.recorder:TelemetryCapture.host_trace":
        "a reference tests compare against: the Section 3 reading of a "
        "packet capture that the Section-3-over-Section-4 tests run",
    "repro.tools.cacheserver:_BlobServer.stats_document": _ITEM.format(10),
    "repro.tools.cacheserver:CacheServer.stats_document": _ITEM.format(10),
    "repro.tools.docstrings:FileReport.percent": _ACCESSOR,
    "repro.workloads.incast:BurstResult.total_bytes": _ACCESSOR,
    "repro.workloads.mix:ElephantMiceConfig.receiver_rank": _ACCESSOR,
    "repro.workloads.mix:FlowPlan.rows": _REFERENCE.format("flow row"),
    # branch-selecting knobs
    "repro.experiments.environment:IncastSimConfig.scheme_params":
        _SWEEP.format("dumbbell_incast; docs/MITIGATIONS.md lists each "
                      "scheme's knobs"),
    "repro.tcp.config:TcpConfig.ecn_enabled": _SWEEP.format(
        "dumbbell_incast (tcp.*); TcpConfig also pickles into packet "
        "payloads, so a field change needs a cache-version bump"),
    "repro.tcp.config:TcpConfig.max_cwnd_bytes": _SWEEP.format(
        "dumbbell_incast (see TcpConfig.ecn_enabled)"),
    "repro.tcp.config:TcpConfig.receiver_window_bytes": _SWEEP.format(
        "dumbbell_incast (see TcpConfig.ecn_enabled)"),
}


# --- the recorder, installed in every audited process ----------------------

class _Recorder:
    """Collects entered code objects and non-default config knobs."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.token = uuid.uuid4().hex
        self.profilers: list = []
        self.knobs: set[tuple[str, str, str]] = set()

    def start(self) -> None:
        import dataclasses
        import threading
        self._profile_thread()
        # A new thread's first profiled event swaps in its own cProfile.
        threading.setprofile(self._thread_hook)
        os.register_at_fork(after_in_child=self._forked)
        atexit.register(self.dump)
        # Pool workers and crash faults leave through os._exit, which
        # skips atexit.
        real_exit = os._exit

        def _exit(code: int) -> None:
            self.dump()
            real_exit(code)
        os._exit = _exit
        dataclasses.dataclass = self._watching(dataclasses.dataclass)

    def _profile_thread(self) -> None:
        import cProfile
        profiler = cProfile.Profile()
        self.profilers.append(profiler)
        profiler.enable()

    def _thread_hook(self, frame, event, arg) -> None:
        self._profile_thread()

    def _forked(self) -> None:
        # The child keeps the parent's profiler (and its counts so far);
        # it only needs a file of its own.
        self.token = uuid.uuid4().hex

    def _watching(self, dataclass):
        """Wrap ``dataclasses.dataclass`` so every ``repro`` ``*Config``
        records which defaulted fields a caller set to something else."""
        recorder = self

        def decorate(cls=None, /, **kwargs):
            def wrap(klass):
                klass = dataclass(klass, **kwargs)
                if (klass.__module__.startswith("repro.")
                        and klass.__name__.endswith("Config")):
                    recorder._watch(klass)
                return klass
            return wrap if cls is None else wrap(cls)
        return decorate

    def _watch(self, klass) -> None:
        import dataclasses
        import functools
        import inspect
        defaults = {}
        for field in dataclasses.fields(klass):
            if field.default is not dataclasses.MISSING:
                defaults[field.name] = field.default
            elif field.default_factory is not dataclasses.MISSING:
                defaults[field.name] = field.default_factory()
        init = klass.__init__
        signature = inspect.signature(init)
        where = (klass.__module__, klass.__qualname__)
        knobs = self.knobs

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            passed = signature.bind(obj, *args, **kwargs).arguments
            for name, value in passed.items():
                if name in defaults and not _same(value, defaults[name]):
                    knobs.add((*where, name))
        klass.__init__ = __init__

    def dump(self) -> None:
        package = str(PACKAGE) + os.sep
        entered = set()
        for profiler in self.profilers:
            for entry in profiler.getstats():
                code = entry.code
                if isinstance(code, str):
                    continue
                path = os.path.realpath(code.co_filename)
                if path.startswith(package):
                    entered.add((os.path.relpath(path, PACKAGE.parent),
                                 code.co_firstlineno, code.co_name))
        record = {"entered": sorted(entered), "knobs": sorted(self.knobs)}
        out = Path(self.out_dir) / f"{os.getpid()}-{self.token}.json"
        out.write_text(json.dumps(record))


def _same(value, default) -> bool:
    try:
        return bool(value is default or value == default)
    except (TypeError, ValueError):  # e.g. an ndarray's ambiguous truth
        return False


def install() -> None:
    """Start recording if this process runs under an audit."""
    out_dir = os.environ.get(OUT_ENV)
    if out_dir:
        _Recorder(out_dir).start()


_SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_repro_reach", {path!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.install()
"""


def prepare_tree(work: Path) -> Path:
    """Lay out ``work`` as a checkout for the surface to run in.

    ``src`` holds a link to the real package and a generated
    ``sitecustomize``, so a command that sets ``PYTHONPATH=src`` itself
    (as the CI steps do) still starts recorded; the other top-level
    directories are links, so outputs land in ``work``, not the repo.
    Returns the records directory.
    """
    (work / "src").mkdir(parents=True)
    (work / "src" / "repro").symlink_to(PACKAGE)
    (work / "src" / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(path=str(Path(__file__).resolve())))
    for name in ("bench", "examples", "docs", "tests", ".github"):
        (work / name).symlink_to(ROOT / name)
    records = work / "records"
    records.mkdir()
    return records


def run_recorded(commands: list[tuple[str, str]], work: Path,
                 records: Path, log=None) -> list[str]:
    """Run each ``(label, bash script)`` in ``work`` under the recorder;
    returns the labels that exited non-zero."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"),
           OUT_ENV: str(records), "PYTHONDONTWRITEBYTECODE": "1"}
    failed = []
    for label, script in commands:
        if log:
            print(f"[reachability] {label}", file=log, flush=True)
        proc = subprocess.run(["bash", "-e", "-c", script], cwd=work,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            failed.append(label)
            if log:
                print(proc.stdout[-2000:], file=log, flush=True)
    return failed


def read_records(records: Path) -> tuple[set, set]:
    """Union of every process's ``(entered code, set knobs)``."""
    entered, knobs = set(), set()
    for path in records.glob("*.json"):
        record = json.loads(path.read_text())
        entered.update((p, line, name) for p, line, name in record["entered"])
        knobs.update(tuple(knob) for knob in record["knobs"])
    return entered, knobs


# --- the surface -------------------------------------------------------------

PY = "python"
EXP = f"{PY} -m repro.experiments"

CLIS = ("repro.experiments", "repro.experiments sweep",
        "repro.experiments sweep list", "repro.experiments sweep plan",
        "repro.experiments sweep run", "repro.experiments verdict",
        "repro.experiments.crossval", "repro.tools.golden",
        "repro.tools.trace_view", "repro.tools.telemetry_view",
        "repro.tools.docstrings", "repro.tools.worker",
        "repro.tools.cacheserver")

BENCH_WORKLOADS = ("incast_steady", "incast_lossy", "incast_telemetry",
                   "fleet_study", "sweep_cold", "sweep_warm")


def ci_steps() -> list[tuple[str, str]]:
    """The CI workflow's smoke steps and its docstring gate, verbatim."""
    import yaml
    workflow = yaml.safe_load((ROOT / ".github/workflows/ci.yml").read_text())
    steps = []
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            name = step.get("name", "")
            if "run" in step and ("smoke" in name or "Docstring" in name):
                steps.append((f"ci: {name}", step["run"]))
    return steps


def mitigations_example() -> str:
    """The ``register_scheme`` example from docs/MITIGATIONS.md."""
    text = (ROOT / "docs" / "MITIGATIONS.md").read_text()
    section = text.split("## Writing a new scheme", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def full_surface() -> list[tuple[str, str]]:
    """Every shipped entry point, as ``(label, bash script)``."""
    surface = [
        ("all cold --jobs 2",
         f"{EXP} --all --scale 0.05 --jobs 2 --cache-dir all-cache "
         f"--json-dir all-cold"),
        ("all warm --jobs 2",
         f"{EXP} --all --scale 0.05 --jobs 2 --cache-dir all-cache "
         f"--json-dir all-warm"),
        ("all cold --jobs 1",
         f"{EXP} --all --scale 0.05 --jobs 1 --no-cache --json-dir all-serial"),
        ("telemetry_view --dump-csv / --dump-json",
         f"{EXP} -e fig5 --scale 0.05 --jobs 1 --telemetry --no-cache "
         f"--json-dir tele && {PY} -m repro.tools.telemetry_view "
         f"tele/run_report.json --dump-csv tele/csv "
         f"&& {PY} -m repro.tools.telemetry_view tele/run_report.json "
         f"--dump-json tele/dump.json"),
        ("trace_view", f"{PY} -m repro.tools.trace_view --service video"),
        ("golden --check", f"{PY} -m repro.tools.golden --check"),
        ("docs/MITIGATIONS.md extension example",
         f"{PY} - <<'EOF'\n{mitigations_example()}EOF"),
    ]
    surface += ci_steps()
    for example in sorted((ROOT / "examples").glob("*.py")):
        surface.append((f"example {example.name}",
                        f"{PY} examples/{example.name}"))
    for spec in sorted((ROOT / "examples" / "sweeps").glob("*.yaml")):
        surface.append((f"sweep {spec.name}",
                        f"{EXP} sweep plan examples/sweeps/{spec.name} && "
                        f"{EXP} sweep run examples/sweeps/{spec.name} "
                        f"--scale 0.05 --jobs 2 --no-cache "
                        f"--json-dir sweep-{spec.stem}"))
    surface.append(("sweep list / sweep run --telemetry",
                    f"{EXP} sweep list > /dev/null && " + " && ".join(
                        f"{EXP} sweep run examples/sweeps/{spec} --scale "
                        f"0.05 --jobs 2 --no-cache --telemetry --json-dir "
                        f"sweep-tele-{spec}" for spec in
                        ("cross_rack_incast.yaml", "ecn_k.yaml"))))
    surface.append(("--help of every CLI", " && ".join(
        f"{PY} -m {cli} --help > /dev/null" for cli in CLIS)))
    surface.append(("bench --quick", f"{PY} -m bench --seed 0 --quick "
                                     f"--out bench-quick.json"))
    for workload in BENCH_WORKLOADS:
        surface.append((f"bench --trace 1 {workload}",
                        f"{PY} -m bench --workload {workload} --seed 0 "
                        f"--trace 1 > /dev/null"))
    return surface


# --- the enumerator ----------------------------------------------------------

def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_stub(node: ast.FunctionDef) -> bool:
    body = list(node.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body.pop(0)
    if not body:
        return True
    if len(body) > 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def enumerate_functions() -> dict[tuple[str, int, str], dict]:
    """Every ``def`` under ``src/repro``, keyed like a recorded code
    object: ``(path from src, first line incl. decorators, name)``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(PACKAGE.parent))
        module = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = child.name
                    found[(rel, first, name)] = {
                        "id": f"{module}:{prefix}{name}",
                        "path": rel, "name": name, "first": first,
                        "last": child.end_lineno,
                        "lines": child.end_lineno - first + 1,
                        "dunder": name.startswith("__")
                        and name.endswith("__"),
                        "stub": _is_stub(child),
                    }
                    walk(child, f"{prefix}{name}.")
                else:
                    walk(child, prefix)
        walk(tree, "")
    return found


def _selects_a_branch(default: ast.expr) -> bool:
    """A ``None``, boolean or enum-member default gates code (``if
    cfg.x is not None``, ``if cfg.flag``, ``if cfg.mode is Enum.X``); a
    number, string or call is a parameter the code computes with."""
    if isinstance(default, ast.Constant):
        return default.value is None or isinstance(default.value, bool)
    return (isinstance(default, ast.Attribute)
            and isinstance(default.value, ast.Name)
            and default.value.id[:1].isupper())


def enumerate_knobs() -> dict[tuple[str, str, str], str]:
    """Every branch-selecting defaulted field of a ``*Config`` dataclass
    under ``src/repro`` (:func:`_selects_a_branch`): ``(module, class,
    field) -> id``."""
    knobs = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config")
                    and any("dataclass" in ast.unparse(d)
                            for d in node.decorator_list)):
                continue
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                        and isinstance(stmt.target, ast.Name)
                        and _selects_a_branch(stmt.value)):
                    field = stmt.target.id
                    knobs[(module, node.name, field)] = (
                        f"{module}:{node.name}.{field}")
    return knobs


# --- the report --------------------------------------------------------------

def unreached(functions: dict, entered: set) -> list[dict]:
    """Functions no recorded process entered, dunders and stubs aside."""
    return [info for key, info in sorted(functions.items())
            if key not in entered and not info["dunder"]
            and not info["stub"]]


def never_set(knobs: dict, recorded: set) -> list[str]:
    """Config knobs no recorded process set to a non-default value."""
    return [knob_id for key, knob_id in sorted(knobs.items())
            if key not in recorded]


def stale_allowlist(functions: dict, knobs: dict,
                    allowlist: dict[str, str] = ALLOWLIST) -> list[str]:
    """Allowlist keys that name no function or knob under ``src/repro``,
    and keys without a reason."""
    names = {info["id"] for info in functions.values()} | set(knobs.values())
    return sorted(key for key, reason in allowlist.items()
                  if key not in names or not reason.strip())


def report(functions: dict, knobs: dict, entered: set, recorded: set,
           out=sys.stdout) -> int:
    """Print the audit; returns the number of findings off the allowlist
    plus stale allowlist entries."""
    missed = unreached(functions, entered)
    unset = never_set(knobs, recorded)
    stale = stale_allowlist(functions, knobs)
    findings = [info for info in missed if info["id"] not in ALLOWLIST]
    knob_findings = [k for k in unset if k not in ALLOWLIST]
    protocol = sum(1 for key, info in functions.items()
                   if key not in entered and (info["dunder"] or info["stub"]))
    print(f"{len(functions)} functions under src/repro; "
          f"{len(missed)} never entered ({len(missed) - len(findings)} "
          f"allowlisted); {protocol} protocol methods or interface stubs "
          f"never entered (not listed)", file=out)
    for info in missed:
        reason = ALLOWLIST.get(info["id"])
        mark = f"kept: {reason}" if reason else "FINDING"
        print(f"  {info['id']} ({info['lines']} lines) — {mark}", file=out)
    print(f"{len(knobs)} branch-selecting config fields; {len(unset)} never "
          f"set to a non-default value", file=out)
    for knob_id in unset:
        reason = ALLOWLIST.get(knob_id)
        print(f"  {knob_id} — {'kept: ' + reason if reason else 'FINDING'}",
              file=out)
    missed_ids = {info["id"] for info in missed} | set(unset)
    for key in sorted(set(ALLOWLIST) - missed_ids - set(stale)):
        print(f"note: allowlisted but reached this run: {key}", file=out)
    for key in stale:
        print(f"STALE ALLOWLIST ENTRY: {key}", file=out)
    return len(findings) + len(knob_findings) + len(stale)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.reachability", description=__doc__.split(
            "\n\n")[0])
    parser.add_argument("--keep", type=Path, default=None,
                        help="run in this (new) directory and keep it, "
                             "records and outputs included")
    args = parser.parse_args(argv)
    work = args.keep or Path(tempfile.mkdtemp(prefix="reachability-"))
    try:
        records = prepare_tree(work)
        failed = run_recorded(full_surface(), work, records, log=sys.stderr)
        entered, recorded = read_records(records)
        findings = report(enumerate_functions(), enumerate_knobs(),
                          entered, recorded)
    finally:
        if args.keep is None:
            shutil.rmtree(work, ignore_errors=True)
    for label in failed:
        print(f"SURFACE COMMAND FAILED: {label}")
    return 1 if findings or failed else 0


if __name__ == "__main__":
    sys.exit(main())

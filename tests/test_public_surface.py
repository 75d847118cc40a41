"""The public surface of every re-exporting package, pinned.

Package ``__init__``s resolve their re-exports on first access
(:mod:`repro._lazy`). That must be invisible from outside: the same
names as the eager ``__init__``s exported (``PARENT_ALL`` is their
``__all__``, copied from the commit before the switch), each one the
defining module's own object, listed by ``dir``, bound by a star-import,
pickled to the same bytes (``PARENT_PICKLES``, taken at the same
commit) — and every module importable on its own, which eager
``__init__``s never checked because they imported the whole subtree in
one fixed order first.

Deliberate diffs since: the second interval producers (``Millisampler``,
``WatermarkSampler``, ``Counter``) and the fluid burst object pair
(``FluidIncast``, ``FluidBurstTrace``) were deleted, so they left
``PARENT_ALL``, and the ``repro.simcore`` pickle pin moved from a
``Counter`` to a ``TimeSeries`` (its bytes taken before the deletion).
The ``guardrail`` scheme joined the registry's built-ins, so
``repro.tcp.schemes`` gained ``GuardrailScheme``. The reachability audit
(``tests/reachability.py``) found four exports no shipped surface runs:
``percentile_bands``, ``service_names`` and ``BurstScheduling`` (whose
fixed-period member nothing selected) were deleted, and ``Impairment`` moved under
``tests/`` beside its one consumer, so all four left ``PARENT_ALL``.
"""

from __future__ import annotations

import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PARENT_ALL = {
    "repro.analysis": (
        "EmpiricalCdf", "format_figure_series", "format_table",
        "render_cdf_table", "resample_mean"),
    "repro.core": (
        "Burst", "BurstMetrics", "DctcpMode", "DivergenceReport",
        "GuardrailAdvisor", "INCAST_FLOW_THRESHOLD",
        "IncastDegreePredictor", "ModeModel", "QuantileTracker",
        "StabilityReport", "TraceSummary", "TrainStats",
        "analyze_divergence", "analyze_trains", "burst_frequency_hz",
        "burstiness_coefficient", "classify_queue_trace",
        "cross_host_stability", "degenerate_flow_count",
        "detect_bursts", "group_trains", "incast_fraction",
        "inter_burst_gaps_ms", "is_incast", "jains_index",
        "summarize_trace", "temporal_stability"),
    "repro.experiments": (
        "ExperimentResult", "IncastSimConfig", "IncastSimResult",
        "production_fluid_config", "run_incast_sim"),
    "repro.experiments.engine": (
        "BackendContext", "CampaignError", "CampaignInterrupted",
        "CampaignJournal", "CorruptPayloadError",
        "DistributedBackend", "EXPERIMENT_MODULES", "ExecutorBackend",
        "FailureRecord", "FaultInjected", "FaultSpec", "FrameDecoder",
        "JournalError", "JournalReplay", "LocalPoolBackend",
        "ProtocolError", "RemoteCacheTier", "ResultCache",
        "ResumeMismatchError", "RunReport", "SerialBackend",
        "UnitReport", "WorkUnit", "campaign_identity", "encode_frame",
        "faults_from_env", "jittered_backoff", "load_resume_state",
        "parse_faults", "parse_hostport", "replay_journal",
        "run_experiments", "seal_payload", "unseal_payload",
        "verify_sealed"),
    "repro.measurement": ("HostTrace", "TraceMeta"),
    "repro.netsim": (
        "BufferPool", "DropTailQueue", "Dumbbell", "DumbbellConfig",
        "ECN", "EgressPort", "FluidConfig", "Host", "HostNIC", "LeafSpine",
        "LeafSpineConfig", "Link", "Packet", "QueueStats", "Rack",
        "RackConfig", "SharedBufferPool", "StaticBufferPool",
        "Switch", "build_dumbbell", "build_leaf_spine", "build_rack",
        "degenerate_point_flows"),
    "repro.simcore": (
        "Event", "EventQueue", "HookRegistry", "PeriodicProbe",
        "RngHub", "Simulator", "StopReason", "TimeSeries", "Timer"),
    "repro.tcp": (
        "CongestionControl", "CwndGuardrail", "Dctcp",
        "ReceiverWindowThrottle", "Reno", "RttEstimator",
        "SackScoreboard", "SwiftLike", "TcpConfig", "TcpReceiver",
        "TcpSender", "guardrail_cap_bytes", "open_connection"),
    "repro.tcp.cca": (
        "CongestionControl", "Dctcp", "Reno", "SwiftLike"),
    "repro.tcp.schemes": (
        "BaselineScheme", "DEFAULT_SCHEME", "DetectScheme",
        "FecScheme", "GuardrailScheme", "IctcpScheme", "MitigationScheme",
        "PulserScheme", "SchemeContext", "SchemeRuntime",
        "get_scheme", "register_scheme", "scheme_names"),
    "repro.telemetry": (
        "FLOW_CHANNELS", "FlowEvent", "HostSeries", "QueueSeries",
        "TelemetryCapture", "TelemetryRecorder"),
    "repro.workloads": (
        "BurstResult", "ElephantMiceConfig",
        "FlowSpec", "FlowStateSampler", "IncastConfig",
        "IncastScheduler", "IncastWorkload",
        "PartitionAggregateConfig", "PartitionAggregateWorkload",
        "QueryResult", "SERVICE_PROFILES", "SchedulerConfig",
        "ServiceProfile", "demand_per_flow_bytes", "flow_sizes",
        "plan_elephant_mice", "remote_ranks"),
}

PARENT_PICKLES = {
    "repro.analysis": (
        'EmpiricalCdf',
        "80049527000000000000008c12726570726f2e616e616c797369732e63646694"
        "8c0c456d7069726963616c4364669493942e"),
    "repro.core": (
        'ModeModel(ecn_threshold_packets=65, '
        'queue_capacity_packets=1333, bdp_packets=25.0)',
        "80049591000000000000008c10726570726f2e636f72652e6d6f646573948c09"
        "4d6f64654d6f64656c9493942981947d94288c1565636e5f7468726573686f6c"
        "645f7061636b657473944b418c1671756575655f63617061636974795f706163"
        "6b657473944d35058c0b6264705f7061636b657473944740390000000000008c"
        "0e6865616c7468795f6d617267696e94473ff999999999999a75622e"),
    "repro.experiments": (
        'ExperimentResult(name="n", description="d")',
        "8004956c000000000000008c18726570726f2e6578706572696d656e74732e72"
        "6573756c74948c104578706572696d656e74526573756c749493942981947d94"
        "288c046e616d65948c016e948c0b6465736372697074696f6e948c0164948c08"
        "73656374696f6e73945d948c0464617461947d9475622e"),
    "repro.experiments.engine": (
        'WorkUnit(experiment="e", unit_id="u", fn="m:f", params={"a": 1})',
        "800495a1000000000000008c1d726570726f2e6578706572696d656e74732e65"
        "6e67696e652e73706563948c08576f726b556e69749493942981947d94288c0a"
        "6578706572696d656e74948c0165948c07756e69745f6964948c0175948c0266"
        "6e948c036d3a66948c06706172616d73947d948c0161944b01738c057363616c"
        "6594473ff00000000000008c0473656564944b008c09636f73745f68696e7494"
        "473ff000000000000075622e"),
    "repro.measurement": (
        'TraceMeta(service="web", host_id=3)',
        "8004957d000000000000008c19726570726f2e6d6561737572656d656e742e72"
        "65636f726473948c0954726163654d6574619493942981947d94288c07736572"
        "76696365948c03776562948c07686f73745f6964944b038c0e736e617073686f"
        "745f696e646578944b008c0f736e617073686f745f74696d655f739447000000"
        "000000000075622e"),
    "repro.netsim": (
        'FluidConfig()',
        "8004952a010000000000008c12726570726f2e6e657473696d2e666c75696494"
        "8c0b466c756964436f6e6669679493942981947d94288c0d6c696e655f726174"
        "655f627073944742174876e80000008c0b626173655f7274745f6e73944d3075"
        "8c0e63617061636974795f6279746573944a80841e008c1265636e5f74687265"
        "73686f6c645f6672616394473fb126e978d4fdf48c096d73735f627974657394"
        "4ddc058c0b696e74657276616c5f6e73944a40420f008c0764637463705f6794"
        "473fb00000000000008c1e6167677265676174655f67726f7774685f6d73735f"
        "7065725f726f756e6494473ff00000000000008c106d61785f77696e646f775f"
        "62797465739447415e8480000000008c1767726f7774685f6f76657273686f6f"
        "745f666163746f729447400000000000000075622e"),
    "repro.simcore": (
        'TimeSeries("queue")',
        "80049554000000000000008c13726570726f2e73696d636f72652e7472616365"
        "948c0a54696d655365726965739493942981947d94288c046e616d65948c0571"
        "75657565948c065f74696d6573945d948c075f76616c756573945d9475622e"),
    "repro.tcp": (
        'TcpConfig()',
        "80049562010000000000008c10726570726f2e7463702e636f6e666967948c09"
        "546370436f6e6669679493942981947d94288c096d73735f6279746573944db4"
        "058c12696e69745f63776e645f7365676d656e7473944b0a8c1064757061636b"
        "5f7468726573686f6c64944b038c0b64656c617965645f61636b94898c166465"
        "6c617965645f61636b5f74696d656f75745f6e73944a20a107008c0a6d696e5f"
        "72746f5f6e73944a00c2eb0b8c0a6d61785f72746f5f6e73944a009435778c0e"
        "696e697469616c5f72746f5f6e73944a00c2eb0b8c0b65636e5f656e61626c65"
        "6494888c0e6d61785f63776e645f6279746573944e8c1763776e645f72657374"
        "6172745f61667465725f69646c6594898c1969646c655f726573746172745f74"
        "68726573686f6c645f6e73944e8c0c7361636b5f656e61626c656494898c0f6d"
        "61785f7361636b5f626c6f636b73944b038c1572656365697665725f77696e64"
        "6f775f6279746573944e75622e"),
    "repro.tcp.cca": (
        'Dctcp(TcpConfig())',
        "80049547020000000000008c13726570726f2e7463702e6363612e6463746370"
        "948c0544637463709493942981947d94288c06636f6e666967948c1072657072"
        "6f2e7463702e636f6e666967948c09546370436f6e6669679493942981947d94"
        "288c096d73735f6279746573944db4058c12696e69745f63776e645f7365676d"
        "656e7473944b0a8c1064757061636b5f7468726573686f6c64944b038c0b6465"
        "6c617965645f61636b94898c1664656c617965645f61636b5f74696d656f7574"
        "5f6e73944a20a107008c0a6d696e5f72746f5f6e73944a00c2eb0b8c0a6d6178"
        "5f72746f5f6e73944a009435778c0e696e697469616c5f72746f5f6e73944a00"
        "c2eb0b8c0b65636e5f656e61626c656494888c0e6d61785f63776e645f627974"
        "6573944e8c1763776e645f726573746172745f61667465725f69646c6594898c"
        "1969646c655f726573746172745f7468726573686f6c645f6e73944e8c0c7361"
        "636b5f656e61626c656494898c0f6d61785f7361636b5f626c6f636b73944b03"
        "8c1572656365697665725f77696e646f775f6279746573944e75628c0a63776e"
        "645f6279746573944740cc8400000000008c0e73737468726573685f62797465"
        "7394477ff00000000000008c016794473fb00000000000008c05616c70686194"
        "473ff00000000000008c105f61636b65645f62797465735f77696e944b008c11"
        "5f6d61726b65645f62797465735f77696e944b008c0f5f77696e646f775f656e"
        "645f736571944b008c0c5f6377725f656e645f736571944b008c1177696e646f"
        "77735f636f6d706c65746564944b0075622e"),
    "repro.tcp.schemes": (
        'BaselineScheme()',
        "80049530000000000000008c16726570726f2e7463702e736368656d65732e62"
        "617365948c0e426173656c696e65536368656d659493942981942e"),
    "repro.telemetry": (
        'FlowEvent(time_ns=5, kind="flow.open", flow_id=1, host=2)',
        "80049577000000000000008c18726570726f2e74656c656d657472792e726563"
        "6f72646572948c09466c6f774576656e749493942981947d94288c0774696d65"
        "5f6e73944b058c046b696e64948c09666c6f772e6f70656e948c07666c6f775f"
        "6964944b018c04686f7374944b028c0576616c75659447000000000000000075"
        "622e"),
    "repro.workloads": (
        'FlowSpec(flow_id=1, kind="mouse", src_rank=8, dst_rank=0, '
        'size_bytes=20000, start_ns=0)',
        "8004957e000000000000008c13726570726f2e776f726b6c6f6164732e6d6978"
        "948c08466c6f77537065639493942981947d94288c07666c6f775f6964944b01"
        "8c046b696e64948c056d6f757365948c087372635f72616e6b944b088c086473"
        "745f72616e6b944b008c0a73697a655f6279746573944d204e8c087374617274"
        "5f6e73944b0075622e"),
}


def _package(name: str):
    return importlib.import_module(name)


@pytest.mark.parametrize("package", sorted(PARENT_ALL))
class TestSurface:
    def test_exported_names_are_the_parents(self, package):
        assert sorted(_package(package).__all__) == sorted(
            PARENT_ALL[package])

    def test_each_name_is_its_defining_modules_object(self, package):
        pkg = _package(package)
        submodules = [importlib.import_module(f"{package}.{info.name}")
                      for info in pkgutil.iter_modules(pkg.__path__)]
        for name in PARENT_ALL[package]:
            value = getattr(pkg, name)
            home = getattr(value, "__module__", None)
            if isinstance(home, str) and home.startswith("repro."):
                # A class or function: the attribute of the module
                # that defines it, not a copy or a wrapper.
                owners = [importlib.import_module(home)]
            elif (package, name) == ("repro.tcp.schemes", "DEFAULT_SCHEME"):
                continue    # the one constant an __init__ defines itself
            else:
                # A constant: some submodule of the package owns it.
                owners = submodules
            assert any(vars(owner).get(name) is value for owner in owners), \
                f"{package}.{name} is not a submodule's object"
            assert vars(pkg)[name] is value, "resolved once, then cached"

    def test_dir_lists_every_export(self, package):
        assert set(PARENT_ALL[package]) <= set(dir(_package(package)))

    def test_star_import_binds_every_export(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(PARENT_ALL[package]) <= set(namespace)

    def test_unknown_name_raises_naming_the_package(self, package):
        with pytest.raises(AttributeError,
                           match=package.replace(".", r"\.")):
            getattr(_package(package), "no_such_name")
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})

    def test_pickle_matches_the_parents_bytes(self, package):
        expression, parent_hex = PARENT_PICKLES[package]
        class_name = expression.split("(")[0]
        from repro.tcp.config import TcpConfig
        value = eval(expression, {
            class_name: getattr(_package(package), class_name),
            "TcpConfig": TcpConfig})
        blob = pickle.dumps(value, protocol=4)
        assert blob.hex() == parent_hex
        assert pickle.dumps(pickle.loads(blob), protocol=4) == blob


def test_submodule_attribute_after_bare_package_import():
    """``import repro.netsim`` then ``repro.netsim.fluid`` worked when
    the ``__init__`` imported every submodule; it still does."""
    code = ("import repro.netsim, repro.experiments.engine\n"
            "assert repro.netsim.fluid.FluidConfig is "
            "repro.netsim.FluidConfig\n"
            "assert repro.experiments.engine.spec.WorkUnit is "
            "repro.experiments.engine.WorkUnit\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={"PYTHONPATH": str(SRC)}, timeout=120)


def test_monkeypatching_a_lazy_name_by_dotted_path(monkeypatch):
    import repro.netsim
    original = repro.netsim.Link
    monkeypatch.setattr("repro.netsim.Link", object)
    assert repro.netsim.Link is object
    monkeypatch.undo()
    assert repro.netsim.Link is original


_STANDALONE = """
import importlib, sys
from pathlib import Path
root = Path(sys.argv[1])
names = sorted(".".join(path.relative_to(root).with_suffix("").parts)
               .removesuffix(".__init__")
               for path in (root / "repro").rglob("*.py")
               if path.name != "__main__.py")
failed = []
for name in names:
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed.append(f"{name}: {type(exc).__name__}: {exc}")
print(len(names))
print("\\n".join(failed))
sys.exit(bool(failed))
"""


def test_every_module_imports_standalone():
    """Each module under ``src/repro`` as the *first* ``repro`` import of
    a process (``repro*`` purged from ``sys.modules`` between imports,
    one interpreter for all of them): the check that finds the circular
    imports a fixed package-wide import order hides."""
    done = subprocess.run(
        [sys.executable, "-c", _STANDALONE, str(SRC)],
        capture_output=True, text=True, timeout=600,
        env={"PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stdout + done.stderr
    assert int(done.stdout.split()[0]) > 100

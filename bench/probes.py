"""Group-C probes: small timed calls into each layer's public functions.

Each probe imports its own targets and runs under its own try/except
(:func:`run_all`): a probe whose target moved or raised reports ``None``
for its metrics plus an entry in the error map, and never touches an
end-to-end metric or the exit code. Timings are best of
:data:`REPEATS`; counts are exact. No probe uses more than two threads or
processes, and the journal/pool/fleet/remote probes exist precisely
because those paths are *off* in the timed workloads (fsync and fork
timings do not repeat within a tenth on the reference host).
They belong to no workload: the suite runs them once.
"""

from __future__ import annotations

import shutil
import threading
import time
import traceback
from pathlib import Path
from typing import Callable

from bench.trace import Spans
from bench.workloads import SPEC

REPEATS = 5
PAYLOAD = {"blob": bytes(range(256)) * 256}  # 64 KiB, like a fat unit


def best_of(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` calls, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fresh(tmp: Path, name: str) -> Path:
    path = tmp / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- simcore ---------------------------------------------------------------

def event_churn(tmp: Path, seed: int) -> dict:
    """Self-rescheduling callbacks: pure push/pop/dispatch."""
    from repro.simcore.kernel import Simulator
    n_events = 50_000

    def run() -> None:
        sim = Simulator()

        def tick() -> None:
            sim.schedule(1_000, tick)
        for i in range(64):
            sim.schedule(i + 1, tick)
        sim.run(max_events=n_events)
    return {"simcore.event_churn_ns": best_of(run) / n_events * 1e9}


def timer_rearm(tmp: Path, seed: int) -> dict:
    """The per-ACK RTO pattern: every event rearms a long timer."""
    from repro.simcore.kernel import Simulator, Timer
    n_rearms = 20_000

    def run() -> None:
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        remaining = [n_rearms]

        def tick() -> None:
            timer.start(1_000_000)
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(100, tick)
        sim.schedule(0, tick)
        sim.run()
    return {"simcore.timer_rearm_ns": best_of(run) / n_rearms * 1e9}


def cancel_churn(tmp: Path, seed: int) -> dict:
    """Push, cancel 90 %, drain: lazy deletion and heap compaction."""
    from repro.simcore.event import EventQueue
    rounds, batch = 40, 1_000
    ops = rounds * (batch + (batch * 9) // 10 + batch // 10)

    def run() -> None:
        queue = EventQueue()
        t = 0
        for _ in range(rounds):
            handles = []
            for _ in range(batch):
                t += 1
                handles.append(queue.push(t, int))
            for handle in handles[:(batch * 9) // 10]:
                queue.cancel(handle)
            while queue.pop() is not None:
                pass
    return {"simcore.cancel_churn_ns": best_of(run) / ops * 1e9}


# --- netsim ----------------------------------------------------------------

def pkt_path(tmp: Path, seed: int) -> dict:
    """Raw ``HostNIC.send`` packets sender -> ToR -> trunk -> ToR ->
    receiver on the dumbbell, no TCP. Rounds of 1200 packets stay under
    the 1333-packet queue, so none drop."""
    from repro.netsim.packet import data_packet
    from repro.netsim.topology import DumbbellConfig, build_dumbbell
    from repro.simcore.kernel import Simulator
    senders, per_sender, rounds = 4, 300, 5
    packets = senders * per_sender * rounds
    delivered = []

    def run() -> None:
        sim = Simulator()
        net = build_dumbbell(sim, DumbbellConfig(n_senders=senders))
        dst = net.receiver.address

        def burst() -> None:
            for index, host in enumerate(net.senders):
                for k in range(per_sender):
                    host.nic.send(data_packet(index, host.address, dst,
                                              k * 1448, 1448))
        for r in range(rounds):
            sim.schedule_at(r * 3_000_000, burst)
        sim.run()
        delivered.append(net.receiver.nic.packets_received)

    best = best_of(run)
    if set(delivered) != {packets}:
        raise RuntimeError(f"delivered {set(delivered)} of {packets}")
    return {"netsim.pkt_path_ns": best / packets * 1e9}


# --- the Section 3 pipeline: workloads -> fluid -> measurement -> core -----

def fleet_pipeline(tmp: Path, seed: int) -> dict:
    """One service's campaign slice with spans at each layer boundary."""
    from repro.core import bursts as bursts_mod
    from repro.core import metrics as metrics_mod
    from repro.measurement import collection
    from repro.netsim.fluid import FluidIncast
    from repro.workloads import services

    cfg = collection.CampaignConfig(services=("aggregator",),
                                    hosts_per_service=3, n_snapshots=4,
                                    seed=seed)
    n_traces = cfg.hosts_per_service * cfg.n_snapshots
    targets = {
        "campaign": (collection, "run_service_campaign"),
        "generate": (services, "generate_host_trace"),
        "fluid": (FluidIncast, "run"),
        "summarize": (metrics_mod, "summarize_trace"),
        "detect": (bursts_mod, "detect_bursts"),
    }
    best: dict[str, float] = {}
    fluid_runs = bursts_detected = None
    for _ in range(REPEATS):
        spans = Spans()
        with spans.around(targets):
            summaries, _, _ = collection.run_service_campaign(
                cfg, "aggregator")
        if spans.count("generate") != n_traces:
            raise RuntimeError("spans missed generate_host_trace calls")
        fluid_runs = spans.count("fluid")
        bursts_detected = sum(s.n_bursts for s in summaries)
        sample = {
            "netsim.fluid_run_us":
                spans.total_s("fluid") / max(fluid_runs, 1) * 1e6,
            "workloads.generate_trace_ms":
                spans.self_s("generate") / n_traces * 1e3,
            "core.summarize_trace_ms":
                spans.total_s("summarize") / n_traces * 1e3,
            "core.detect_bursts_us":
                spans.total_s("detect") / spans.count("detect") * 1e6,
            "measurement.campaign_self_ms":
                spans.self_s("campaign") * 1e3,
        }
        for key, value in sample.items():
            best[key] = min(value, best.get(key, float("inf")))
    return {**best, "netsim.fluid_runs": fluid_runs,
            "core.bursts_detected": bursts_detected}


def cdf(tmp: Path, seed: int) -> dict:
    """Build an empirical CDF over 10k samples and read five percentiles."""
    import numpy as np
    from repro.analysis.cdf import EmpiricalCdf
    samples = np.random.default_rng(seed).lognormal(size=10_000)

    def run() -> None:
        built = EmpiricalCdf(samples)
        for p in (25.0, 50.0, 75.0, 90.0, 99.0):
            built.percentile(p)
    return {"analysis.cdf_us": best_of(run) * 1e6}


# --- telemetry ---------------------------------------------------------------

def telemetry_overhead(tmp: Path, seed: int) -> dict:
    """``incast_telemetry.wall_s`` over ``incast_steady.wall_s`` from
    three passes of each workload's own input. (The suite replaces this
    with the ratio of its two measuring runs, which have the full pass
    counts.)"""
    from bench.workloads import IncastSteady, IncastTelemetry
    on, off = IncastTelemetry(seed, tmp), IncastSteady(seed, tmp)
    on.setup()
    off.setup()
    return {"telemetry.overhead_ratio":
            best_of(lambda: on.execute(None), repeats=3)
            / best_of(lambda: off.execute(None), repeats=3)}


# --- experiments + analysis: the sweep's compile, unit and merge steps -----

def sweep_steps(tmp: Path, seed: int) -> dict:
    """YAML compile, cache keys, one fluid unit, FCT pooling, export."""
    from repro.analysis.export import write_result
    from repro.analysis.fct import pool_fct_sets
    from repro.experiments import sweep

    def compile_plan() -> list:
        return sweep.compile_units(sweep.load_sweep_file(SPEC), 1.0, seed)
    compile_s = best_of(compile_plan)
    spec = sweep.load_sweep_file(SPEC)
    units = compile_plan()
    key_s = best_of(lambda: [u.cache_key() for u in units])
    sample = units[:100]
    payloads: list = []

    def run_units() -> None:
        payloads[:] = [sweep.run_unit(u) for u in sample]
    unit_s = best_of(run_units, repeats=3)
    pool_s = best_of(lambda: pool_fct_sets([p.fcts for p in payloads]))
    result = sweep.merge(spec, sample, payloads, scale=1.0, seed=seed)
    out = _fresh(tmp, "probe-export")
    export_s = best_of(lambda: write_result(result, out))
    return {"experiments.sweep_compile_ms": compile_s * 1e3,
            "engine.cache_key_us": key_s / len(units) * 1e6,
            "experiments.fluid_unit_us": unit_s / len(sample) * 1e6,
            "analysis.fct_pool_ms": pool_s * 1e3,
            "analysis.export_ms": export_s * 1e3}


# --- engine ------------------------------------------------------------------

def cache_ops(tmp: Path, seed: int) -> dict:
    """Seal/unseal and put/get/miss of a 64 KiB payload, per unit."""
    from repro.experiments.engine import (ResultCache, seal_payload,
                                          unseal_payload)
    keys = [f"{i:064x}" for i in range(50)]
    absent = [f"{i:064x}" for i in range(1000, 1050)]
    blob = seal_payload(PAYLOAD)
    seal_s = best_of(lambda: seal_payload(PAYLOAD))
    unseal_s = best_of(lambda: unseal_payload(blob))
    put_s = float("inf")
    for _ in range(REPEATS):
        cache = ResultCache(_fresh(tmp, "probe-cache"))
        t0 = time.perf_counter()
        for key in keys:
            cache.put(key, PAYLOAD)
        put_s = min(put_s, time.perf_counter() - t0)

    def get_all(wanted: list, expect_hit: bool) -> None:
        for key in wanted:
            if (cache.get(key) is not None) != expect_hit:
                raise RuntimeError(f"cache.get({key[:8]}) hit != "
                                   f"{expect_hit}")
    get_s = best_of(lambda: get_all(keys, True))
    miss_s = best_of(lambda: get_all(absent, False))
    return {"engine.seal_us": seal_s * 1e6,
            "engine.unseal_us": unseal_s * 1e6,
            "engine.cache_put_us": put_s / len(keys) * 1e6,
            "engine.cache_get_us": get_s / len(keys) * 1e6,
            "engine.cache_miss_us": miss_s / len(absent) * 1e6}


def engine_tax(tmp: Path, seed: int) -> dict:
    """``run_experiments`` over no-op units, serial, cold then warm
    cache: wall per unit minus the time inside ``run_unit`` is ROADMAP's
    "engine tax". Also times rendering the 1000-unit run report."""
    from bench import noop_module
    from repro.experiments.engine import ResultCache, run_experiments
    n_units = 1000
    modules = {"noop": noop_module.NoopExperiment(n_units)}

    def campaign(cache_dir: Path) -> tuple[float, object]:
        noop_module.reset_inside()
        t0 = time.perf_counter()
        _, report = run_experiments(["noop"], seed=seed, jobs=1,
                                    cache=ResultCache(cache_dir),
                                    extra_modules=modules)
        wall = time.perf_counter() - t0 - noop_module.inside_s()
        return wall / n_units * 1e6, report

    cold = warm = float("inf")
    for _ in range(3):
        cache_dir = _fresh(tmp, "probe-tax")
        cold_us, report = campaign(cache_dir)
        warm_us, warm_report = campaign(cache_dir)
        if report.executed != n_units or warm_report.executed != 0:
            raise RuntimeError("no-op campaign did not run cold then warm")
        cold, warm = min(cold, cold_us), min(warm, warm_us)
    return {"engine.tax_cold_us_per_unit": cold,
            "engine.tax_warm_us_per_unit": warm,
            "engine.report_ms": best_of(report.render) * 1e3}


def journal(tmp: Path, seed: int) -> dict:
    """One journal record appended (fsyncs batched away), and one record
    appended with the default fsync-every-record policy."""
    from repro.experiments.engine import CampaignJournal

    def append(n: int, interval: float | None) -> float:
        path = _fresh(tmp, "probe-journal") / "journal.jsonl"
        with CampaignJournal(path, checkpoint_interval_s=interval) as log:
            log.record_planned("k", "noop/u", "pending")  # opens the file
            t0 = time.perf_counter()
            for i in range(n):
                log.record_completed(f"{i:064x}", f"noop/u{i}", 1, 0.0, 0,
                                     True)
            return (time.perf_counter() - t0) / n
    return {"engine.journal_append_us":
            min(append(1000, 3600.0) for _ in range(REPEATS)) * 1e6,
            "engine.journal_fsync_ms":
            min(append(20, None) for _ in range(REPEATS)) * 1e3}


def frame_roundtrip(tmp: Path, seed: int) -> dict:
    """A result frame carrying the 64 KiB payload: seal + base64 + frame
    encode, then decode + verify, no socket."""
    from repro.experiments.engine import FrameDecoder, encode_frame
    from repro.experiments.engine.distributed import (decode_payload,
                                                      encode_payload)

    def run() -> None:
        frame = encode_frame({"type": "result", "key": "k", "ok": True,
                              "payload": encode_payload(PAYLOAD)})
        (message,) = FrameDecoder().feed(frame)
        if decode_payload(message["payload"]) != PAYLOAD:
            raise RuntimeError("frame round trip changed the payload")
    return {"engine.frame_roundtrip_us": best_of(run) * 1e6}


def pool_unit(tmp: Path, seed: int) -> dict:
    """No-op units through the local process pool at ``jobs=2``."""
    from bench import noop_module
    from repro.experiments.engine import run_experiments
    n_units = 200
    modules = {"noop": noop_module.NoopExperiment(n_units)}

    def run() -> None:
        _, report = run_experiments(["noop"], seed=seed, jobs=2,
                                    extra_modules=modules)
        if report.executed != n_units:
            raise RuntimeError(f"pool executed {report.executed}")
    return {"engine.pool_unit_ms": best_of(run, repeats=3) / n_units * 1e3}


def distributed_unit(tmp: Path, seed: int) -> dict:
    """No-op units through the TCP coordinator and two loopback
    thread-workers."""
    from bench import noop_module
    from repro.experiments.engine import (DistributedBackend,
                                          run_experiments)
    from repro.tools.worker import run_worker
    n_units = 30
    modules = {"noop": noop_module.NoopExperiment(n_units)}

    def run() -> None:
        bound = threading.Event()
        address: list = []
        errors: list = []

        def listening(host: str, port: int) -> None:
            address.append((host, port))
            bound.set()

        def serve(index: int) -> None:
            try:
                if not bound.wait(30):
                    raise RuntimeError("coordinator never bound")
                run_worker(address[0], worker_id=f"probe{index}",
                           heartbeat_interval_s=0.2)
            except Exception as exc:  # reported by the probe, below
                errors.append(exc)

        workers = [threading.Thread(target=serve, args=(i,), daemon=True)
                   for i in range(2)]
        for worker in workers:
            worker.start()
        _, report = run_experiments(
            ["noop"], seed=seed, extra_modules=modules,
            backend=DistributedBackend(on_listening=listening))
        for worker in workers:
            worker.join(30)
        if errors or report.executed != n_units:
            raise RuntimeError(f"fleet executed {report.executed}, "
                               f"worker errors {errors}")
    return {"engine.distributed_unit_ms":
            best_of(run, repeats=3) / n_units * 1e3}


def remote_cache(tmp: Path, seed: int) -> dict:
    """Sealed 64 KiB blobs to and from an in-process ``CacheServer``
    over loopback HTTP."""
    from repro.experiments.engine import RemoteCacheTier, seal_payload
    from repro.tools.cacheserver import CacheServer
    blob = seal_payload(PAYLOAD)
    keys = [f"{i:064x}" for i in range(20)]
    server = CacheServer(("127.0.0.1", 0),
                         store=_fresh(tmp, "probe-store")).start()
    try:
        tier = RemoteCacheTier(server.address)

        def put_all() -> None:
            if not all(tier.put_blob(key, blob) for key in keys):
                raise RuntimeError("remote put refused")

        def get_all() -> None:
            if any(tier.get_blob(key) != blob for key in keys):
                raise RuntimeError("remote get missed")
        put_s = best_of(put_all, repeats=3)
        get_s = best_of(get_all, repeats=3)
    finally:
        server.stop()
    return {"engine.remote_put_ms": put_s / len(keys) * 1e3,
            "engine.remote_get_ms": get_s / len(keys) * 1e3}


#: Every probe with the metrics it answers for (reported as ``None``,
#: with the reason, when it cannot run).
PROBES: list[tuple[Callable[[Path, int], dict], tuple[str, ...]]] = [
    (event_churn, ("simcore.event_churn_ns",)),
    (timer_rearm, ("simcore.timer_rearm_ns",)),
    (cancel_churn, ("simcore.cancel_churn_ns",)),
    (pkt_path, ("netsim.pkt_path_ns",)),
    (fleet_pipeline, ("netsim.fluid_run_us", "netsim.fluid_runs",
                      "workloads.generate_trace_ms",
                      "core.summarize_trace_ms", "core.detect_bursts_us",
                      "core.bursts_detected",
                      "measurement.campaign_self_ms")),
    (cdf, ("analysis.cdf_us",)),
    (telemetry_overhead, ("telemetry.overhead_ratio",)),
    (sweep_steps, ("experiments.sweep_compile_ms", "engine.cache_key_us",
                   "experiments.fluid_unit_us", "analysis.fct_pool_ms",
                   "analysis.export_ms")),
    (cache_ops, ("engine.seal_us", "engine.unseal_us",
                 "engine.cache_put_us", "engine.cache_get_us",
                 "engine.cache_miss_us")),
    (engine_tax, ("engine.tax_cold_us_per_unit",
                  "engine.tax_warm_us_per_unit", "engine.report_ms")),
    (journal, ("engine.journal_append_us", "engine.journal_fsync_ms")),
    (frame_roundtrip, ("engine.frame_roundtrip_us",)),
    (pool_unit, ("engine.pool_unit_ms",)),
    (distributed_unit, ("engine.distributed_unit_ms",)),
    (remote_cache, ("engine.remote_put_ms", "engine.remote_get_ms")),
]


def run_all(tmp: Path, seed: int) -> tuple[dict, dict]:
    """Run every probe in isolation.

    Returns ``(values, errors)``: metric -> number or ``None``, and
    probe name -> one-line reason for each probe that could not run.
    """
    values: dict = {}
    errors: dict = {}
    for probe, metrics in PROBES:
        try:
            measured = probe(tmp, seed)
            missing = set(metrics) - set(measured)
            if missing:
                raise RuntimeError(f"probe omitted {sorted(missing)}")
        except Exception as exc:  # isolation boundary: record, carry on
            measured = {}
            errors[probe.__name__] = (
                f"{type(exc).__name__}: {exc}".splitlines()[0])
            traceback.print_exc()
        for metric in metrics:
            values[metric] = measured.get(metric)
    return values, errors

"""Parallel, cached, fault-tolerant experiment-execution engine.

Every experiment decomposes into independent *work units* (one flow-count
point, one service's campaign slice, one figure panel, ...) via its module's
``work_units()`` hook, and reassembles unit payloads into the final
:class:`~repro.experiments.result.ExperimentResult` via ``merge()``. The
engine:

- fans units out across a :class:`concurrent.futures.ProcessPoolExecutor`
  (``jobs=1`` executes serially in-process, matching the classic
  ``run()`` path bit for bit);
- deduplicates identical units across experiments in one invocation (the
  fig2/fig4 daily campaign is generated once, not twice);
- memoizes finished payloads in an on-disk content-addressed cache keyed by
  ``(unit fn, params, scale, seed, repro.__version__)``;
- survives partial failure: failed attempts retry with exponential
  backoff (``retries``), hung units are reaped by a per-unit wall-clock
  timeout (``unit_timeout_s``), a crashed worker only costs a pool
  respawn and the units that were in flight, and ``keep_going`` degrades
  a permanent unit failure into the loss of exactly the experiments that
  merge it (recorded in the report's ``failures`` section);
- reports per-unit wall time, attempts, simulator events processed, cache
  hit/miss counts, worker usage, pool respawns and permanent failures in
  a structured :class:`RunReport`.

Because every RNG stream in the reproduction is derived from ``(seed,
stream-name)`` (see :class:`repro.simcore.random.RngHub`), unit payloads are
independent of execution order, worker placement and retry count, which is
what makes ``--jobs N`` results identical to ``--jobs 1`` and
fault-recovered runs identical to fault-free ones.

The engine is also *crash-safe*: a journaled campaign
(:mod:`repro.experiments.engine.journal`) appends every unit state
transition to an fsynced JSONL journal, SIGTERM/SIGINT preempt it
gracefully (:class:`CampaignInterrupted`, CLI exit ``128 + signum``), and
``--resume`` replays the journal — identity-hash-verified — to run only
the remainder with charged attempt counts carried over. The result cache
doubles as the durable payload store for resumes, so it is hardened:
checksummed entries (corruption costs a recompute, never a wrong
result), graceful ``ENOSPC`` degradation, and optional LRU quota
eviction.

Execution is pluggable behind the :class:`ExecutorBackend` strategy:
:class:`SerialBackend` and :class:`LocalPoolBackend` cover the classic
in-machine paths, and :class:`DistributedBackend`
(:mod:`repro.experiments.engine.distributed`) is a TCP coordinator that
serves units to ``python -m repro.tools.worker`` clients — same cache
keys, journal records and payload bytes, so a fleet run is
byte-identical to a laptop run.

A fleet can also share results without a shared filesystem: point every
campaign and worker at a :mod:`repro.tools.cacheserver` with
``--cache-server HOST:PORT`` and the cache grows a read-through/
write-behind :class:`RemoteCacheTier` — timeout budgets, jittered
retries, a circuit breaker, and degrade-to-local semantics, reported in
the run report's ``remote_cache`` section. The shared tier can change
how often units recompute, never what they compute.

Chaos testing hooks live in :mod:`repro.experiments.engine.faults`:
deterministic crash/hang/flaky/signal/disk-full fault specs — plus
distributed-fleet modes (worker crash/hang, connection drop) and
remote-cache modes (slow/error/corrupt/down) — off by default and
invisible to cache keys.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": (
        "CorruptPayloadError", "ResultCache", "parse_hostport",
        "seal_payload", "unseal_payload", "verify_sealed"),
    "core": (
        "EXPERIMENT_MODULES", "BackendContext", "CampaignError",
        "CampaignInterrupted", "ExecutorBackend", "LocalPoolBackend",
        "SerialBackend", "jittered_backoff", "run_experiments"),
    "distributed": (
        "DistributedBackend", "FrameDecoder", "ProtocolError",
        "encode_frame"),
    "faults": (
        "FaultInjected", "FaultSpec", "faults_from_env", "parse_faults"),
    "journal": (
        "CampaignJournal", "JournalError", "JournalReplay",
        "ResumeMismatchError", "campaign_identity", "load_resume_state",
        "replay_journal"),
    "remote_cache": ("RemoteCacheTier",),
    "report": ("FailureRecord", "RunReport", "UnitReport"),
    "spec": ("WorkUnit",),
})

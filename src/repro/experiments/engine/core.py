"""Engine core: plan work units, fan out, memoize, merge — and survive.

The execution model:

1. every requested experiment contributes its ``work_units(scale, seed)``;
2. units are deduplicated across experiments by cache key (the fig2/fig4
   daily campaign is one set of units, not two);
3. cached payloads are loaded; the rest run — serially in-process when
   ``jobs == 1`` (the classic path, bit for bit), otherwise on a
   :class:`~concurrent.futures.ProcessPoolExecutor`;
4. fresh payloads are written back to the cache;
5. each experiment's ``merge(units, payloads, scale=..., seed=...)``
   reassembles its :class:`~repro.experiments.result.ExperimentResult`.

:func:`run_experiments` drives these steps as the five phase methods of
one private campaign object (``_Campaign``): plan → resolve → execute →
merge → report.

Fault tolerance (campaigns on real fleets lose hosts, and the paper's
Section 3 results only exist because collection tolerates that):

- a failed attempt (worker exception, worker crash, or unit wall-clock
  timeout) is retried up to ``retries`` times with exponential backoff;
- a worker crash breaks the whole :class:`ProcessPoolExecutor`; the
  engine kills the carcass, respawns a fresh pool and requeues **only**
  the units that were in flight — completed payloads are kept, queued
  units never notice;
- a unit that exceeds ``unit_timeout_s`` is charged a failed attempt;
  since a hung worker cannot be cancelled individually, the pool is
  respawned and innocent in-flight units are requeued *uncharged*;
- a unit that exhausts its attempts fails permanently: with
  ``keep_going=False`` (default) the run aborts with
  :class:`CampaignError`; with ``keep_going=True`` only the experiments
  that merge that unit's payload fail — everything else still merges,
  and the failure is recorded in the run report's ``failures`` section.

Crash safety (the campaign parent itself is preemptible — a scheduler
SIGTERM, an OOM kill, a power loss):

- with a journal (``journal_path``), every unit state transition is
  appended to an fsynced, line-oriented campaign journal
  (:mod:`repro.experiments.engine.journal`) before execution proceeds;
- with ``handle_signals=True`` (the CLI), SIGTERM/SIGINT trigger a
  graceful preemption: stop submitting, kill in-flight units (their
  attempts were never completed, so they are *uncharged*), sweep spill
  files, flush a final journal checkpoint, and raise
  :class:`CampaignInterrupted` so the CLI can exit ``128 + signum``;
- ``resume_from`` (a :class:`~repro.experiments.engine.journal
  .JournalReplay`) verifies the campaign identity hash, then carries
  journal state forward: completed payloads load from the result cache,
  charged failed attempts are restored onto their units (a restart can
  never reset a retry budget), and permanently failed units stay failed
  unless the new retry budget grants them another try.

Determinism: units derive every RNG stream from ``(seed, name)`` (see
:class:`repro.simcore.random.RngHub`), so payloads do not depend on worker
placement, completion order *or retry count*, and merges consume payloads
in planning order. ``--jobs N`` therefore reproduces ``--jobs 1``
exactly, a run that recovered from faults is byte-identical to a
fault-free one, and an interrupted-then-resumed campaign is
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import signal as signal_module
import threading
import time
import traceback
from collections import ChainMap
from collections.abc import Iterator, Mapping
from fnmatch import fnmatchcase
from importlib import import_module
from pathlib import Path
from types import ModuleType
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Optional,
                    Sequence, Union)

from repro.experiments.engine.cache import ResultCache
from repro.experiments.engine.faults import (DISTRIBUTED_MODES,
                                             MODE_DISK_FULL, MODE_SIGNAL,
                                             WORKER_MODES, FaultSpec,
                                             maybe_inject)
from repro.experiments.engine.journal import (CampaignJournal, JournalReplay,
                                              ResumeMismatchError,
                                              campaign_identity)
from repro.experiments.engine.report import (SOURCE_CACHE, SOURCE_FAILED,
                                             SOURCE_RUN, SOURCE_SHARED,
                                             FailureRecord, RunReport,
                                             UnitReport)
from repro.experiments.engine.spec import WorkUnit
from repro.experiments.result import ExperimentResult
from repro.simcore import kernel

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor


class _ExperimentRegistry(Mapping):
    """Read-only name → module map that imports
    ``repro.experiments.<name>`` when a name is looked up, so a campaign
    loads the experiments it runs and nothing else does (membership and
    iteration are by name and import nothing)."""

    def __init__(self, names: Sequence[str]):
        self._names = tuple(names)

    def __getitem__(self, name: str) -> ModuleType:
        if name not in self._names:
            raise KeyError(name)
        return import_module(f"repro.experiments.{name}")

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


#: Registry of experiment modules, in canonical display/run order. Each
#: module exposes ``run()``, ``work_units()`` and ``merge()``.
EXPERIMENT_MODULES = _ExperimentRegistry((
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "ablations", "crossval", "verdict"))

DEFAULT_TELEMETRY_INTERVAL_NS = 1_000_000
"""Millisampler's 1 ms sampling interval."""

DEFAULT_RETRY_BACKOFF_S = 0.05
"""Base delay before retry ``k`` (scaled by ``2**(k-1)``, jittered)."""

#: Timing-only RNG for backoff jitter. Deliberately *not* seeded from the
#: campaign seed: jitter must never be correlated across a fleet (that
#: correlation is the thundering herd), and sleep durations can never
#: reach payload bytes — every payload RNG derives from ``(seed, name)``.
_BACKOFF_RNG = random.Random()


def jittered_backoff(base_s: float, attempt: int, *, cap_s: float = 30.0,
                     rng: Optional[random.Random] = None) -> float:
    """Equal-jitter exponential backoff delay for retry ``attempt``.

    Attempt ``k`` (1-based) draws uniformly from
    ``[u/2, u]`` where ``u = min(cap_s, base_s * 2**(k-1))`` — the
    "equal jitter" scheme: the exponential floor keeps retries from
    hammering a struggling peer, the random half decorrelates a fleet
    of clients so a restarted coordinator or cache server never takes a
    synchronized thundering herd. ``base_s <= 0`` returns 0.0 exactly
    (tests that disable backoff must not accrue random sleeps).
    """
    if base_s <= 0:
        return 0.0
    upper = min(cap_s, base_s * (2 ** max(attempt - 1, 0)))
    return (rng or _BACKOFF_RNG).uniform(upper / 2.0, upper)


class CampaignError(RuntimeError):
    """A unit failed permanently and the run was not ``keep_going``.

    Attributes:
        failures: The :class:`FailureRecord` list (one entry here — the
            engine aborts on the first permanent failure).
        report: The partially filled :class:`RunReport`, so the CLI can
            still render what happened (including the failures table).
    """

    def __init__(self, message: str, failures: list[FailureRecord],
                 report: RunReport):
        super().__init__(message)
        self.failures = failures
        self.report = report


class CampaignInterrupted(BaseException):
    """The campaign was preempted by a signal (SIGTERM/SIGINT).

    A :class:`BaseException` (like :class:`KeyboardInterrupt`) so the
    per-unit retry machinery can never mistake a preemption for a unit
    failure. By the time this propagates out of
    :func:`run_experiments`, the worker pool has been reaped, spill
    files swept, and the journal's final checkpoint flushed — the
    conventional exit code is ``128 + signum``.

    Attributes:
        signum: The delivering signal's number.
        report: The partially filled :class:`RunReport` for the
            interrupted leg (journal path included when journaled).
    """

    def __init__(self, signum: int, report: Optional[RunReport] = None):
        try:
            name = signal_module.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        super().__init__(f"campaign interrupted by {name}")
        self.signum = signum
        self.report = report


class _SignalGuard:
    """Install SIGTERM/SIGINT handlers that raise
    :class:`CampaignInterrupted` for the duration of a campaign.

    Installation is skipped (harmlessly) off the main thread or when
    ``enabled=False``; previous handlers are always restored on exit.
    """

    SIGNALS = (signal_module.SIGTERM, signal_module.SIGINT)

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._previous: dict[int, Any] = {}
        self._owner_pid = os.getpid()

    def _handler(self, signum, frame) -> None:
        """Raise the preemption out of whatever the main thread is in
        (``futures_wait``, a serial unit, a backoff sleep).

        Forked pool workers inherit this registration; in a child the
        handler restores the default disposition and re-delivers, so a
        reaped worker dies like a plain SIGTERM instead of printing a
        spurious ``CampaignInterrupted`` traceback.
        """
        if os.getpid() != self._owner_pid:
            signal_module.signal(signum, signal_module.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise CampaignInterrupted(signum)

    def __enter__(self) -> "_SignalGuard":
        """Install the handlers (no-op off the main thread)."""
        if (self.enabled
                and threading.current_thread() is threading.main_thread()):
            for sig in self.SIGNALS:
                try:
                    self._previous[sig] = signal_module.signal(
                        sig, self._handler)
                except (ValueError, OSError):  # non-main thread races,
                    pass                       # exotic platforms
        return self

    def __exit__(self, *exc_info) -> None:
        """Restore whatever handlers were installed before."""
        for sig, previous in self._previous.items():
            with contextlib.suppress(Exception):
                signal_module.signal(sig, previous)
        self._previous.clear()


class _CampaignAbort(Exception):
    """Internal: unwinds the execution phase on fail-fast."""


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` request (``None`` means every available CPU).

    "Available" honours scheduler affinity where the platform exposes it:
    in a container pinned to fewer CPUs than the host owns,
    ``os.cpu_count()`` overcounts and extra workers would only add
    process-pool overhead.
    """
    if jobs is None:
        try:
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # platforms without affinity (macOS)
            return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def execute_unit(unit: WorkUnit, attempt: int = 0,
                 faults: Sequence[FaultSpec] = ()) -> tuple[Any, float,
                                                            int, int]:
    """Run one unit where we stand; returns
    ``(payload, wall_s, events_processed, pid)``.

    Used directly for serial execution and as the worker entry point for
    the process pool (it is module-level, hence picklable by reference).
    ``attempt`` and ``faults`` exist for the injectable fault layer
    (:mod:`repro.experiments.engine.faults`): they are execution context,
    never part of the unit's identity, so they cannot influence
    :meth:`WorkUnit.cache_key` or the payload of a successful run.
    """
    if faults:
        maybe_inject(unit, attempt, faults)
    fn = unit.resolve_fn()
    events_before = kernel.total_events_processed()
    started = time.perf_counter()
    payload = fn(unit)
    wall_s = time.perf_counter() - started
    events = kernel.total_events_processed() - events_before
    return payload, wall_s, events, os.getpid()


def _describe_exception(exc: BaseException) -> str:
    """Full traceback text of ``exc`` (its own chain only)."""
    return "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__)).rstrip()


def _summary_line(detail: str) -> str:
    """Last non-empty line of a traceback/description, for table cells."""
    lines = [line for line in detail.strip().splitlines() if line.strip()]
    return lines[-1].strip() if lines else "unknown error"


@dataclasses.dataclass(eq=False)
class _Task:
    """Mutable execution state of one pending unit (identity semantics)."""

    unit: WorkUnit
    key: str
    attempts: int = 0  # charged (completed-and-failed) attempts so far
    history: list[str] = dataclasses.field(default_factory=list)
    last_error: str = ""
    next_eligible: float = 0.0  # monotonic time the next attempt may start
    started: float = 0.0        # monotonic submission time of this attempt


def _kill_pool(pool: ProcessPoolExecutor) -> list[int]:
    """Terminate a pool's workers and reap them; returns their PIDs.

    ``shutdown(cancel_futures=True)`` alone never stops *running* work, so
    hung or poisoned workers must be terminated directly. Termination is
    escalated to SIGKILL for stragglers; afterwards every returned PID is
    dead, which is what lets :meth:`ResultCache.sweep_stale` reclaim any
    spill files the workers were writing.
    """
    processes = list(getattr(pool, "_processes", {}).values() or [])
    pids = [proc.pid for proc in processes if proc.pid is not None]
    for proc in processes:
        with contextlib.suppress(Exception):
            proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        with contextlib.suppress(Exception):
            proc.join(timeout=5.0)
    for proc in processes:
        if proc.is_alive():
            with contextlib.suppress(Exception):
                proc.kill()
                proc.join(timeout=5.0)
    return pids


@dataclasses.dataclass
class BackendContext:
    """Everything an :class:`ExecutorBackend` needs to run a batch.

    The engine builds one per campaign and hands it to the chosen
    backend's :meth:`ExecutorBackend.execute`; it bundles the campaign's
    retry policy, chaos specs, durable stores and result callbacks so a
    backend implementation never reaches back into engine internals.

    Attributes:
        max_attempts: Charged attempts allowed per unit (``retries + 1``).
        backoff_s: Base retry delay; attempt ``k`` waits a jittered
            ``backoff_s * 2**(k-1)`` (see :func:`jittered_backoff`).
        unit_timeout_s: Per-unit wall-clock budget (``None`` = unlimited);
            pool backends respawn past it, the distributed backend expires
            the unit's lease.
        faults: Backend-relevant :class:`FaultSpec` s — worker-side modes
            (threaded into :func:`execute_unit`) plus distributed modes
            (handled by the remote worker client around execution).
        cache: The campaign's result cache (spill-file sweeps, shared
            payload store).
        journal: The campaign journal; backends record ``started`` /
            ``attempt-failed`` / ``requeued`` transitions through it.
        on_success: Called with ``(task, payload, wall_s, events,
            worker)`` when a unit's payload exists; ``worker`` is a
            free-form executor id (``"pid:1234"``, ``"w:worker-0"``).
        on_permanent_failure: Called when a task's budget is exhausted;
            raises ``_CampaignAbort`` on fail-fast campaigns.
        respawns: Pool respawns / worker replacements so far; the
            campaign owns the context, so the count survives a fail-fast
            unwind and lands in the run report.
    """

    max_attempts: int
    backoff_s: float
    unit_timeout_s: Optional[float]
    faults: tuple[FaultSpec, ...]
    cache: ResultCache
    journal: CampaignJournal
    on_success: Callable[["_Task", Any, float, int, str], None]
    on_permanent_failure: Callable[["_Task"], None]
    respawns: int = 0

    def charge_failure(self, task: "_Task", kind: str,
                       detail: str) -> bool:
        """Charge one failed attempt against ``task``'s retry budget.

        Journals the charged attempt, and either schedules the retry
        (sets ``task.next_eligible`` to the backoff deadline, returns
        ``True`` — the backend requeues it) or declares the failure
        permanent (invokes ``on_permanent_failure``, returns ``False``).
        """
        task.attempts += 1
        task.last_error = detail
        task.history.append(
            f"attempt {task.attempts} {kind}: {_summary_line(detail)}")
        self.journal.record_attempt_failed(task.key, task.unit.label,
                                           task.attempts, kind,
                                           _summary_line(detail))
        if task.attempts >= self.max_attempts:
            self.on_permanent_failure(task)  # may raise _CampaignAbort
            return False
        task.next_eligible = time.monotonic() + jittered_backoff(
            self.backoff_s, task.attempts)
        return True

    def record_requeue(self, task: "_Task", reason: str,
                       worker: Optional[str] = None) -> None:
        """Journal an *uncharged* requeue (innocent respawn victim,
        quarantine release, lost distributed worker) and make the task
        immediately eligible again."""
        task.next_eligible = 0.0
        self.journal.record_requeued(task.key, task.unit.label, reason,
                                     worker=worker)


class ExecutorBackend:
    """Strategy interface: drive a batch of pending tasks to completion.

    A backend owns *where* units execute (in-process, local pool,
    remote fleet) and the corresponding failure detection; everything
    else — retry budgets, journaling, caching, report assembly — stays
    in the engine and is reached through the :class:`BackendContext`.
    Implementations must call ``context.on_success`` or drive each task
    to permanent failure via ``context.charge_failure``; tasks they drop
    silently would strand their experiments' merges.
    """

    #: Human-readable backend tag (CLI ``--backend`` values match these).
    name = "abstract"

    def execute(self, tasks: list["_Task"],
                context: BackendContext) -> None:
        """Run every task until success or permanent failure."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutorBackend):
    """The classic in-process path (``jobs == 1``), with retries.

    Wall-clock timeouts are not enforceable here — a hung unit would hang
    the engine itself; ``unit_timeout_s`` therefore requires a pool or
    distributed backend (validated by the engine).
    """

    name = "serial"

    def execute(self, tasks: list["_Task"],
                context: BackendContext) -> None:
        """Run tasks one after another where the engine stands."""
        for task in tasks:
            while True:
                context.journal.record_started(task.key, task.unit.label,
                                               task.attempts)
                try:
                    payload, wall_s, events, pid = execute_unit(
                        task.unit, attempt=task.attempts,
                        faults=context.faults)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    if not context.charge_failure(
                            task, "error", _describe_exception(exc)):
                        break
                    pause = task.next_eligible - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                else:
                    context.on_success(task, payload, wall_s, events,
                                       f"pid:{pid}")
                    break


class LocalPoolBackend(ExecutorBackend):
    """Fan tasks out over a (respawnable) local process pool.

    A worker crash breaks the whole :class:`ProcessPoolExecutor` and the
    culprit is unknowable from outside — every in-flight future reports
    the same :class:`BrokenProcessPool`. Charging all of them would let
    one poison unit drain innocent units' retry budgets, so blame is
    established by *quarantine*: the in-flight units are requeued
    uncharged as suspects and probed one at a time in an otherwise idle
    pool. A break with a single unit in flight is unambiguous — that
    unit is charged, and the remaining suspects are presumed innocent
    and released back to normal scheduling. Probing serializes a few
    units after a crash, which is the price of never misattributing one.

    Pool respawns are counted into ``context.respawns`` (the campaign
    owns the context, so the count survives a fail-fast unwind). On any
    unwinding exception (fail-fast abort, Ctrl-C) the pool's workers are
    killed first and their spill files swept, so nothing orphaned
    outlives the engine.

    Args:
        jobs: Pool width; ``None`` uses every available CPU. The pool is
            never wider than the batch handed to :meth:`execute`.
    """

    name = "local"

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = resolve_jobs(jobs)

    def __repr__(self) -> str:
        return f"LocalPoolBackend(jobs={self.jobs})"

    def execute(self, tasks: list["_Task"],
                context: BackendContext) -> None:
        """Drive the submit/wait/blame loop until the batch resolves."""
        # The pool (and multiprocessing behind it) loads with the first
        # batch that fans out; a serial campaign never asks for it.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
        from concurrent.futures import wait as futures_wait
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.jobs, len(tasks)) or 1
        unit_timeout_s = context.unit_timeout_s
        # Longest-expected-first: a dominant unit submitted late would
        # serialize the end of the run. Stable sort, so equal hints keep
        # plan order; results are keyed by unit, so scheduling order can
        # never affect payloads or merges.
        queue = sorted(tasks, key=lambda task: -task.unit.cost_hint)
        active: dict[Future, _Task] = {}
        # Crash suspects awaiting an isolated probe run (see docstring).
        quarantine: list[_Task] = []
        pool = ProcessPoolExecutor(max_workers=workers)

        def respawn() -> None:
            nonlocal pool
            dead = _kill_pool(pool)
            context.cache.sweep_stale(pids=dead)
            pool = ProcessPoolExecutor(max_workers=workers)
            context.respawns += 1

        def charge_failure(task: _Task, kind: str, detail: str) -> None:
            if context.charge_failure(task, kind, detail):
                queue.append(task)

        def requeue_uncharged(task: _Task, reason: str) -> None:
            """Return an innocent in-flight task to the queue, uncharged."""
            context.record_requeue(task, reason)
            queue.append(task)

        def submit(task: _Task) -> bool:
            """Hand ``task`` to the pool; False if the pool was found dead
            (task is left uncharged, the pool respawned)."""
            task.started = time.monotonic()
            try:
                future = pool.submit(execute_unit, task.unit,
                                     attempt=task.attempts,
                                     faults=tuple(context.faults))
            except (BrokenProcessPool, RuntimeError):
                respawn()
                return False
            active[future] = task
            context.journal.record_started(task.key, task.unit.label,
                                           task.attempts)
            return True

        try:
            while queue or active or quarantine:
                # Submit eligible work. One task per worker: the engine
                # keeps its own queue so per-unit deadlines start at true
                # submission time and un-submitted units survive a pool
                # respawn untouched.
                if quarantine:
                    # Probe suspects one at a time; nothing else may share
                    # the pool or blame stays ambiguous.
                    while quarantine and not active:
                        task = quarantine[0]
                        if submit(task):
                            quarantine.pop(0)
                else:
                    now = time.monotonic()
                    while len(active) < workers:
                        index = next((i for i, t in enumerate(queue)
                                      if t.next_eligible <= now), None)
                        if index is None:
                            break
                        task = queue.pop(index)
                        if not submit(task):
                            queue.insert(0, task)

                if not active:
                    # Everything runnable is backing off.
                    pause = min(task.next_eligible for task in queue) \
                        - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                    continue

                wait_s: Optional[float] = None
                if unit_timeout_s is not None:
                    deadline = min(task.started
                                   for task in active.values()) \
                        + unit_timeout_s
                    wait_s = max(deadline - time.monotonic(), 0.0)
                if not quarantine and len(active) < workers and queue:
                    # A worker is idle waiting on backoff; wake when the
                    # next retry becomes eligible.
                    eligible_in = max(
                        min(task.next_eligible for task in queue)
                        - time.monotonic(), 0.0)
                    wait_s = eligible_in if wait_s is None \
                        else min(wait_s, eligible_in)
                done, _ = futures_wait(set(active), timeout=wait_s,
                                       return_when=FIRST_COMPLETED)

                # Successful results first: when the pool breaks,
                # completed futures may sit in `done` next to the poisoned
                # one, and their payloads are still perfectly good.
                pool_broke = False
                for future in sorted(
                        done, key=lambda f: isinstance(f.exception(),
                                                       BrokenProcessPool)):
                    task = active.pop(future)
                    exc = future.exception()
                    if exc is None:
                        payload, wall_s, events, pid = future.result()
                        context.on_success(task, payload, wall_s, events,
                                           f"pid:{pid}")
                    elif isinstance(exc, BrokenProcessPool):
                        active[future] = task  # back among the suspects
                        pool_broke = True
                        break
                    else:
                        charge_failure(task, "error",
                                       _describe_exception(exc))
                if pool_broke:
                    # Every unit still in flight died with the pool;
                    # completed and queued units are untouched.
                    suspects = list(active.values())
                    active.clear()
                    respawn()
                    if len(suspects) == 1:
                        # Alone in the pool: blame is unambiguous. Charge
                        # it and presume the remaining suspects innocent.
                        charge_failure(
                            suspects[0], "worker-crash",
                            "worker process died while this unit ran "
                            "alone in the pool")
                        for task in quarantine:
                            requeue_uncharged(task, "quarantine-released")
                        quarantine.clear()
                    else:
                        # Culprit unknown: probe the suspects one at a
                        # time, uncharged until proven guilty.
                        for task in suspects:
                            context.journal.record_requeued(
                                task.key, task.unit.label,
                                "pool-crash-quarantine")
                        quarantine.extend(suspects)
                    continue

                if unit_timeout_s is not None:
                    now = time.monotonic()
                    expired = [task for task in active.values()
                               if now - task.started >= unit_timeout_s]
                    if expired:
                        # A hung worker cannot be cancelled individually:
                        # charge the expired unit(s), requeue innocent
                        # in-flight units *uncharged*, and respawn the
                        # pool.
                        victims = [task for task in active.values()
                                   if task not in expired]
                        active.clear()
                        respawn()
                        for task in victims:
                            requeue_uncharged(task, "timeout-victim")
                        for task in expired:
                            charge_failure(
                                task, "timeout",
                                f"unit exceeded the {unit_timeout_s:g}s "
                                f"wall-clock timeout")
        except BaseException:
            context.cache.sweep_stale(pids=_kill_pool(pool))
            raise
        pool.shutdown(wait=True)


@dataclasses.dataclass(eq=False)
class _Campaign:
    """The state of one :func:`run_experiments` call, advanced through
    five phases: :meth:`plan` → :meth:`resolve` → :meth:`execute` →
    :meth:`merge` → :meth:`report`.

    Each phase reads what the previous ones left on the object and adds
    its own, so the hand-offs are named attributes: the per-experiment
    ``plan_units`` and campaign ``identity`` (plan); ``payloads`` already in
    hand, the ``pending`` tasks a backend must run, the
    ``carried_failed`` tasks whose journal-carried charges already
    exhaust the budget, and the ``shared_waiting`` records owed by a
    pending unit (resolve); ``failures`` / ``failed_keys`` and the
    ``completed`` / ``failed`` progress counts (execute);
    ``failed_experiments`` and ``telemetry_sections`` (merge). The
    :class:`BackendContext` handed to the backend calls back into
    :meth:`on_success` / :meth:`on_permanent_failure`.

    The fields are :func:`run_experiments`'s own arguments, already
    validated and normalized (``modules`` is the registry with
    ``extra_modules`` layered on, ``tele_params`` the telemetry spec or
    ``None``).
    """

    names: list[str]
    modules: Mapping
    scale: float
    seed: int
    jobs: int
    cache: ResultCache
    backend: Optional["ExecutorBackend"] = None
    on_unit: Optional[Callable[[UnitReport], None]] = None
    tele_params: Optional[dict] = None
    unit_timeout_s: Optional[float] = None
    retries: int = 0
    keep_going: bool = False
    retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S
    faults: tuple[FaultSpec, ...] = ()
    journal_path: Union[str, Path, None] = None
    checkpoint_interval_s: Optional[float] = None
    resume_from: Optional[JournalReplay] = None

    def __post_init__(self) -> None:
        self.started = time.perf_counter()
        self.degradation_snapshot = self.cache.degradation_snapshot()
        journal_path = self.journal_path
        if journal_path is None and self.resume_from is not None:
            journal_path = self.resume_from.journal_path
        self.journal = CampaignJournal(
            journal_path, checkpoint_interval_s=self.checkpoint_interval_s)
        # Distributed modes travel to remote worker clients alongside the
        # classic worker-side modes; execute_unit ignores them locally.
        self.context = BackendContext(
            max_attempts=self.retries + 1, backoff_s=self.retry_backoff_s,
            unit_timeout_s=self.unit_timeout_s,
            faults=tuple(f for f in self.faults
                         if f.mode in WORKER_MODES
                         or f.mode in DISTRIBUTED_MODES),
            cache=self.cache, journal=self.journal,
            on_success=self.on_success,
            on_permanent_failure=self.on_permanent_failure)
        # -- plan --
        self.plan_units: dict[str, list[tuple[WorkUnit, str]]] = {}
        self.identity = ""
        # -- resolve --
        self.payloads: dict[str, Any] = {}
        self.records: list[UnitReport] = []
        self.pending: list[_Task] = []
        self.carried_failed: list[_Task] = []
        # Records whose payload is owed by a *pending* unit of another
        # experiment: they resolve (or fail) only when that unit does. A
        # shared record must never be reported done at plan time — the
        # backing unit may still fail, which would strand merge() on a
        # missing payload.
        self.shared_waiting: dict[str, list[UnitReport]] = {}
        self.primary_record: dict[str, UnitReport] = {}
        self.completed_carried = 0
        self.attempts_carried = 0
        # -- execute --
        self.failures: list[FailureRecord] = []
        self.failed_keys: set[str] = set()
        self.completed = 0
        self.failed = 0
        self.signal_fired: dict[int, int] = {}
        self.disk_fault_units: dict[str, WorkUnit] = {}
        self.puts_seen: dict[str, int] = {}
        self.previous_put_fault = self.cache.put_fault
        # -- merge --
        self.failed_experiments: list[str] = []
        self.telemetry_sections: dict[str, dict] = {}

    def _notify(self, record: UnitReport) -> None:
        """Progress callback: ``record``'s unit just resolved."""
        if self.on_unit:
            self.on_unit(record)

    # -- phase 1: plan -------------------------------------------------------

    def plan(self) -> None:
        """Collect every experiment's units, bind the campaign identity
        (verified against ``resume_from``) and open the journal leg."""
        for name in self.names:
            units = self.modules[name].work_units(self.scale, self.seed)
            if self.tele_params is not None:
                units = [dataclasses.replace(
                    unit, params={**unit.params,
                                  "telemetry": self.tele_params})
                    for unit in units]
            self.plan_units[name] = [(unit, unit.cache_key())
                                     for unit in units]
        self.identity = campaign_identity(
            self.names, self.scale, self.seed,
            (key for name in self.names
             for _, key in self.plan_units[name]))
        resume_from = self.resume_from
        if resume_from is not None and resume_from.identity != self.identity:
            raise ResumeMismatchError(
                f"journal {resume_from.journal_path} was recorded for "
                f"campaign {resume_from.identity[:12]}…, but the requested "
                f"plan hashes to {self.identity[:12]}… — same "
                f"experiments, scale, seed, telemetry and code version are "
                f"required to resume")
        self.journal.open_campaign(self.identity, self.names, self.scale,
                                   self.seed, self.tele_params,
                                   resumed=resume_from is not None)

    # -- phase 2: resolve ----------------------------------------------------

    def resolve(self) -> None:
        """Dedup units across experiments by cache key and settle each
        from the cache or the journal: a cache hit is done now, a key
        seen before is shared with its first holder, everything else
        becomes a pending (or carried-failed) task."""
        resume_from = self.resume_from
        replay_charged = resume_from.charged if resume_from else {}
        replay_failed = resume_from.permanent_failed if resume_from else {}
        replay_completed = resume_from.completed if resume_from else {}
        journal = self.journal
        reported: set[tuple[str, str]] = set()
        for name in self.names:
            for unit, key in self.plan_units[name]:
                report_key = (unit.experiment, unit.unit_id)
                if report_key in reported:
                    continue  # same experiment listed twice in `names`
                reported.add(report_key)
                record = UnitReport(experiment=unit.experiment,
                                    unit_id=unit.unit_id)
                self.records.append(record)
                if key in self.primary_record:
                    journal.record_planned(key, unit.label, "shared")
                    if key in self.payloads:  # backed by a cache hit: done
                        record.source = SOURCE_SHARED
                        record.worker = "shared"
                        self._notify(record)
                    else:  # backed by a pending unit: resolves with it
                        self.shared_waiting.setdefault(
                            key, []).append(record)
                    continue
                self.primary_record[key] = record
                cached = self.cache.get(key)
                if cached is not None:
                    self.payloads[key] = cached
                    record.source = SOURCE_CACHE
                    record.worker = "cache"
                    if key in replay_completed:
                        self.completed_carried += 1
                    journal.record_planned(key, unit.label, "cache")
                    self._notify(record)
                    continue
                # Journal carry-over: charged failed attempts from prior
                # legs stay charged — resuming never refills a retry
                # budget. (A journal-completed unit whose cache entry
                # was lost or corrupted re-runs from scratch instead —
                # the cache is the payload store, the journal only the
                # accounting.)
                carried = int(replay_charged.get(key, 0))
                task = _Task(unit=unit, key=key, attempts=carried)
                if carried:
                    self.attempts_carried += carried
                    task.last_error = replay_failed.get(key) or (
                        f"{carried} failed attempt(s) charged on a "
                        f"previous campaign leg")
                    task.history.append(
                        f"{carried} charged attempt(s) carried from "
                        f"journal {journal.path or ''}".rstrip())
                journal.record_planned(key, unit.label, "pending",
                                       attempts_carried=carried)
                if carried >= self.context.max_attempts:
                    self.carried_failed.append(task)
                else:
                    self.pending.append(task)

    # -- phase 3: execute ----------------------------------------------------

    def execute(self) -> None:
        """Fail the carried-failed tasks, then drive the pending ones to
        success or permanent failure on the chosen backend.

        Raises:
            CampaignError: A permanent failure on a fail-fast campaign
                (the final ``failed`` checkpoint is already flushed).
        """
        if any(f.mode == MODE_DISK_FULL for f in self.faults):
            self.disk_fault_units = {
                task.key: task.unit
                for task in self.pending + self.carried_failed}
            self.cache.put_fault = self._put_fault
        try:
            # Units whose carried charges already exhaust the retry
            # budget fail permanently without another execution.
            for task in self.carried_failed:
                self.on_permanent_failure(task)
            if self.pending:
                chosen = self.backend
                if chosen is None:
                    # Classic selection: serial in-process when the
                    # campaign cannot benefit from (or must not use) a
                    # pool, otherwise fan out locally.
                    if self.jobs == 1 or (
                            len(self.pending) == 1
                            and self.unit_timeout_s is None
                            and not any(f.mode in WORKER_MODES
                                        for f in self.faults)):
                        chosen = SerialBackend()
                    else:
                        chosen = LocalPoolBackend(jobs=self.jobs)
                chosen.execute(self.pending, self.context)
        except _CampaignAbort as abort:
            raise CampaignError(
                f"unit {abort} failed after {self.context.max_attempts} "
                f"attempt(s); rerun with keep_going/--keep-going "
                f"for partial results",
                self.failures, self.report("failed")) from None

    def _put_fault(self, key: str) -> None:
        """Raise an injected ENOSPC for matching units' cache puts (the
        ``disk_full`` chaos mode, installed as ``cache.put_fault``)."""
        unit = self.disk_fault_units.get(key)
        if unit is None:
            return
        nth = self.puts_seen.get(key, 0)
        self.puts_seen[key] = nth + 1
        for spec in self.faults:
            if spec.mode == MODE_DISK_FULL and spec.should_fire(unit, nth):
                spec.fire(unit, nth)

    def on_success(self, task: _Task, payload: Any, wall_s: float,
                   events: int, worker: str) -> None:
        """Backend callback: ``task``'s payload exists. Persist, journal
        and report it, and release the records that shared its key."""
        self.payloads[task.key] = payload
        persisted = self.cache.put(task.key, payload)
        record = self.primary_record[task.key]
        record.source = SOURCE_RUN
        record.wall_s = wall_s
        record.events = events
        record.worker = worker
        record.attempts = task.attempts + 1
        self.journal.record_completed(task.key, task.unit.label,
                                      attempts=task.attempts + 1,
                                      wall_s=wall_s, events=events,
                                      cached=persisted, worker=worker)
        self.completed += 1
        self.journal.maybe_checkpoint(completed=self.completed,
                                      failed=self.failed)
        self._notify(record)
        for dependent in self.shared_waiting.pop(task.key, []):
            dependent.source = SOURCE_SHARED
            dependent.worker = "shared"
            self._notify(dependent)
        # Deterministic preemption: a matching `signal` fault delivers
        # its signal the moment this unit's completion is journaled —
        # "SIGTERM the campaign right after the first unit finishes".
        for index, spec in enumerate(self.faults):
            count = self.signal_fired.get(index, 0)
            if spec.mode == MODE_SIGNAL \
                    and fnmatchcase(task.unit.label, spec.unit) \
                    and (spec.times < 0 or count < spec.times):
                self.signal_fired[index] = count + 1
                spec.fire(task.unit, count)

    def on_permanent_failure(self, task: _Task) -> None:
        """Backend callback: ``task``'s retry budget is exhausted. Fails
        it and every record sharing its key; raises ``_CampaignAbort``
        unless the campaign is ``keep_going``."""
        self.failed_keys.add(task.key)
        record = self.primary_record[task.key]
        record.source = SOURCE_FAILED
        record.attempts = task.attempts
        record.error = _summary_line(task.last_error)
        self.journal.record_failed(task.key, task.unit.label,
                                   attempts=task.attempts,
                                   error=_summary_line(task.last_error))
        self.failed += 1
        self._notify(record)
        dependents = self.shared_waiting.pop(task.key, [])
        for dependent in dependents:
            dependent.source = SOURCE_FAILED
            dependent.error = f"shared unit {record.label} failed"
            self._notify(dependent)
        self.failures.append(FailureRecord(
            experiment=record.experiment, unit_id=record.unit_id,
            attempts=task.attempts, error=task.last_error,
            history=list(task.history),
            shared_with=[dependent.label for dependent in dependents]))
        if not self.keep_going:
            raise _CampaignAbort(record.label)

    # -- phase 4: merge ------------------------------------------------------

    def merge(self) -> dict[str, ExperimentResult]:
        """Reassemble each experiment from its payloads, in plan order.

        A failed unit fails exactly the experiments that merge it (by
        key, so a ``SOURCE_SHARED`` dependent of a failed unit fails
        too); everything else merges from complete payload sets.
        """
        results: dict[str, ExperimentResult] = {}
        for name in self.names:
            planned = self.plan_units[name]
            if any(key in self.failed_keys for _, key in planned):
                if name not in self.failed_experiments:
                    self.failed_experiments.append(name)
                continue
            results[name] = self.modules[name].merge(
                [unit for unit, _ in planned],
                [self.payloads[key] for _, key in planned],
                scale=self.scale, seed=self.seed)
        if self.tele_params is not None:
            # Duck-typed: any payload carrying a TelemetryCapture
            # (packet-level incast units) contributes a per-unit section;
            # fluid-model payloads simply have no `telemetry` attribute.
            for name in self.names:
                for unit, key in self.plan_units[name]:
                    capture = getattr(self.payloads.get(key), "telemetry",
                                      None)
                    if capture is not None \
                            and unit.label not in self.telemetry_sections:
                        self.telemetry_sections[unit.label] = \
                            capture.to_dict()
        return results

    # -- phase 5: report -----------------------------------------------------

    def report(self, status: str, **extra: Any) -> RunReport:
        """Flush the journal's final ``status`` checkpoint and assemble
        the run report, including the crash-safety and cache-degradation
        sections."""
        self.journal.checkpoint(final=True, status=status,
                                completed=self.completed,
                                failed=self.failed, **extra)
        cache = self.cache
        report = RunReport(
            jobs=self.jobs,
            cache_enabled=cache.enabled,
            cache_dir=str(cache.directory) if cache.enabled else None,
            wall_s=time.perf_counter() - self.started,
            units=self.records,
            telemetry=self.telemetry_sections,
            failures=self.failures,
            failed_experiments=self.failed_experiments,
            pool_respawns=self.context.respawns,
        )
        if self.journal.enabled:
            report.resume = {
                "journal": str(self.journal.path),
                "identity": self.identity,
                "resumed": self.resume_from is not None,
            }
            if self.resume_from is not None:
                report.resume.update(
                    completed_carried=self.completed_carried,
                    attempts_carried=self.attempts_carried,
                    failed_carried=len(self.carried_failed))
        report.cache_degraded = cache.degradation_since(
            self.degradation_snapshot)
        remote = getattr(cache, "remote", None)
        if remote is not None:
            # Always present when a shared tier was configured — an
            # all-degraded campaign must still report honestly.
            report.remote_cache = remote.stats_section()
        return report

    def close(self) -> None:
        """Release what the campaign holds: the chaos put hook, the
        journal's file handle (flushed and fsynced) and the context."""
        self.cache.put_fault = self.previous_put_fault
        self.journal.close()
        # The context's callbacks are this object's bound methods: drop it
        # so the campaign, and every payload it holds, is freed by
        # refcount when run_experiments returns rather than at some later
        # gc pass (the cycle measured +2 MB peak RSS on the CLI workloads).
        self.context = None


def run_experiments(
        names: list[str], *, scale: float = 1.0, seed: int = 0,
        jobs: Optional[int] = None, cache: Optional[ResultCache] = None,
        backend: Optional[ExecutorBackend] = None,
        on_unit: Optional[Callable[[UnitReport], None]] = None,
        telemetry: bool = False,
        telemetry_interval_ns: Optional[int] = None,
        unit_timeout_s: Optional[float] = None,
        retries: int = 0,
        keep_going: bool = False,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        faults: Iterable[FaultSpec] = (),
        journal_path: Union[str, Path, None] = None,
        checkpoint_interval_s: Optional[float] = None,
        resume_from: Optional[JournalReplay] = None,
        handle_signals: bool = False,
        extra_modules: Optional[dict] = None,
) -> tuple[dict[str, ExperimentResult], RunReport]:
    """Run several experiments through the engine.

    Args:
        names: Experiment names from :data:`EXPERIMENT_MODULES`.
        scale: Workload scale factor (1.0 = paper scale).
        seed: Root random seed.
        jobs: Worker processes; ``None`` uses every CPU, ``1`` runs
            serially in-process. Ignored when ``backend`` is given.
        cache: Payload memo; ``None`` disables caching (library callers
            opt in, the CLI enables it by default).
        backend: Explicit :class:`ExecutorBackend` to run pending units
            on (e.g. a configured
            :class:`~repro.experiments.engine.distributed
            .DistributedBackend`, or a :class:`LocalPoolBackend` /
            :class:`SerialBackend` pinned for tests). ``None`` (default)
            keeps the classic behaviour: serial in-process when
            ``jobs == 1`` (or for a single fault-free unit without a
            timeout), a local process pool otherwise. Everything around
            execution — plan, cache, journal, resume, retry budgets,
            merge — is backend-independent, which is what makes a
            distributed run byte-comparable to a serial one.
        on_unit: Optional progress callback, invoked with each
            :class:`UnitReport` as its unit resolves.
        telemetry: Record Millisampler-style in-sim telemetry. A
            ``"telemetry"`` spec is injected into every unit's params —
            packet-level executors enable the recorder, others carry it
            inertly — so telemetry runs get distinct cache keys and can
            never pollute (or be satisfied by) telemetry-off entries.
            Captures surface in the run report's ``telemetry`` section.
        telemetry_interval_ns: Sampling interval; default 1 ms.
        unit_timeout_s: Per-unit wall-clock budget; a unit past it is
            charged a failed attempt and its worker pool is respawned.
            Requires ``jobs >= 2`` (a hung unit cannot be interrupted
            in-process).
        retries: Failed attempts retried per unit before the unit fails
            permanently (total tries = ``retries + 1``).
        keep_going: On a permanent unit failure, keep executing and
            merge every experiment that does not depend on a failed
            unit; failures land in the report's ``failures`` section.
            When ``False`` (default) the first permanent failure raises
            :class:`CampaignError`.
        retry_backoff_s: Base retry delay; attempt ``k`` waits a
            jittered ``retry_backoff_s * 2**(k-1)`` (equal-jitter, so a
            fleet's retries decorrelate). Pass 0 for immediate retries
            (tests).
        faults: :class:`FaultSpec` chaos hooks; deterministic, off by
            default, and invisible to cache keys. Worker-side modes
            thread into :func:`execute_unit`; ``signal`` specs fire in
            the campaign parent when a matching unit completes, and
            ``disk_full`` specs fire inside the matching cache write.
        journal_path: Write an append-only crash-safe campaign journal
            here (see :mod:`repro.experiments.engine.journal`). ``None``
            disables journaling unless ``resume_from`` provides a
            journal to extend.
        checkpoint_interval_s: Batch journal fsyncs to at most one per
            this many seconds (and emit periodic ``checkpoint``
            records). ``None`` fsyncs every record.
        resume_from: Journal state from a previous (interrupted) leg of
            this same campaign. The campaign identity hash is verified,
            completed payloads are served from the result cache, and
            charged attempt counts carry over — a restart never resets
            a unit's retry budget.
        handle_signals: Install SIGTERM/SIGINT handlers for the duration
            of the campaign that preempt it gracefully (kill in-flight
            units uncharged, flush a final journal checkpoint, raise
            :class:`CampaignInterrupted`). Only effective on the main
            thread; the CLI enables it, library callers usually keep
            their own signal disposition.
        extra_modules: Ad-hoc experiment modules (name → object exposing
            ``work_units(scale, seed)`` and ``merge(units, payloads, *,
            scale, seed)``) layered over :data:`EXPERIMENT_MODULES` for
            this call only. This is how declaratively compiled sweeps
            (:mod:`repro.experiments.sweep`) run through the engine —
            cache, journal, resume, fault tolerance and fan-out apply
            unchanged, because the units they compile to are ordinary
            :class:`WorkUnit` s whose identity lives in ``fn``/``params``,
            not in the registry name.

    Returns:
        ``(results, report)`` — results keyed by experiment name in the
        order requested, plus the structured run report. With
        ``keep_going=True``, experiments that lost a unit are absent
        from ``results`` and listed in ``report.failed_experiments``.

    Raises:
        CampaignError: A unit failed permanently and ``keep_going`` is
            off. The exception carries the partial run report.
        CampaignInterrupted: ``handle_signals`` was on and a
            SIGTERM/SIGINT arrived; the journal (if any) holds a final
            checkpoint and the run is resumable.
        ResumeMismatchError: ``resume_from`` belongs to a different
            campaign (names, params, scale, seed or code version drift).
    """
    modules = ChainMap(extra_modules or {}, EXPERIMENT_MODULES)
    unknown = [name for name in names if name not in modules]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}; "
                       f"choose from {sorted(modules)}")
    jobs = resolve_jobs(jobs)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if unit_timeout_s is not None and unit_timeout_s <= 0:
        raise ValueError(f"unit_timeout_s must be positive, "
                         f"got {unit_timeout_s}")
    if unit_timeout_s is not None and jobs == 1 and backend is None:
        raise ValueError("unit_timeout_s requires jobs >= 2: a hung unit "
                         "cannot be interrupted in-process")
    if isinstance(backend, SerialBackend) and unit_timeout_s is not None:
        raise ValueError("unit_timeout_s is not enforceable on the "
                         "serial backend: a hung unit cannot be "
                         "interrupted in-process")
    cache = cache if cache is not None else ResultCache(enabled=False)
    cache.sweep_stale()  # lists the spill directory, never the entries
    tele_params = None
    if telemetry:
        tele_params = {"interval_ns": int(telemetry_interval_ns
                                          or DEFAULT_TELEMETRY_INTERVAL_NS)}
    campaign = _Campaign(
        names, modules, scale=scale, seed=seed, jobs=jobs, cache=cache,
        backend=backend, on_unit=on_unit, tele_params=tele_params,
        unit_timeout_s=unit_timeout_s, retries=retries,
        keep_going=keep_going, retry_backoff_s=retry_backoff_s,
        faults=tuple(faults), journal_path=journal_path,
        checkpoint_interval_s=checkpoint_interval_s,
        resume_from=resume_from)
    campaign.plan()
    campaign.resolve()
    try:
        with _SignalGuard(handle_signals):
            campaign.execute()
            results = campaign.merge()
            return results, campaign.report("completed")
    except (CampaignInterrupted, KeyboardInterrupt) as exc:
        # Graceful preemption: by now any pool has been killed and its
        # spill files swept (the executors' unwind paths); flush the
        # final checkpoint so a later --resume sees a consistent tail.
        signum = getattr(exc, "signum", int(signal_module.SIGINT))
        report = campaign.report("interrupted", signum=int(signum))
        if isinstance(exc, CampaignInterrupted) and exc.report is None:
            exc.report = report
        raise
    finally:
        campaign.close()

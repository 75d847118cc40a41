"""Distributed campaign execution: a TCP coordinator for remote workers.

The :class:`DistributedBackend` is an
:class:`~repro.experiments.engine.core.ExecutorBackend` whose executors
are *processes the engine does not own*: ``python -m repro.tools.worker``
clients that connect over TCP, pull work units, execute them through the
exact same :func:`~repro.experiments.engine.core.execute_unit` path the
local backends use, and stream sealed payloads back. Everything above
the backend boundary — planning, cache keys, the journal, retry budgets,
merge — is untouched, which is what makes a distributed fig5 run
byte-identical to a serial one (the loopback suite in
``tests/test_engine_distributed.py`` pins this down).

Wire protocol (version :data:`PROTOCOL_VERSION`):

- **framing**: each message is a 4-byte big-endian length prefix followed
  by that many bytes of canonical JSON (one object per frame). A frame
  larger than :data:`MAX_FRAME_BYTES`, a length that is not followed by
  valid JSON, or a non-object document raises :class:`ProtocolError` —
  rejection, never a crash (the Hypothesis suite feeds the decoder
  garbage byte-by-byte);
- **handshake**: worker sends ``hello`` (protocol tag, version, worker
  id); coordinator answers ``welcome`` or ``reject`` (version mismatch →
  the worker exits with a clean error, nothing is ever leased to it);
- **work loop**: worker sends ``request``; coordinator answers ``unit``
  (full unit spec + fault specs + attempt/dispatch indices), ``wait``
  (nothing eligible right now, back off and re-request) or ``shutdown``;
- **results**: the payload travels as the *sealed* checksum-footer blob
  the result cache stores on disk (:func:`repro.experiments.engine.cache
  .seal_payload`), base64-encoded — one byte format on the wire and at
  rest, verified on both ends;
- **liveness**: workers heartbeat on a side thread even while executing,
  so a dead TCP peer and a hung executor are distinguishable failures.

Failure semantics mirror the local pool's quarantine/blame protocol:

- a worker whose connection dies (crash, drop, heartbeat timeout) has
  its leased units requeued **uncharged** — a lost worker is the fleet's
  fault, not the unit's;
- a unit that outlives ``unit_timeout_s`` on one worker expires its
  lease: *that unit* is charged a failed attempt, the holding worker's
  connection is dropped, and the worker's other leases (if any) are
  requeued uncharged — exactly the local pool's expired/victim split;
- when the queue is dry but leases are old, the coordinator hands out
  **speculative duplicates** (work stealing) so one straggler cannot
  serialize the tail; the first result wins and late duplicates are
  discarded by unit key.

Every transition lands in the same campaign journal as local execution
(with ``worker`` attribution), so SIGTERMing the coordinator exits
``128+15`` with a journal that ``--resume`` replays byte-identically.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import json
import os
import selectors
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

import repro
from repro.experiments.engine.cache import (CorruptPayloadError,
                                            parse_hostport, seal_payload,
                                            unseal_payload)
from repro.experiments.engine.core import (BackendContext, ExecutorBackend,
                                           _Task)
from repro.experiments.engine.faults import FAULTS_ENV_VAR, FaultSpec
from repro.experiments.engine.spec import WorkUnit

#: Protocol tag carried in every ``hello`` so an unrelated TCP client
#: (or a worker from a different tool entirely) is rejected by name.
PROTOCOL_NAME = "repro-dist"

#: Wire protocol version; bumped on any frame-schema change. A worker
#: whose version differs is rejected at handshake — it can never hold a
#: lease, so version drift costs a clean error, not a wrong payload.
PROTOCOL_VERSION = 1

#: Upper bound on a single frame's JSON body. Generous (sealed payloads
#: ride in frames) but finite, so a corrupt length prefix cannot make
#: the decoder attempt a multi-gigabyte allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LEN_STRUCT = struct.Struct(">I")

# Message types. Coordinator -> worker: welcome/reject/unit/wait/shutdown;
# worker -> coordinator: hello/request/heartbeat/result/error.
MSG_HELLO = "hello"
MSG_WELCOME = "welcome"
MSG_REJECT = "reject"
MSG_REQUEST = "request"
MSG_UNIT = "unit"
MSG_WAIT = "wait"
MSG_SHUTDOWN = "shutdown"
MSG_HEARTBEAT = "heartbeat"
MSG_RESULT = "result"
MSG_ERROR = "error"

#: Every defined message type (the property suite round-trips them all).
MESSAGE_TYPES = (MSG_HELLO, MSG_WELCOME, MSG_REJECT, MSG_REQUEST,
                 MSG_UNIT, MSG_WAIT, MSG_SHUTDOWN, MSG_HEARTBEAT,
                 MSG_RESULT, MSG_ERROR)


class ProtocolError(RuntimeError):
    """A peer sent bytes that are not a valid protocol frame.

    Raised for oversized declared lengths, bodies that are not valid
    JSON, and JSON documents that are not ``{"type": ...}`` objects.
    The reader drops the offending connection; it never crashes and it
    never guesses at resynchronization.
    """


def encode_frame(message: dict) -> bytes:
    """Serialize one message dict to a length-prefixed JSON frame.

    Raises:
        ProtocolError: ``message`` is not a dict with a string ``type``,
            or its canonical JSON exceeds :data:`MAX_FRAME_BYTES`.
    """
    if not isinstance(message, dict) \
            or not isinstance(message.get("type"), str):
        raise ProtocolError(f"a frame must be a dict with a string "
                            f"'type', got {type(message).__name__}")
    try:
        body = json.dumps(message, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"frame is not JSON-serializable: "
                            f"{exc}") from exc
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds "
                            f"the {MAX_FRAME_BYTES}-byte limit")
    return _LEN_STRUCT.pack(len(body)) + body


class FrameDecoder:
    """Incremental decoder for a stream of length-prefixed JSON frames.

    Feed it whatever byte chunks the socket yields — any split, down to
    one byte at a time — and it returns complete messages as they close.
    Invalid input raises :class:`ProtocolError` and poisons the decoder
    (the connection is unrecoverable once out of sync).

    Args:
        max_frame_bytes: Per-frame body limit; defaults to
            :data:`MAX_FRAME_BYTES`. Tests shrink it to exercise the
            oversize rejection path cheaply.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        if max_frame_bytes < 2:
            raise ValueError(f"max_frame_bytes must be >= 2, "
                             f"got {max_frame_bytes}")
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> list[dict]:
        """Absorb ``data``; return every message completed by it.

        Raises:
            ProtocolError: An oversized declared length, a body that is
                not valid JSON, a non-object document, or any feed after
                a previous error.
        """
        if self._poisoned:
            raise ProtocolError("decoder already failed; the connection "
                                "must be dropped")
        self._buffer.extend(data)
        messages: list[dict] = []
        try:
            while len(self._buffer) >= _LEN_STRUCT.size:
                (length,) = _LEN_STRUCT.unpack_from(self._buffer)
                if length > self.max_frame_bytes:
                    raise ProtocolError(
                        f"declared frame length {length} exceeds the "
                        f"{self.max_frame_bytes}-byte limit")
                if len(self._buffer) < _LEN_STRUCT.size + length:
                    break
                body = bytes(self._buffer[_LEN_STRUCT.size:
                                          _LEN_STRUCT.size + length])
                del self._buffer[:_LEN_STRUCT.size + length]
                try:
                    message = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ProtocolError(
                        f"frame body is not valid JSON: {exc}") from exc
                if not isinstance(message, dict) \
                        or not isinstance(message.get("type"), str):
                    raise ProtocolError("frame is not a message object "
                                        "with a string 'type'")
                messages.append(message)
        except ProtocolError:
            self._poisoned = True
            raise
        return messages

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame (0 between frames)."""
        return len(self._buffer)


def encode_payload(payload: Any) -> str:
    """Seal ``payload`` (pickle + checksum footer) and base64 it for a
    JSON frame — the exact byte format the result cache stores."""
    return base64.b64encode(seal_payload(payload)).decode("ascii")


def decode_payload(text: str) -> Any:
    """Reverse :func:`encode_payload`, verifying the checksum footer.

    Raises:
        ProtocolError: The base64 is malformed or the sealed blob fails
            verification (a torn or tampered transfer).
    """
    try:
        blob = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ProtocolError(f"payload is not valid base64: {exc}") from exc
    try:
        return unseal_payload(blob)
    except CorruptPayloadError as exc:
        raise ProtocolError(f"payload failed verification: {exc}") from exc


def unit_to_wire(unit: WorkUnit) -> dict:
    """JSON-able dict from which :func:`unit_from_wire` rebuilds a unit."""
    return dataclasses.asdict(unit)


def unit_from_wire(doc: dict) -> WorkUnit:
    """Rebuild a :class:`WorkUnit` from :func:`unit_to_wire` output.

    Raises:
        ProtocolError: Missing/unknown fields or values the
            :class:`WorkUnit` validator refuses.
    """
    if not isinstance(doc, dict):
        raise ProtocolError(f"unit spec must be an object, "
                            f"got {type(doc).__name__}")
    fields = {f.name for f in dataclasses.fields(WorkUnit)}
    unknown = set(doc) - fields
    if unknown:
        raise ProtocolError(f"unit spec has unknown fields: "
                            f"{sorted(unknown)}")
    try:
        return WorkUnit(**doc)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid unit spec: {exc}") from exc


def faults_to_wire(faults: Sequence[FaultSpec]) -> list[dict]:
    """Fault specs as JSON-able dicts for a ``unit`` frame."""
    return [dataclasses.asdict(spec) for spec in faults]


def faults_from_wire(docs: Sequence[dict]) -> tuple[FaultSpec, ...]:
    """Rebuild fault specs sent by :func:`faults_to_wire`.

    Raises:
        ProtocolError: A spec dict has unknown fields or invalid values.
    """
    specs = []
    for doc in docs:
        if not isinstance(doc, dict):
            raise ProtocolError("fault specs must be objects")
        try:
            specs.append(FaultSpec(**doc))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid fault spec: {exc}") from exc
    return tuple(specs)


@dataclasses.dataclass(eq=False)
class _Lease:
    """One outstanding hand-out of a unit to one worker connection."""

    task: _Task
    conn: "_Conn"
    dispatch: int
    started: float = dataclasses.field(default_factory=time.monotonic)


@dataclasses.dataclass(eq=False)
class _Conn:
    """Coordinator-side state of one worker connection."""

    sock: socket.socket
    addr: Any
    decoder: FrameDecoder = dataclasses.field(default_factory=FrameDecoder)
    worker_id: Optional[str] = None  # None until a valid hello
    last_seen: float = dataclasses.field(default_factory=time.monotonic)
    leases: dict[str, _Lease] = dataclasses.field(default_factory=dict)

    @property
    def tag(self) -> str:
        """Journal/report attribution string for this worker."""
        return f"w:{self.worker_id}" if self.worker_id else f"w:{self.addr}"


class DistributedBackend(ExecutorBackend):
    """TCP coordinator backend: serve units to remote worker clients.

    The coordinator is single-threaded and runs in the campaign's main
    thread (so the engine's signal handling and fault hooks behave
    exactly as they do locally): a ``selectors`` loop accepts worker
    connections, answers their requests, and folds their results into
    the campaign through the :class:`BackendContext` callbacks.

    Args:
        listen: ``(host, port)`` tuple or ``"host:port"`` string to bind;
            port 0 picks a free port (the loopback tests' default). The
            bound address is available as :attr:`address` once
            :meth:`execute` starts, and via ``on_listening``.
        spawn_workers: Convenience: launch this many local
            ``python -m repro.tools.worker`` subprocesses pointed at the
            bound address (the CLI's ``--workers N``). Spawned workers
            inherit the campaign's cache directory and are terminated —
            and their spill-file tokens swept — when the campaign ends.
        heartbeat_timeout_s: A worker silent for longer than this (no
            frames, no heartbeats) is presumed dead: its connection is
            dropped and its leases are requeued uncharged.
        steal_after_s: Age at which an outstanding lease becomes a
            work-stealing candidate for an idle worker (speculative
            duplicate execution; first result wins). ``None`` disables
            stealing.
        wait_hint_s: Backoff hint sent in ``wait`` frames when a worker
            requests work and nothing is eligible.
        on_listening: Callback invoked with ``(host, port)`` once the
            server socket is bound — how the CLI prints the address and
            how in-process tests learn the ephemeral port.
        worker_env: Extra environment variables for spawned workers
            (``REPRO_FAULTS`` is always stripped: fault specs travel in
            ``unit`` frames, and an inherited copy would double-fire).
    """

    name = "distributed"

    #: Exit deadline for spawned workers after terminate() before SIGKILL.
    _REAP_TIMEOUT_S = 5.0

    def __init__(self, listen: Union[str, tuple[str, int]] = ("127.0.0.1",
                                                              0), *,
                 spawn_workers: int = 0,
                 heartbeat_timeout_s: float = 10.0,
                 steal_after_s: Optional[float] = None,
                 wait_hint_s: float = 0.05,
                 on_listening: Optional[Callable[[str, int], None]] = None,
                 worker_env: Optional[dict[str, str]] = None):
        if isinstance(listen, str):
            listen = parse_hostport(listen)
        if spawn_workers < 0:
            raise ValueError(f"spawn_workers must be >= 0, "
                             f"got {spawn_workers}")
        if heartbeat_timeout_s <= 0:
            raise ValueError(f"heartbeat_timeout_s must be positive, "
                             f"got {heartbeat_timeout_s}")
        if steal_after_s is not None and steal_after_s <= 0:
            raise ValueError(f"steal_after_s must be positive, "
                             f"got {steal_after_s}")
        self.listen = (listen[0], int(listen[1]))
        self.spawn_workers = spawn_workers
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.steal_after_s = steal_after_s
        self.wait_hint_s = wait_hint_s
        self.on_listening = on_listening
        self.worker_env = dict(worker_env or {})
        #: Bound ``(host, port)`` — set when :meth:`execute` binds.
        self.address: Optional[tuple[str, int]] = None

    def __repr__(self) -> str:
        return (f"DistributedBackend(listen={self.listen!r}, "
                f"spawn_workers={self.spawn_workers})")

    # -- spawned-worker management ----------------------------------------

    def _spawn(self, index: int, context: BackendContext
               ) -> tuple[str, subprocess.Popen]:
        """Launch one local worker subprocess aimed at :attr:`address`."""
        host, port = self.address
        worker_id = f"spawn{index}-{os.getpid()}"
        cmd = [sys.executable, "-m", "repro.tools.worker",
               "--connect", f"{host}:{port}",
               "--worker-id", worker_id]
        if context.cache.enabled:
            cmd += ["--cache-dir", str(context.cache.directory)]
            remote = getattr(context.cache, "remote", None)
            if remote is not None:
                # Spawned workers share the campaign's cache tier stack:
                # local directory plus the same shared cache server.
                cmd += ["--cache-server", remote.address_str]
        else:
            cmd += ["--no-cache"]
        env = {**os.environ, **self.worker_env}
        env.pop(FAULTS_ENV_VAR, None)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root if not existing \
            else os.pathsep.join([src_root, existing])
        proc = subprocess.Popen(cmd, env=env)
        return worker_id, proc

    def _reap_spawned(self, spawned: dict[str, subprocess.Popen],
                      context: BackendContext) -> None:
        """Terminate spawned workers and sweep their spill tokens.

        Only *spawned* workers are swept: they are provably dead after
        the reap, whereas an externally connected worker that merely
        lost its TCP connection may be alive and mid-write.
        """
        for proc in spawned.values():
            if proc.poll() is None:
                with contextlib.suppress(Exception):
                    proc.terminate()
        deadline = time.monotonic() + self._REAP_TIMEOUT_S
        for proc in spawned.values():
            budget = max(deadline - time.monotonic(), 0.1)
            try:
                proc.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                with contextlib.suppress(Exception):
                    proc.kill()
                    proc.wait(timeout=self._REAP_TIMEOUT_S)
        if spawned:
            context.cache.sweep_stale(tokens=list(spawned))

    # -- the coordinator loop ---------------------------------------------

    def execute(self, tasks: list[_Task],
                context: BackendContext) -> None:
        """Serve ``tasks`` to connecting workers until all resolve."""
        server = socket.create_server(self.listen, backlog=64)
        server.setblocking(False)
        self.address = server.getsockname()[:2]
        if self.on_listening is not None:
            self.on_listening(*self.address)

        sel = selectors.DefaultSelector()
        sel.register(server, selectors.EVENT_READ)

        queue: list[_Task] = sorted(tasks,
                                    key=lambda task: -task.unit.cost_hint)
        remaining: set[str] = {task.key for task in tasks}
        conns: dict[socket.socket, _Conn] = {}
        leases_by_key: dict[str, list[_Lease]] = {}
        dispatch_count: dict[str, int] = {}
        spawned: dict[str, subprocess.Popen] = {}

        def send(conn: _Conn, message: dict) -> bool:
            """Best-effort frame send; on failure the worker is lost."""
            try:
                conn.sock.sendall(encode_frame(message))
                return True
            except OSError:
                lose_worker(conn, "send-failed")
                return False

        def drop_conn(conn: _Conn) -> None:
            """Unregister and close a connection (no lease handling)."""
            conns.pop(conn.sock, None)
            with contextlib.suppress(Exception):
                sel.unregister(conn.sock)
            with contextlib.suppress(Exception):
                conn.sock.close()

        def release_leases(key: str) -> None:
            """Forget every outstanding lease of ``key`` (unit resolved
            or requeued); late duplicate results are dropped by key."""
            for lease in leases_by_key.pop(key, []):
                lease.conn.leases.pop(key, None)

        def requeue(task: _Task, reason: str, worker: str) -> None:
            """Uncharged requeue of a leased unit (lost worker etc.)."""
            release_leases(task.key)
            if task.key in remaining:
                context.record_requeue(task, reason, worker=worker)
                queue.append(task)

        def lose_worker(conn: _Conn, reason: str) -> None:
            """Drop a dead/poisoned worker; requeue its leases uncharged."""
            if conn.sock not in conns:
                return  # already handled (reentrant via send())
            drop_conn(conn)
            held = list(conn.leases.values())
            conn.leases.clear()
            for lease in held:
                requeue(lease.task, reason, conn.tag)
            if held:
                context.respawns += 1

        def resolve(task: _Task) -> None:
            """Mark ``task`` finished (success or permanent failure)."""
            release_leases(task.key)
            remaining.discard(task.key)

        def eligible_index() -> Optional[int]:
            now = time.monotonic()
            return next((i for i, t in enumerate(queue)
                         if t.next_eligible <= now), None)

        def steal_candidate(conn: _Conn) -> Optional[_Lease]:
            """Oldest over-age lease not already running on ``conn``."""
            if self.steal_after_s is None:
                return None
            now = time.monotonic()
            candidates = [lease
                          for leases in leases_by_key.values()
                          for lease in leases
                          if now - lease.started >= self.steal_after_s
                          and lease.task.key not in conn.leases]
            if not candidates:
                return None
            return min(candidates, key=lambda lease: lease.started)

        def dispatch(conn: _Conn, task: _Task) -> None:
            """Lease ``task`` to ``conn`` and send its unit frame."""
            index = dispatch_count.get(task.key, 0)
            dispatch_count[task.key] = index + 1
            lease = _Lease(task=task, conn=conn, dispatch=index)
            conn.leases[task.key] = lease
            leases_by_key.setdefault(task.key, []).append(lease)
            context.journal.record_started(task.key, task.unit.label,
                                           task.attempts, worker=conn.tag)
            send(conn, {"type": MSG_UNIT, "key": task.key,
                        "label": task.unit.label,
                        "attempt": task.attempts, "dispatch": index,
                        "unit": unit_to_wire(task.unit),
                        "faults": faults_to_wire(context.faults),
                        "timeout_s": context.unit_timeout_s})

        def assign(conn: _Conn) -> None:
            """Answer one ``request``: unit, steal, wait, or shutdown."""
            index = eligible_index()
            if index is not None:
                dispatch(conn, queue.pop(index))
                return
            if not remaining:
                send(conn, {"type": MSG_SHUTDOWN})
                return
            stolen = steal_candidate(conn)
            if stolen is not None:
                dispatch(conn, stolen.task)
                return
            hint = self.wait_hint_s
            if queue:  # everything is backing off: hint the gap
                gap = min(t.next_eligible for t in queue) - time.monotonic()
                hint = max(hint, min(gap, 1.0))
            send(conn, {"type": MSG_WAIT, "backoff_s": round(hint, 4)})

        def on_result(conn: _Conn, message: dict) -> None:
            key = message.get("key")
            lease = conn.leases.pop(key, None)
            if lease is not None:
                with contextlib.suppress(ValueError):
                    leases_by_key.get(key, []).remove(lease)
            task = lease.task if lease is not None else None
            if task is None or key not in remaining:
                return  # stale duplicate from a steal race: first won
            if message.get("ok"):
                try:
                    payload = decode_payload(message.get("payload", ""))
                except ProtocolError as exc:
                    # The transfer (or the worker's pickle) is bad, the
                    # connection itself is healthy: charge the attempt.
                    if context.charge_failure(task, "corrupt-result",
                                              str(exc)):
                        release_leases(key)
                        queue.append(task)
                    else:
                        resolve(task)
                    return
                resolve(task)
                context.on_success(task, payload,
                                   float(message.get("wall_s", 0.0)),
                                   int(message.get("events", 0)),
                                   conn.tag)
            else:
                detail = message.get("detail", "remote execution failed")
                kind = message.get("kind", "error")
                if context.charge_failure(task, kind, detail):
                    release_leases(key)
                    queue.append(task)
                else:
                    resolve(task)

        def on_message(conn: _Conn, message: dict) -> None:
            conn.last_seen = time.monotonic()
            mtype = message["type"]
            if conn.worker_id is None:
                # Handshake first: anything except a valid hello is out.
                if mtype != MSG_HELLO \
                        or message.get("protocol") != PROTOCOL_NAME:
                    send(conn, {"type": MSG_REJECT,
                                "reason": "expected a hello frame with "
                                          f"protocol={PROTOCOL_NAME!r}"})
                    drop_conn(conn)
                    return
                if message.get("version") != PROTOCOL_VERSION:
                    send(conn, {"type": MSG_REJECT,
                                "reason": f"protocol version mismatch: "
                                          f"coordinator speaks "
                                          f"{PROTOCOL_VERSION}, worker "
                                          f"{message.get('version')!r}"})
                    drop_conn(conn)
                    return
                worker = message.get("worker")
                conn.worker_id = str(worker) if worker else str(conn.addr)
                send(conn, {"type": MSG_WELCOME,
                            "version": PROTOCOL_VERSION})
            elif mtype == MSG_REQUEST:
                assign(conn)
            elif mtype == MSG_HEARTBEAT:
                pass  # last_seen already refreshed
            elif mtype == MSG_RESULT:
                on_result(conn, message)
            elif mtype == MSG_ERROR:
                # Worker-declared fatal condition (e.g. cache-key drift):
                # treat like a lost worker, uncharged.
                lose_worker(conn, f"worker-error: "
                                  f"{message.get('detail', 'unknown')}")
            # Unknown-but-valid message types are ignored for forward
            # compatibility within a protocol version.

        def on_readable(conn: _Conn) -> None:
            try:
                data = conn.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                lose_worker(conn, "worker-lost")
                return
            if not data:
                lose_worker(conn, "worker-lost")
                return
            try:
                messages = conn.decoder.feed(data)
            except ProtocolError as exc:
                lose_worker(conn, f"protocol-error: {exc}")
                return
            for message in messages:
                on_message(conn, message)
                if conn.sock not in conns:
                    return  # dropped mid-batch

        def check_liveness() -> None:
            now = time.monotonic()
            for conn in list(conns.values()):
                if conn.worker_id is None:
                    continue  # pre-handshake sockets have no leases
                if now - conn.last_seen > self.heartbeat_timeout_s:
                    lose_worker(conn, "heartbeat-timeout")

        def check_lease_timeouts() -> None:
            if context.unit_timeout_s is None:
                return
            now = time.monotonic()
            expired = [lease
                       for leases in leases_by_key.values()
                       for lease in leases
                       if now - lease.started >= context.unit_timeout_s]
            for lease in expired:
                task, conn = lease.task, lease.conn
                if task.key not in remaining \
                        or lease not in leases_by_key.get(task.key, []):
                    continue  # resolved/requeued by an earlier expiry
                # The hung unit is charged; the worker holding it is
                # dropped (it cannot be trusted to come back), and its
                # *other* leases are requeued uncharged — the same
                # expired/victim split the local pool applies.
                conn.leases.pop(task.key, None)
                with contextlib.suppress(ValueError):
                    leases_by_key.get(task.key, []).remove(lease)
                victims = [v.task for v in conn.leases.values()]
                drop_conn(conn)
                conn.leases.clear()
                context.respawns += 1
                still_leased = bool(leases_by_key.get(task.key))
                if context.charge_failure(
                        task, "timeout",
                        f"unit exceeded the {context.unit_timeout_s:g}s "
                        f"lease timeout on {conn.tag}"):
                    if not still_leased:
                        queue.append(task)
                else:
                    resolve(task)
                for victim in victims:
                    requeue(victim, "timeout-victim", conn.tag)

        def poll_timeout() -> float:
            """Sleep only as long as the nearest deadline allows."""
            now = time.monotonic()
            horizon = now + 0.25
            if context.unit_timeout_s is not None:
                for leases in leases_by_key.values():
                    for lease in leases:
                        horizon = min(horizon, lease.started
                                      + context.unit_timeout_s)
            for task in queue:
                if task.next_eligible > now:
                    horizon = min(horizon, task.next_eligible)
            return max(horizon - now, 0.01)

        try:
            for index in range(self.spawn_workers):
                worker_id, proc = self._spawn(index, context)
                spawned[worker_id] = proc
            while remaining:
                events = sel.select(timeout=poll_timeout())
                for key_event, _ in events:
                    if key_event.fileobj is server:
                        with contextlib.suppress(OSError):
                            sock, addr = server.accept()
                            sock.setblocking(True)
                            sock.settimeout(self.heartbeat_timeout_s)
                            conn = _Conn(sock=sock, addr=f"{addr[0]}:"
                                                         f"{addr[1]}")
                            conns[sock] = conn
                            sel.register(sock, selectors.EVENT_READ)
                        continue
                    conn = conns.get(key_event.fileobj)
                    if conn is not None:
                        on_readable(conn)
                check_liveness()
                check_lease_timeouts()
                # A spawned worker that died without connecting (or
                # whose crash fault fired) must not strand the campaign:
                # its tokens are swept at reap time, its leases by the
                # connection-loss path above. Nothing to do here — but
                # detect the pathological "no workers will ever come"
                # case where every spawned worker exited pre-handshake.
                if (self.spawn_workers and not conns
                        and all(proc.poll() is not None
                                for proc in spawned.values())
                        and not any(proc.returncode == 0
                                    for proc in spawned.values())):
                    raise RuntimeError(
                        "all spawned distributed workers exited "
                        "abnormally before completing the campaign: "
                        + ", ".join(f"{wid}: rc={proc.returncode}"
                                    for wid, proc in spawned.items()))
        finally:
            # Best-effort shutdown broadcast (also on preemption, so
            # external workers stop instead of waiting out a timeout) —
            # bounded by the per-socket send timeout.
            shutdown_frame = encode_frame({"type": MSG_SHUTDOWN})
            for conn in list(conns.values()):
                try:
                    conn.sock.sendall(shutdown_frame)
                except OSError:
                    drop_conn(conn)
            # Drain reads until each worker closes its end (bounded by a
            # grace deadline). Closing immediately would RST connections
            # whose request/heartbeat frames sit unread in our receive
            # buffer, discarding the shutdown frame mid-transit and
            # sending the worker into a doomed reconnect loop.
            with contextlib.suppress(Exception):
                sel.unregister(server)
            deadline = time.monotonic() + 2.0
            while conns and time.monotonic() < deadline:
                events = sel.select(timeout=max(
                    deadline - time.monotonic(), 0.01))
                for key_event, _ in events:
                    conn = conns.get(key_event.fileobj)
                    if conn is None:
                        continue
                    try:
                        if not conn.sock.recv(65536):
                            drop_conn(conn)
                    except OSError:
                        drop_conn(conn)
                if not events:
                    break
            for conn in list(conns.values()):
                drop_conn(conn)
            with contextlib.suppress(Exception):
                sel.close()
            with contextlib.suppress(Exception):
                server.close()
            self._reap_spawned(spawned, context)

"""Distributed campaign worker: connect, pull units, execute, stream back.

``python -m repro.tools.worker --connect HOST:PORT`` turns any machine
that can import :mod:`repro` into an executor for a coordinator started
with ``python -m repro.experiments --backend distributed --listen ...``.
The worker speaks the length-prefixed JSON frame protocol of
:mod:`repro.experiments.engine.distributed`, executes every unit through
the exact same :func:`repro.experiments.engine.core.execute_unit` path
local runs use (so payloads are byte-identical wherever they run), and
returns results as sealed checksum-footer blobs — the result cache's
on-disk format, verified again by the coordinator on receipt.

Liveness and chaos semantics:

- a daemon **heartbeat thread** keeps frames flowing even while a unit
  executes, so the coordinator can tell "slow unit" from "dead worker";
- distributed fault modes (``worker_crash`` / ``worker_hang`` /
  ``conn_drop``) arrive *inside* ``unit`` frames and fire on the unit's
  **dispatch index** (how many times any coordinator handed it out), so
  an uncharged requeue cannot re-fire a ``times=1`` fault forever;
- ``conn_drop`` abruptly closes the socket mid-lease and reconnects —
  the transient-partition case: the coordinator requeues the unit
  uncharged and this worker rejoins the fleet;
- a protocol-version mismatch is a **clean error** (exit code 3): the
  coordinator rejects the hello before anything is leased.

Exit codes: 0 success (shutdown received or ``--max-units`` reached),
2 usage error, 3 rejected at handshake, 4 connection lost/failed past
``--reconnect-attempts``.

Note: when several workers run as *threads* of one process (the loopback
test suite), the per-unit event counts reported to the coordinator come
from a process-global kernel counter and may interleave; payloads are
unaffected (every unit derives its RNG from ``(seed, name)`` alone).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import socket
import struct
import sys
import threading
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.engine.cache import (ResultCache, _tiered_cache,
                                            finite_positive)
from repro.experiments.engine.core import (_describe_exception, execute_unit,
                                           jittered_backoff)
from repro.experiments.engine.distributed import (MSG_ERROR, MSG_HEARTBEAT,
                                                  MSG_HELLO, MSG_REJECT,
                                                  MSG_REQUEST, MSG_RESULT,
                                                  MSG_SHUTDOWN, MSG_UNIT,
                                                  MSG_WAIT, MSG_WELCOME,
                                                  PROTOCOL_NAME,
                                                  PROTOCOL_VERSION,
                                                  FrameDecoder,
                                                  ProtocolError,
                                                  encode_frame,
                                                  encode_payload,
                                                  faults_from_wire,
                                                  parse_hostport,
                                                  unit_from_wire)
from repro.experiments.engine.faults import (DISTRIBUTED_MODES,
                                             MODE_CONN_DROP, WORKER_MODES,
                                             FaultInjected)

#: Exit codes (also the module's public contract for the CLI tests).
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REJECTED = 3
EXIT_CONNECTION = 4

#: Default seconds between heartbeat frames.
DEFAULT_HEARTBEAT_INTERVAL_S = 2.0

#: How long (and at what base delay) to retry the initial TCP connect —
#: covers the two-terminal quickstart where the worker starts first.
#: Actual sleeps are jittered-exponential on the base delay (capped at
#: :data:`RETRY_DELAY_CAP_S`), so a whole fleet restarting at once never
#: hammers a recovering coordinator in lockstep.
CONNECT_RETRY_WINDOW_S = 15.0
CONNECT_RETRY_DELAY_S = 0.25
RETRY_DELAY_CAP_S = 2.0

#: Longest worker token stamped into cache spill-file names; ids beyond
#: it are truncated (tokens only need to be *distinguishable to their
#: owner* for sweep_stale, not globally unique, and file-name length
#: limits are real).
MAX_WORKER_TOKEN_LEN = 64


class WorkerRejected(RuntimeError):
    """The coordinator refused this worker (handshake reject, or a unit
    frame that fails identity verification); nothing held, exit clean."""


class ConnectionLost(RuntimeError):
    """The coordinator connection failed mid-session."""


class _ConnDropRequested(Exception):
    """Internal: a ``conn_drop`` fault asked for an abrupt disconnect."""


def sanitize_worker_token(worker_id: str) -> str:
    """Turn an arbitrary worker id into a valid cache spill-file token.

    :class:`ResultCache` tokens must be dot-free and filesystem-safe
    (``[A-Za-z0-9][A-Za-z0-9_-]*``), but worker ids default to
    ``<hostname>-<pid>`` and hostnames may carry dots. Over-long ids are
    truncated to :data:`MAX_WORKER_TOKEN_LEN` so spill-file names stay
    under filesystem name limits.
    """
    token = re.sub(r"[^A-Za-z0-9_-]", "-", worker_id).lstrip("-_")
    return token[:MAX_WORKER_TOKEN_LEN] or "worker"


class _Connection:
    """One live coordinator connection with a send lock.

    The lock serializes the main loop's frames with the heartbeat
    thread's; frame boundaries must never interleave on the wire.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = FrameDecoder()
        self.send_lock = threading.Lock()
        self.inbox: list[dict] = []

    def send(self, message: dict) -> None:
        """Send one frame atomically; :class:`ConnectionLost` on failure."""
        frame = encode_frame(message)
        try:
            with self.send_lock:
                self.sock.sendall(frame)
        except OSError as exc:
            raise ConnectionLost(f"send failed: {exc}") from exc

    def recv_message(self) -> dict:
        """Block until the next complete frame arrives."""
        while not self.inbox:
            try:
                data = self.sock.recv(1 << 16)
            except socket.timeout as exc:
                raise ConnectionLost("coordinator silent past the socket "
                                     "timeout") from exc
            except OSError as exc:
                raise ConnectionLost(f"recv failed: {exc}") from exc
            if not data:
                raise ConnectionLost("coordinator closed the connection")
            try:
                self.inbox.extend(self.decoder.feed(data))
            except ProtocolError as exc:
                raise ConnectionLost(f"protocol error from coordinator: "
                                     f"{exc}") from exc
        return self.inbox.pop(0)

    def close(self, *, abrupt: bool = False) -> None:
        """Close the socket; ``abrupt`` sends an RST instead of a FIN
        (the ``conn_drop`` fault imitating a yanked cable)."""
        with self.send_lock:
            if abrupt:
                with contextlib.suppress(OSError):
                    self.sock.setsockopt(socket.SOL_SOCKET,
                                         socket.SO_LINGER,
                                         struct.pack("ii", 1, 0))
            with contextlib.suppress(OSError):
                self.sock.close()


def connect(address: tuple[str, int], worker_id: str, *,
            timeout_s: float = 30.0,
            retry_window_s: float = CONNECT_RETRY_WINDOW_S) -> _Connection:
    """Dial the coordinator and complete the hello/welcome handshake.

    Retries the TCP connect for ``retry_window_s`` (workers may start
    before the coordinator binds), then raises :class:`ConnectionLost`.
    A ``reject`` answer raises :class:`WorkerRejected`.
    """
    deadline = time.monotonic() + retry_window_s
    sock: Optional[socket.socket] = None
    attempt = 0
    while sock is None:
        try:
            sock = socket.create_connection(address, timeout=timeout_s)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise ConnectionLost(
                    f"could not connect to coordinator at "
                    f"{address[0]}:{address[1]}: {exc}") from exc
            attempt += 1
            time.sleep(jittered_backoff(CONNECT_RETRY_DELAY_S, attempt,
                                        cap_s=RETRY_DELAY_CAP_S))
    sock.settimeout(timeout_s)
    conn = _Connection(sock)
    conn.send({"type": MSG_HELLO, "protocol": PROTOCOL_NAME,
               "version": PROTOCOL_VERSION, "worker": worker_id})
    answer = conn.recv_message()
    if answer.get("type") == MSG_REJECT:
        conn.close()
        raise WorkerRejected(answer.get("reason", "rejected"))
    if answer.get("type") != MSG_WELCOME:
        conn.close()
        raise ConnectionLost(f"expected welcome, got "
                             f"{answer.get('type')!r}")
    return conn


def _heartbeat_loop(conn: _Connection, worker_id: str,
                    interval_s: float, stop: threading.Event) -> None:
    """Daemon thread body: heartbeat until stopped or the send fails."""
    while not stop.wait(interval_s):
        try:
            conn.send({"type": MSG_HEARTBEAT, "worker": worker_id})
        except ConnectionLost:
            return


def _execute_frame(message: dict,
                   cache: Optional[ResultCache]) -> dict:
    """Run one ``unit`` frame; returns the ``result`` frame to send.

    Raises:
        _ConnDropRequested: A ``conn_drop`` fault matched this dispatch.
        ProtocolError: The frame's unit/fault specs are malformed or the
            recomputed cache key disagrees with the coordinator's (code
            or version drift between the two ends).
    """
    unit = unit_from_wire(message.get("unit"))
    key = message.get("key")
    if unit.cache_key() != key:
        raise ProtocolError(
            f"unit {unit.label}: recomputed cache key does not match the "
            f"coordinator's — worker and coordinator run different code "
            f"or repro versions")
    attempt = int(message.get("attempt", 0))
    dispatch = int(message.get("dispatch", 0))
    faults = faults_from_wire(message.get("faults", []))
    worker_faults = tuple(f for f in faults if f.mode in WORKER_MODES)
    # Distributed modes fire on the dispatch index (see module
    # docstring); worker_crash never returns, worker_hang sleeps with
    # heartbeats flowing then raises, conn_drop unwinds to the
    # reconnect path.
    for spec in (f for f in faults if f.mode in DISTRIBUTED_MODES):
        if not spec.should_fire(unit, dispatch):
            continue
        if spec.mode == MODE_CONN_DROP:
            if spec.marker:
                Path(spec.marker).touch()
            raise _ConnDropRequested(unit.label)
        try:
            spec.fire(unit, dispatch)  # exits (crash) or sleeps+raises
        except FaultInjected as exc:
            return {"type": MSG_RESULT, "key": key, "dispatch": dispatch,
                    "ok": False, "kind": "error",
                    "detail": _describe_exception(exc)}
    try:
        payload, wall_s, events, _pid = execute_unit(
            unit, attempt=attempt, faults=worker_faults)
    except Exception as exc:
        return {"type": MSG_RESULT, "key": key, "dispatch": dispatch,
                "ok": False, "kind": "error",
                "detail": _describe_exception(exc)}
    if cache is not None:
        cache.put(key, payload)
    return {"type": MSG_RESULT, "key": key, "dispatch": dispatch,
            "ok": True, "payload": encode_payload(payload),
            "wall_s": round(wall_s, 6), "events": events}


def run_worker(address: tuple[str, int], *,
               worker_id: Optional[str] = None,
               cache: Optional[ResultCache] = None,
               heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
               reconnect_attempts: int = 1,
               max_units: Optional[int] = None) -> int:
    """Serve a coordinator until it shuts us down; returns units executed.

    This is the in-process entry the loopback tests drive from threads;
    the CLI :func:`main` is a thin wrapper. One unit executes at a time
    (the coordinator leases accordingly); the heartbeat thread keeps the
    connection demonstrably alive throughout.

    Args:
        address: Coordinator ``(host, port)``.
        worker_id: Fleet-unique identity; defaults to
            ``"<hostname>-<pid>"``.
        cache: Optional shared result cache to write payloads into (its
            ``worker_token`` should be this worker's sanitized id, so a
            coordinator can never mistake this worker's in-flight writes
            for dead-local-process garbage).
        heartbeat_interval_s: Seconds between heartbeat frames.
        reconnect_attempts: Reconnect budget after a lost (or
            fault-dropped) connection; 0 gives up on the first loss.
        max_units: Stop after this many executed units (tests).

    Raises:
        WorkerRejected: Handshake refused (version/protocol mismatch) or
            a unit frame failed identity verification.
        ConnectionLost: Connection failed beyond the reconnect budget.
    """
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    executed = 0
    reconnects_left = reconnect_attempts
    while True:
        conn = connect(address, worker_id)
        stop = threading.Event()
        threading.Thread(
            target=_heartbeat_loop,
            args=(conn, worker_id, heartbeat_interval_s, stop),
            name=f"heartbeat-{worker_id}", daemon=True).start()
        try:
            conn.send({"type": MSG_REQUEST, "worker": worker_id})
            while True:
                message = conn.recv_message()
                mtype = message.get("type")
                if mtype == MSG_SHUTDOWN:
                    return executed
                if mtype == MSG_WAIT:
                    time.sleep(float(message.get("backoff_s", 0.05)))
                    conn.send({"type": MSG_REQUEST, "worker": worker_id})
                    continue
                if mtype != MSG_UNIT:
                    continue  # forward-compatible: ignore unknown types
                try:
                    result = _execute_frame(message, cache)
                except ProtocolError as exc:
                    # Malformed unit or identity drift: report and stop —
                    # executing anyway could poison the shared cache.
                    with contextlib.suppress(ConnectionLost):
                        conn.send({"type": MSG_ERROR, "detail": str(exc)})
                    raise WorkerRejected(str(exc)) from exc
                conn.send(result)
                if result.get("ok"):
                    executed += 1
                if max_units is not None and executed >= max_units:
                    return executed
                conn.send({"type": MSG_REQUEST, "worker": worker_id})
        except _ConnDropRequested:
            stop.set()
            conn.close(abrupt=True)
            if reconnects_left <= 0:
                raise ConnectionLost(
                    "connection dropped (injected) and no reconnect "
                    "budget remains") from None
            reconnects_left -= 1
            continue
        except ConnectionLost:
            stop.set()
            conn.close()
            if reconnects_left <= 0:
                raise
            reconnects_left -= 1
            # Jittered by how deep into the budget we are: a coordinator
            # restart must not see the whole fleet redial in lockstep.
            time.sleep(jittered_backoff(
                CONNECT_RETRY_DELAY_S,
                reconnect_attempts - reconnects_left,
                cap_s=RETRY_DELAY_CAP_S))
            continue
        finally:
            stop.set()
            conn.close()


def build_parser() -> argparse.ArgumentParser:
    """CLI parser for ``python -m repro.tools.worker``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.worker",
        description="Execute work units for a distributed repro "
                    "campaign coordinator.")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address (e.g. 127.0.0.1:7777)")
    parser.add_argument("--worker-id", default=None,
                        help="fleet-unique worker identity "
                             "(default: <hostname>-<pid>)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="shared result-cache directory (should be "
                             "the coordinator's --cache-dir)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not write payloads to any result cache")
    parser.add_argument("--cache-server", default=None,
                        metavar="HOST:PORT",
                        help="shared cache server (python -m "
                             "repro.tools.cacheserver) to read through "
                             "and write behind; requires --cache-dir, "
                             "degrades to local-only when unreachable")
    parser.add_argument("--heartbeat-interval", type=finite_positive,
                        default=DEFAULT_HEARTBEAT_INTERVAL_S,
                        metavar="SECONDS",
                        help="seconds between liveness heartbeats "
                             "(default %(default)s)")
    parser.add_argument("--reconnect-attempts", type=int, default=1,
                        metavar="N",
                        help="reconnects allowed after a lost "
                             "connection (default %(default)s)")
    parser.add_argument("--max-units", type=int, default=None, metavar="N",
                        help="exit after executing N units (testing)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code (see module docstring)."""
    args = build_parser().parse_args(argv)
    try:
        address = parse_hostport(args.connect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.reconnect_attempts < 0:
        print("error: --reconnect-attempts must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    worker_id = args.worker_id or f"{socket.gethostname()}-{os.getpid()}"
    if args.cache_server is not None and not args.cache_dir:
        print("error: --cache-server requires --cache-dir (the "
              "remote tier layers over a local one)", file=sys.stderr)
        return EXIT_USAGE
    try:
        # No --cache-dir (or --no-cache) leaves the stack disabled: its
        # put() is then a no-op and payloads travel only over the wire.
        cache = _tiered_cache(
            args.cache_dir,
            enabled=bool(args.cache_dir) and not args.no_cache,
            server=args.cache_server,
            worker_token=sanitize_worker_token(worker_id))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        executed = run_worker(
            address, worker_id=worker_id, cache=cache,
            heartbeat_interval_s=args.heartbeat_interval,
            reconnect_attempts=args.reconnect_attempts,
            max_units=args.max_units)
    except WorkerRejected as exc:
        print(f"worker {worker_id} rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except ConnectionLost as exc:
        print(f"worker {worker_id} lost the coordinator: {exc}",
              file=sys.stderr)
        return EXIT_CONNECTION
    print(f"worker {worker_id} done: {executed} unit(s) executed",
          file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    from repro._cli import exit_after
    exit_after(main)

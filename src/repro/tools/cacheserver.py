"""Shared result-cache server: sealed blobs over plain HTTP.

``python -m repro.tools.cacheserver --listen HOST:PORT`` turns one
machine into the shared cache tier for a worker fleet: campaigns started
with ``--cache-server HOST:PORT`` read through it on local misses and
write finished units behind to it, so a unit any fleet member already
computed is never recomputed by another — without a shared filesystem.

The wire contract is deliberately tiny and *identical to the disk
contract*: a GET or PUT body is exactly one sealed checksum-footer blob
(:func:`repro.experiments.engine.cache.seal_payload`), verified on both
ends of every transfer. The server never unpickles payloads — it calls
:func:`repro.experiments.engine.cache.verify_sealed` (footer checksum
only), so it can store blobs for experiments whose code it does not
have, and a bit-flip anywhere between a worker's RAM and the server's
disk is caught at the next hop, costing a recompute, never a wrong
result.

Storage *is* a :class:`repro.experiments.engine.cache.ResultCache`:
version-namespaced keys, atomic temp+rename writes, the same LRU quota
eviction (``--quota``), and sweepable spill files (stale spills are
swept once at startup). A quota-evicted entry is simply a future miss.

Routes (keys are lowercase-hex cache keys):

- ``GET /blob/<key>`` — ``200`` with the blob, or ``404`` (miss; also
  how a corrupt-on-disk entry answers, after being dropped).
- ``PUT /blob/<key>`` — ``204`` stored, ``400`` the body failed its
  checksum footer, ``507`` the store refused it (quota/disk).
- ``GET /healthz`` — ``200`` with a JSON stats document (request
  counters, store location, quota) for monitoring and the CI smoke job.

Clients send their :mod:`repro` version in the ``X-Repro-Version``
header; a mismatch answers ``409`` and the client degrades permanently
for the campaign — version drift can cost cache sharing, never mix
entry formats (the version-namespaced key layout is the second fence).

The server is intentionally trusting (no auth, no TLS): like the
distributed coordinator it expects a private lab network. Nothing a
malicious client sends can corrupt the store — every body is
checksum-verified before the atomic rename — but anyone who can reach
the port can read or add entries.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Sequence, Union

import repro
from repro.experiments.engine.cache import (CorruptPayloadError, ResultCache,
                                            parse_hostport, parse_size,
                                            verify_sealed)

#: Exit codes for the CLI.
EXIT_OK = 0
EXIT_USAGE = 2

#: Default store directory (kept apart from the local result cache so a
#: server and a worker on one machine never share LRU clocks).
DEFAULT_STORE = "~/.cache/repro-cacheserver"

#: Largest PUT body accepted (a guard against a confused client, not a
#: tuning knob — sealed unit payloads are orders of magnitude smaller).
MAX_BLOB_BYTES = 256 * 1024 * 1024

#: Cache keys are lowercase hex digests (the engine uses sha256 prefixes).
_KEY_RE = re.compile(r"/blob/([0-9a-f]{8,128})\Z")

_VERSION_HEADER = "X-Repro-Version"


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request against the blob store (instantiated per request
    by :class:`ThreadingHTTPServer`; state lives on ``self.server``)."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-cacheserver/{repro.__version__}"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Route per-request logging through the server's verbosity flag
        (stderr when ``--verbose``, silent otherwise)."""
        if getattr(self.server, "verbose", False):
            sys.stderr.write("cacheserver: %s - %s\n"
                             % (self.address_string(), format % args))

    def _reply(self, status: int, body: bytes = b"",
               content_type: str = "text/plain") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _check_version(self) -> bool:
        """Reject (409) a client from a different repro release; absent
        headers pass (curl-style debugging stays possible)."""
        theirs = self.headers.get(_VERSION_HEADER)
        if theirs is not None and theirs != repro.__version__:
            self.server.stats["rejected_version"] += 1
            self._reply(409, f"version mismatch: server has repro "
                             f"{repro.__version__}, client sent "
                             f"{theirs}\n".encode())
            return False
        return True

    def do_GET(self) -> None:
        """Serve ``GET /blob/<key>`` and ``GET /healthz``."""
        if self.path == "/healthz":
            body = json.dumps(self.server.stats_document(),
                              indent=2).encode() + b"\n"
            self._reply(200, body, "application/json")
            return
        if not self._check_version():
            return
        match = _KEY_RE.match(self.path)
        if not match:
            self._reply(404, b"unknown path\n")
            return
        self.server.stats["gets"] += 1
        blob = self.server.cache.get_blob(match.group(1))
        if blob is None:
            self.server.stats["get_misses"] += 1
            self._reply(404, b"no such blob\n")
            return
        self.server.stats["get_hits"] += 1
        self.server.stats["bytes_out"] += len(blob)
        self._reply(200, blob, "application/octet-stream")

    def do_PUT(self) -> None:
        """Serve ``PUT /blob/<key>``: checksum-verify, then store
        atomically."""
        if not self._check_version():
            return
        match = _KEY_RE.match(self.path)
        if not match:
            self._reply(400, b"PUT path must be /blob/<hex-key>\n")
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._reply(411, b"Content-Length required\n")
            return
        if not 0 < length <= MAX_BLOB_BYTES:
            self._reply(413, b"blob size out of range\n")
            return
        blob = self.rfile.read(length)
        self.server.stats["puts"] += 1
        self.server.stats["bytes_in"] += len(blob)
        try:
            verify_sealed(blob)
        except CorruptPayloadError as exc:
            self.server.stats["rejected_corrupt"] += 1
            self._reply(400, f"rejected: {exc}\n".encode())
            return
        # Handler threads share one PID, so their spill-file names would
        # collide; the store lock serializes writes (they are tiny).
        with self.server.put_lock:
            stored = self.server.cache.put_blob(match.group(1), blob)
        if not stored:
            self.server.stats["put_refused"] += 1
            self._reply(507, b"store refused the blob (quota or disk)\n")
            return
        self.server.stats["put_stored"] += 1
        self._reply(204)


class _BlobServer(ThreadingHTTPServer):
    """The HTTP server with its store, lock, and counters attached."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], cache: ResultCache,
                 verbose: bool = False):
        super().__init__(address, _Handler)
        self.cache = cache
        self.verbose = verbose
        self.put_lock = threading.Lock()
        self.stats = {"gets": 0, "get_hits": 0, "get_misses": 0,
                      "puts": 0, "put_stored": 0, "put_refused": 0,
                      "rejected_corrupt": 0, "rejected_version": 0,
                      "bytes_in": 0, "bytes_out": 0}

    def stats_document(self) -> dict:
        """The ``/healthz`` JSON document."""
        return {"version": repro.__version__,
                "store": str(self.cache.directory),
                "quota_bytes": self.cache.quota_bytes,
                "evictions": self.cache.evictions,
                **self.stats}


class CacheServer:
    """In-process cache server handle (what the tests and chaos suite
    drive; the CLI is a thin wrapper around it).

    Args:
        address: ``(host, port)`` to bind; port ``0`` picks a free one
            (read the real one back from :attr:`address` after
            :meth:`start`).
        store: Blob store directory; default :data:`DEFAULT_STORE`.
        quota_bytes: Optional LRU quota for the store.
        verbose: Log each request to stderr.
    """

    def __init__(self, address: tuple[str, int] = ("127.0.0.1", 0),
                 store: Union[str, Path, None] = None,
                 quota_bytes: Optional[int] = None,
                 verbose: bool = False):
        self.cache = ResultCache(
            directory=Path(store).expanduser() if store
            else Path(DEFAULT_STORE).expanduser(),
            quota_bytes=quota_bytes)
        self._requested_address = address
        self._verbose = verbose
        self._server: Optional[_BlobServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (only meaningful after
        :meth:`start`)."""
        if self._server is None:
            return self._requested_address
        return self._server.server_address[:2]

    @property
    def address_str(self) -> str:
        """``host:port`` form of :attr:`address` (CLI hand-off)."""
        host, port = self.address
        return f"{host}:{port}"

    def stats_document(self) -> dict:
        """Current ``/healthz`` stats (empty before :meth:`start`)."""
        return self._server.stats_document() if self._server else {}

    def start(self) -> "CacheServer":
        """Bind, sweep stale spill files, and serve in a daemon thread;
        returns ``self`` so tests can write
        ``CacheServer(...).start()``."""
        if self._server is not None:
            raise RuntimeError("cache server already started")
        self.cache.sweep_stale()
        self._server = _BlobServer(self._requested_address, self.cache,
                                   verbose=self._verbose)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-cacheserver",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the port (idempotent)."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.tools.cacheserver`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.cacheserver",
        description="Shared result-cache server for worker fleets "
                    "(sealed checksum-footer blobs over HTTP).")
    parser.add_argument("--listen", default="127.0.0.1:8750",
                        metavar="HOST:PORT",
                        help="address to bind (default %(default)s; "
                             "port 0 picks a free port)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help=f"blob store directory "
                             f"(default {DEFAULT_STORE})")
    parser.add_argument("--quota", default=None, metavar="SIZE",
                        help="LRU quota for the store, e.g. 512M or 2G "
                             "(default: unbounded)")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: serve until SIGINT/SIGTERM, then exit cleanly."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        address = parse_hostport(args.listen)
    except ValueError as exc:
        parser.error(f"--listen: {exc}")
    try:
        quota = parse_size(args.quota) if args.quota else None
    except ValueError as exc:
        parser.error(f"--quota: {exc}")
    server = CacheServer(address, store=args.store, quota_bytes=quota,
                         verbose=args.verbose)
    # Handlers first, banner second: anyone scripting "wait for the
    # banner, then signal" must find the clean-shutdown path armed.
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    server.start()
    print(f"cache server listening on {server.address_str} "
          f"(store {server.cache.directory}, repro {repro.__version__})",
          file=sys.stderr, flush=True)
    try:
        stop.wait()
    finally:
        server.stop()
    print("cache server stopped", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover - CLI shim
    from repro._cli import exit_after
    exit_after(main)

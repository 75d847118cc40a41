"""Remote cache tier: a shared HTTP blob cache with production failure
semantics.

:class:`RemoteCacheTier` is the client half of the shared cache service
(:mod:`repro.tools.cacheserver` is the server). It speaks plain HTTP/1.1
over the standard library (``http.client``) and moves exactly one byte
format: the sealed checksum-footer blobs of
:func:`repro.experiments.engine.cache.seal_payload` — the result cache's
on-disk entry format — verified again on every receive, so a corrupt
server, a bit-flipping network, or version drift can cost a recompute
but never a wrong payload.

The tier is a *network dependency in the middle of a crash-safe engine*,
so it is built degradation-first. The engine's standing guarantee — "a
unit whose work already succeeded can never be failed by the disk" —
extends to the network through four layers:

- **per-request timeout budgets**: every HTTP request carries
  ``timeout_s`` (connect and read); a slow server costs bounded wall
  time, never a stall;
- **bounded retries with jittered exponential backoff**: transient
  failures (refused connections, timeouts, 5xx answers, corrupt blobs)
  retry up to ``retries`` times per operation, sleeping an equal-jitter
  exponential delay (:func:`repro.experiments.engine.core
  .jittered_backoff`) so a fleet of workers never hammers a recovering
  server in lockstep;
- **a circuit breaker**: ``breaker_threshold`` *consecutive* failed
  requests trip the breaker open — further operations short-circuit to
  a local miss instantly (no timeout burned per unit) — and after
  ``probe_interval_s`` it half-opens to let exactly one probe request
  through: success closes it, failure re-opens it;
- **graceful degradation**: any operation that exhausts its budget (or
  short-circuits) warns **once**, counts itself into the stats that
  become the run report's ``remote_cache`` section, and reports a plain
  miss — the campaign proceeds on the local tier byte-identically.

Failures are *never* raised to the caller: :meth:`RemoteCacheTier
.get_blob` returns ``None`` and :meth:`RemoteCacheTier.put_blob` returns
``False``, exactly like a cold local cache.

Chaos hooks: the tier honours the remote-cache fault modes of
:mod:`repro.experiments.engine.faults` (``cache_slow`` /
``cache_error`` / ``cache_corrupt`` / ``cache_down``), injected
in-line around its requests — the spec's ``unit`` glob matches the
request tag ``"get:<key>"`` / ``"put:<key>"`` and ``times`` counts
affected requests. The chaos suite proves the invariant above with
them; they are off by default and invisible to cache keys.
"""

from __future__ import annotations

import http.client
import threading
import time
import warnings
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterable, Optional, Union

import repro
from repro.experiments.engine.cache import (CorruptPayloadError,
                                            parse_hostport, verify_sealed)
from repro.experiments.engine.faults import (MODE_CACHE_CORRUPT,
                                             MODE_CACHE_DOWN,
                                             MODE_CACHE_ERROR,
                                             MODE_CACHE_SLOW,
                                             REMOTE_CACHE_MODES, FaultSpec)

#: Circuit breaker states (the run report's ``remote_cache.state``).
STATE_CLOSED = "closed"        # healthy: requests flow
STATE_OPEN = "open"            # tripped: requests short-circuit to a miss
STATE_HALF_OPEN = "half-open"  # probing: one request through, then decide

#: HTTP header carrying the client's repro version; the server answers
#: 409 on a mismatch, which the tier treats as a permanent (no-retry)
#: degradation — exactly like the distributed worker handshake, version
#: drift costs a clean miss, never a wrong payload.
VERSION_HEADER = "X-Repro-Version"

#: URL prefix blobs live under (``/blob/<cache-key>``).
BLOB_PATH_PREFIX = "/blob/"


class _RequestFailed(Exception):
    """Internal: one request attempt failed; ``kind`` picks the counter."""

    def __init__(self, kind: str, detail: str, *, retryable: bool = True):
        super().__init__(detail)
        self.kind = kind
        self.retryable = retryable


def _flip_last_bit(blob: bytes) -> bytes:
    """The ``cache_corrupt`` fault: return ``blob`` with one bit flipped
    (checksum verification on the receiving end must catch it)."""
    if not blob:
        return blob
    return blob[:-1] + bytes([blob[-1] ^ 0x01])


class RemoteCacheTier:
    """Read-through/write-behind HTTP client for a shared cache server.

    One instance serves one campaign (the runner builds it from
    ``--cache-server``); its counters are therefore per-campaign and
    surface verbatim as the run report's ``remote_cache`` section.
    A lock serializes requests, so the tier is safe to share between a
    campaign thread and callbacks.

    Args:
        address: Server ``(host, port)`` tuple or ``"host:port"`` string.
        timeout_s: Per-request budget (TCP connect and read combined).
        retries: Extra attempts per operation after the first failure.
        backoff_s: Base of the jittered exponential retry backoff.
        breaker_threshold: Consecutive request failures that trip the
            circuit breaker open.
        probe_interval_s: Seconds the breaker stays open before
            half-opening to let one probe request through.
        faults: :class:`FaultSpec` chaos specs; only the remote-cache
            modes are kept (see the module docstring for their scoping).
    """

    def __init__(self, address: Union[str, tuple[str, int]], *,
                 timeout_s: float = 2.0,
                 retries: int = 2,
                 backoff_s: float = 0.05,
                 breaker_threshold: int = 3,
                 probe_interval_s: float = 5.0,
                 faults: Iterable[FaultSpec] = ()):
        if isinstance(address, str):
            address = parse_hostport(address)
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1, "
                             f"got {breaker_threshold}")
        if probe_interval_s <= 0:
            raise ValueError(f"probe_interval_s must be positive, "
                             f"got {probe_interval_s}")
        self.address: tuple[str, int] = (address[0], int(address[1]))
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.breaker_threshold = breaker_threshold
        self.probe_interval_s = probe_interval_s
        self._fault_specs = tuple(spec for spec in faults
                                  if spec.mode in REMOTE_CACHE_MODES)
        self._fault_fired: dict[int, int] = {}
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._open_until = 0.0
        self._warned = False
        # -- per-campaign counters (the ``remote_cache`` report section) --
        #: GET answered 200 with a checksum-valid blob.
        self.hits = 0
        #: GET answered 404 (a healthy server without the entry).
        self.misses = 0
        #: PUT accepted by the server.
        self.puts = 0
        #: PUT operations that ultimately failed (degraded, not raised).
        self.put_failures = 0
        #: GET operations that degraded to a miss on failure (distinct
        #: from :attr:`misses`, which are honest 404s).
        self.get_failures = 0
        #: Request attempts that failed with a connection/HTTP error.
        self.errors = 0
        #: Request attempts that exceeded the timeout budget.
        self.timeouts = 0
        #: Blobs dropped because their checksum footer failed on receive.
        self.corrupt_blobs = 0
        #: Operations short-circuited by an open circuit breaker.
        self.short_circuited = 0
        #: Times the breaker tripped (closed/half-open -> open).
        self.breaker_trips = 0
        self._rtt_total_s = 0.0
        self._rtt_count = 0
        self._rtt_max_s = 0.0

    @property
    def address_str(self) -> str:
        """``host:port`` form of the server address (CLI hand-off)."""
        return f"{self.address[0]}:{self.address[1]}"

    @property
    def state(self) -> str:
        """Current circuit breaker state (one of the ``STATE_*`` tags)."""
        return self._state

    @property
    def degraded(self) -> bool:
        """Whether any operation failed over to the local tier."""
        return bool(self.get_failures or self.put_failures
                    or self.short_circuited)

    def __repr__(self) -> str:
        return (f"RemoteCacheTier({self.address_str}, state={self._state}, "
                f"hits={self.hits}, misses={self.misses})")

    # -- circuit breaker --------------------------------------------------

    def _allow_request(self) -> bool:
        """Whether the breaker lets a request through right now (an open
        breaker half-opens once its probe interval has elapsed)."""
        if self._state == STATE_CLOSED:
            return True
        if self._state == STATE_OPEN:
            if time.monotonic() < self._open_until:
                return False
            self._state = STATE_HALF_OPEN
        return True  # half-open: this caller is the probe

    def _record_success(self) -> None:
        """A request round-tripped: close the breaker, reset the count."""
        self._consecutive_failures = 0
        self._state = STATE_CLOSED

    def _record_failure(self) -> None:
        """A request attempt failed: count it and maybe trip the breaker
        (a half-open probe failure re-opens immediately)."""
        self._consecutive_failures += 1
        if (self._state == STATE_HALF_OPEN
                or self._consecutive_failures >= self.breaker_threshold):
            if self._state != STATE_OPEN:
                self.breaker_trips += 1
            self._state = STATE_OPEN
            self._open_until = time.monotonic() + self.probe_interval_s

    # -- fault injection --------------------------------------------------

    def _inject(self, op: str, key: str) -> bool:
        """Fire the first matching remote-cache fault spec for this
        request attempt; returns whether the blob should be corrupted
        (``cache_corrupt``), raises :class:`_RequestFailed` for the
        fail-outright modes."""
        tag = f"{op}:{key}"
        for index, spec in enumerate(self._fault_specs):
            if not fnmatchcase(tag, spec.unit):
                continue
            fired = self._fault_fired.get(index, 0)
            if spec.times >= 0 and fired >= spec.times:
                continue
            self._fault_fired[index] = fired + 1
            if spec.marker:
                Path(spec.marker).touch()
            if spec.mode == MODE_CACHE_DOWN:
                raise _RequestFailed(
                    "error", f"injected cache_down: connection refused "
                             f"({tag})")
            if spec.mode == MODE_CACHE_ERROR:
                raise _RequestFailed(
                    "error", f"injected cache_error: HTTP 500 ({tag})")
            if spec.mode == MODE_CACHE_SLOW:
                time.sleep(min(spec.hang_s, self.timeout_s))
                raise _RequestFailed(
                    "timeout", f"injected cache_slow: request outlived "
                               f"the {self.timeout_s:g}s budget ({tag})")
            if spec.mode == MODE_CACHE_CORRUPT:
                return True
        return False

    # -- the request machinery --------------------------------------------

    def _http(self, method: str, key: str,
              body: Optional[bytes]) -> tuple[int, bytes]:
        """One raw HTTP round trip; translates every transport failure
        into :class:`_RequestFailed`."""
        conn = http.client.HTTPConnection(*self.address,
                                          timeout=self.timeout_s)
        try:
            conn.request(method, f"{BLOB_PATH_PREFIX}{key}", body=body,
                         headers={VERSION_HEADER: repro.__version__,
                                  "Content-Type":
                                      "application/octet-stream"})
            response = conn.getresponse()
            return response.status, response.read()
        except TimeoutError as exc:
            raise _RequestFailed(
                "timeout", f"{method} {key[:12]}…: request outlived the "
                           f"{self.timeout_s:g}s budget ({exc})") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise _RequestFailed(
                "error", f"{method} {key[:12]}…: "
                         f"{type(exc).__name__}: {exc}") from exc
        finally:
            conn.close()

    def _attempt(self, op: str, key: str,
                 blob: Optional[bytes]) -> Optional[bytes]:
        """One verified request attempt. Returns the response blob for a
        GET hit, ``None`` for a miss/accepted PUT; raises
        :class:`_RequestFailed` otherwise."""
        corrupt = self._inject(op, key)
        send = blob
        if corrupt and op == "put" and send is not None:
            send = _flip_last_bit(send)
        started = time.monotonic()
        if op == "get":
            status, data = self._http("GET", key, None)
        else:
            status, data = self._http("PUT", key, send)
        rtt = time.monotonic() - started
        self._rtt_total_s += rtt
        self._rtt_count += 1
        self._rtt_max_s = max(self._rtt_max_s, rtt)
        if status == 409:
            raise _RequestFailed(
                "error", f"server rejected {op} {key[:12]}…: repro "
                         f"version drift (409)", retryable=False)
        if op == "get":
            if status == 404:
                return None
            if status != 200:
                raise _RequestFailed(
                    "error", f"GET {key[:12]}… answered HTTP {status}",
                    retryable=status >= 500)
            if corrupt:
                data = _flip_last_bit(data)
            try:
                verify_sealed(data)
            except CorruptPayloadError as exc:
                raise _RequestFailed("corrupt",
                                     f"GET {key[:12]}…: {exc}") from exc
            return data
        if status not in (200, 201, 204):
            raise _RequestFailed(
                "error", f"PUT {key[:12]}… answered HTTP {status}",
                retryable=status >= 500)
        return None

    def _call(self, op: str, key: str,
              blob: Optional[bytes]) -> tuple[bool, Optional[bytes]]:
        """Drive one operation through breaker, retries and backoff.

        Returns ``(ok, data)``; ``ok=False`` means the operation
        degraded (the caller reports a local miss / unpersisted put).
        """
        from repro.experiments.engine.core import jittered_backoff
        with self._lock:
            failure = None
            for attempt in range(self.retries + 1):
                if not self._allow_request():
                    self.short_circuited += 1
                    self._degrade(f"circuit breaker open "
                                  f"(retrying the server in "
                                  f"{max(self._open_until - time.monotonic(), 0):.1f}s)")
                    return False, None
                try:
                    data = self._attempt(op, key, blob)
                except _RequestFailed as exc:
                    failure = exc
                    if exc.kind == "timeout":
                        self.timeouts += 1
                    elif exc.kind == "corrupt":
                        self.corrupt_blobs += 1
                    else:
                        self.errors += 1
                    self._record_failure()
                    if not exc.retryable:
                        break
                    if attempt < self.retries:
                        time.sleep(jittered_backoff(self.backoff_s,
                                                    attempt + 1,
                                                    cap_s=self.timeout_s))
                    continue
                self._record_success()
                return True, data
            self._degrade(str(failure) if failure else "request failed")
            return False, None

    def _degrade(self, why: str) -> None:
        """Warn exactly once that the campaign is proceeding local-only."""
        if self._warned:
            return
        self._warned = True
        warnings.warn(
            f"remote cache {self.address_str} degraded — {why}; "
            f"continuing on the local tier (results are unaffected, "
            f"units may recompute)", RuntimeWarning, stacklevel=4)

    # -- public operations ------------------------------------------------

    def get_blob(self, key: str) -> Optional[bytes]:
        """The sealed blob stored under ``key``, or ``None``.

        ``None`` covers both an honest server miss and every degradation
        path (down, slow, corrupt, breaker open) — the caller cannot and
        must not care which; the stats record the difference.
        """
        ok, data = self._call("get", key, None)
        if not ok:
            self.get_failures += 1
            return None
        if data is None:
            self.misses += 1
            return None
        self.hits += 1
        return data

    def put_blob(self, key: str, blob: bytes) -> bool:
        """Offer a sealed blob to the server; returns whether it was
        accepted. Failures degrade silently (counted, warned once) —
        a finished unit is never failed by the network."""
        ok, _ = self._call("put", key, blob)
        if ok:
            self.puts += 1
            return True
        self.put_failures += 1
        return False

    # -- reporting --------------------------------------------------------

    def stats_section(self) -> dict:
        """The run report's ``remote_cache`` section: hit/miss/degraded
        counters, breaker state, and round-trip statistics."""
        rtt: dict = {"count": self._rtt_count}
        if self._rtt_count:
            rtt["mean_ms"] = round(
                1000.0 * self._rtt_total_s / self._rtt_count, 3)
            rtt["max_ms"] = round(1000.0 * self._rtt_max_s, 3)
        return {
            "server": self.address_str,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "get_failures": self.get_failures,
            "put_failures": self.put_failures,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "corrupt_blobs": self.corrupt_blobs,
            "short_circuited": self.short_circuited,
            "breaker_trips": self.breaker_trips,
            "state": self._state,
            "degraded": self.degraded,
            "rtt": rtt,
        }

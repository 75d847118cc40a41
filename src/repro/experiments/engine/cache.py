"""On-disk content-addressed cache of work-unit payloads.

Layout: ``<root>/v<repro.__version__>/<key[:2]>/<key>.pkl`` where ``key`` is
:meth:`WorkUnit.cache_key` (which itself folds the version in, so entries
from different releases can never collide even if the directory fan-out is
bypassed). Writes are atomic: a writer fills a *spill file*
``<root>/v<repro.__version__>/.spill/.<key>.pkl.<writer>.tmp`` and renames
it onto the entry, so concurrent experiment runs sharing a cache directory
cannot observe torn entries. The spill directory sits next to the shards on
the same filesystem (the rename stays atomic), and a writer killed
mid-write leaves its garbage there and nowhere else, so the startup sweep
lists one small directory however many entries the cache holds.

The cache is also the engine's *durable payload store* for crash-safe
campaigns (``--resume`` replays the journal and loads completed payloads
from here), so it is hardened against the disk itself:

- every entry carries a **checksum footer** (SHA-256 over the pickle
  bytes). A truncated or bit-flipped entry — whether it still unpickles
  or not — is detected on read, deleted, and treated as a miss, so
  corruption costs a recompute, never a wrong result;
- :meth:`put` **degrades gracefully**: ``ENOSPC`` (or any ``OSError``)
  while persisting a payload warns once, is counted for the run report's
  ``cache_degraded`` section, and the computed result is simply returned
  uncached — a unit whose work already succeeded can never be failed by
  the disk;
- an optional **quota** (``quota_bytes``) evicts least-recently-used
  entries before a write so shared cache directories survive disk
  pressure (reads refresh an entry's mtime, which is the LRU clock).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import time
import warnings
from math import isfinite
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Union

import repro

#: Entry format marker; the 40-byte footer is ``magic + sha256(payload)``.
_FOOTER_MAGIC = b"RPRCSUM1"
_FOOTER_LEN = len(_FOOTER_MAGIC) + 32

#: Spill files written on behalf of a remote worker carry
#: ``.<key>.pkl.w-<token>.tmp`` names instead of a bare PID, so a
#: coordinator restart cannot mistake a live remote worker's in-flight
#: write for a dead local process's garbage.
_WORKER_TOKEN_PREFIX = "w-"
_WORKER_TOKEN_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*\Z")

#: Per-version directory every spill file is written to.
_SPILL_DIR = ".spill"

_READ_CHUNK = 1 << 16


class CorruptPayloadError(ValueError):
    """A sealed payload blob failed its checksum footer or unpickling."""


def seal_payload(payload: Any) -> bytes:
    """Pickle ``payload`` and append the checksum footer.

    This byte format is simultaneously the on-disk cache entry format
    and the distributed backend's result wire contract — one sealed
    blob, verified by :func:`unseal_payload` wherever it lands.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return blob + _FOOTER_MAGIC + hashlib.sha256(blob).digest()


def verify_sealed(blob: bytes) -> None:
    """Verify a sealed blob's checksum footer without unpickling it.

    This is the cheap half of :func:`unseal_payload` — enough for a
    party that only *moves* blobs (the cache server, the remote tier)
    to reject truncation and bit rot without importing whatever the
    payload pickles to.

    Raises:
        CorruptPayloadError: The footer is absent or the checksum does
            not match.
    """
    if (len(blob) <= _FOOTER_LEN
            or blob[-_FOOTER_LEN:-32] != _FOOTER_MAGIC):
        raise CorruptPayloadError("payload blob has no checksum footer")
    if hashlib.sha256(blob[:-_FOOTER_LEN]).digest() != blob[-32:]:
        raise CorruptPayloadError("payload blob failed its checksum")


def unseal_payload(blob: bytes) -> Any:
    """Verify a sealed blob's footer and unpickle the payload.

    Raises:
        CorruptPayloadError: The footer is absent (pre-footer format),
            the checksum does not match (truncation, bit rot, a torn
            network transfer), or the checksum-valid pickle fails to
            load (written by an incompatible code state).
    """
    verify_sealed(blob)
    try:
        return pickle.loads(blob[:-_FOOTER_LEN])
    except Exception as exc:
        raise CorruptPayloadError(
            f"checksum-valid payload failed to unpickle: {exc}") from exc


def _read_file(path: str) -> Optional[bytes]:
    """The bytes at ``path``, or ``None`` when it cannot be read.

    Reads the descriptor to end of file with bare ``os.read`` calls: a
    file object costs more than the read of a typical entry."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
        return b"".join(chunks)
    except OSError:
        return None
    finally:
        os.close(fd)


def _writer_token(tmp_name: str) -> Optional[str]:
    """The raw writer token in a ``.<key>.pkl.<token>.tmp`` file name
    (a PID string or a ``w-``-prefixed worker id), or ``None`` if the
    name does not follow the spill-file convention."""
    parts = tmp_name.rsplit(".", 2)
    if len(parts) == 3 and parts[2] == "tmp" and parts[1]:
        return parts[1]
    return None


def _writer_pid(tmp_name: str) -> Optional[int]:
    """The PID embedded in a ``.<key>.pkl.<pid>.tmp`` file name, or
    ``None`` for worker-token spills and non-conforming names."""
    token = _writer_token(tmp_name)
    if token is None:
        return None
    try:
        return int(token)
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process we could signal."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, owned by someone else
    except OSError:
        return False
    return True


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


class ResultCache:
    """Pickle-backed memo of work-unit payloads.

    A disabled cache (``enabled=False``) keeps the same interface but never
    reads or writes, which lets the engine treat ``--no-cache`` uniformly.

    Degradation counters (``put_errors``, ``corrupt_dropped``,
    ``evictions``, ``quota_skips``) accumulate per instance; the engine
    snapshots them around a run to report per-campaign deltas.

    Entries live at :meth:`path_for`; writes go through the version's
    :attr:`spill_dir` (``v<version>/.spill/``), the only place a killed
    writer can leave a temp file and the only directory
    :meth:`sweep_stale` lists. Shard and spill directories are made the
    first time a write finds them missing, not checked on every write.

    Args:
        directory: Cache root; default :func:`default_cache_dir`.
        enabled: ``False`` turns every operation into a no-op/miss.
        quota_bytes: Optional ceiling on the total size of stored
            entries. Before a write that would exceed it, least-recently
            -used entries are evicted; a payload larger than the whole
            quota is skipped (counted in ``quota_skips``).
        worker_token: Identity stamped into this instance's spill-file
            names instead of the local PID (``.<key>.pkl.w-<token>.tmp``).
            Remote workers sharing a cache directory set this so a
            coordinator (whose PID table knows nothing about them) can
            never reap a live remote writer's temp files —
            :meth:`sweep_stale` only removes worker-token spills whose
            token the caller explicitly names as dead.
        remote: Optional shared-cache tier (duck-typed to
            :class:`repro.experiments.engine.remote_cache
            .RemoteCacheTier`: ``get_blob``/``put_blob``/
            ``stats_section``). :meth:`get` reads through it on a local
            miss (adopting hits into the local tier) and :meth:`put`
            writes behind to it; every remote failure degrades to
            local-only behaviour, so the tier can never change what a
            campaign computes — only how often it recomputes.
    """

    def __init__(self, directory: Union[str, Path, None] = None,
                 enabled: bool = True,
                 quota_bytes: Optional[int] = None,
                 worker_token: Optional[str] = None,
                 remote: Optional[Any] = None):
        if quota_bytes is not None and quota_bytes <= 0:
            raise ValueError(f"quota_bytes must be positive, "
                             f"got {quota_bytes}")
        if worker_token is not None \
                and not _WORKER_TOKEN_RE.match(worker_token):
            raise ValueError(
                f"worker_token must match {_WORKER_TOKEN_RE.pattern!r} "
                f"(no dots or path separators), got {worker_token!r}")
        self.enabled = enabled
        self.directory = (Path(directory).expanduser() if directory
                          else default_cache_dir())
        self.quota_bytes = quota_bytes
        self.worker_token = worker_token
        #: Read-through/write-behind shared tier (``None`` = local only).
        self.remote = remote
        #: Failed :meth:`put` calls (payload computed but not persisted).
        self.put_errors = 0
        #: Summary of the first :meth:`put` failure, for the run report.
        self.first_put_error: Optional[str] = None
        #: Entries dropped because their checksum or unpickling failed.
        self.corrupt_dropped = 0
        #: Entries evicted to stay under :attr:`quota_bytes`.
        self.evictions = 0
        #: Writes skipped because the payload alone exceeds the quota.
        self.quota_skips = 0
        #: Test/chaos hook: called with the key at the top of every
        #: enabled :meth:`put`; an exception it raises (e.g. an injected
        #: ``ENOSPC``) takes the exact degradation path a real disk
        #: error would.
        self.put_fault: Optional[Callable[[str], None]] = None
        self._warned_put = False
        #: Bytes of ``*.pkl`` under :attr:`directory` as of the last
        #: listing, plus this writer's puts since (``None``: not listed).
        self._quota_total: Optional[int] = None
        #: The spill directory's mtime as this writer last stamped it.
        self._spill_stamp: Optional[int] = None

    @property
    def version_dir(self) -> Path:
        """Subdirectory holding entries for the current repro version."""
        return self.directory / f"v{repro.__version__}"

    @property
    def spill_dir(self) -> Path:
        """Where this version's writers stage their spill files."""
        return self.version_dir / _SPILL_DIR

    def path_for(self, key: str) -> Path:
        """Where ``key``'s payload lives (whether or not it exists yet)."""
        return Path(self._entry(key))

    def _version_root(self) -> str:
        """:attr:`version_dir` as a string, read per call: tests switch
        ``repro.__version__`` under a live instance."""
        return f"{self.directory}{os.sep}v{repro.__version__}"

    def _entry(self, key: str) -> str:
        """:meth:`path_for` as a string, without building a ``Path``."""
        return f"{self._version_root()}{os.sep}{key[:2]}{os.sep}{key}.pkl"

    def degradation_snapshot(self) -> tuple[int, int, int, int]:
        """Current counter values, for per-campaign delta reporting."""
        return (self.put_errors, self.corrupt_dropped, self.evictions,
                self.quota_skips)

    def degradation_since(self, snapshot: tuple[int, int, int, int]
                          ) -> Optional[dict]:
        """Counter deltas since ``snapshot`` as a run-report section, or
        ``None`` when nothing degraded."""
        put_errors, corrupt, evictions, skips = (
            now - then for now, then in zip(self.degradation_snapshot(),
                                            snapshot))
        if not any((put_errors, corrupt, evictions, skips)):
            return None
        section: dict = {"put_errors": put_errors,
                         "corrupt_dropped": corrupt,
                         "evictions": evictions,
                         "quota_skips": skips}
        if put_errors and self.first_put_error:
            section["first_put_error"] = self.first_put_error
        return section

    def _drop_corrupt(self, path: str) -> None:
        """Delete a failed entry and count it (missing file is fine —
        a concurrent reader may have dropped it first)."""
        self.corrupt_dropped += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def get(self, key: str) -> Optional[Any]:
        """The cached payload for ``key``, or ``None`` on a miss.

        Payloads are never ``None`` (executors return results or raise), so
        ``None`` is unambiguous. An entry whose checksum footer is absent
        (pre-footer format), wrong (bit rot, truncation) or whose pickle
        fails to load is dropped and reported as a miss. A hit refreshes
        the entry's mtime, which is what the quota eviction orders by —
        but an ``os.utime`` failure (read-only cache dir, a concurrent
        eviction racing the refresh) never fails the read: the payload
        is simply returned without refreshing its LRU position.

        With a :attr:`remote` tier configured, a local miss reads
        through it: a checksum-valid remote blob is adopted into the
        local tier (best-effort) and returned; a corrupt or failed
        remote answer stays a miss.
        """
        if not self.enabled:
            return None
        path = self._entry(key)
        blob = _read_file(path)
        if blob is not None:
            try:
                payload = unseal_payload(blob)
            except CorruptPayloadError:
                self._drop_corrupt(path)
                return None
            try:
                os.utime(path)  # LRU clock for quota eviction
            except OSError:
                pass  # a hit without refresh beats a failed read
            return payload
        if self.remote is None:
            return None
        blob = self.remote.get_blob(key)
        if blob is None:
            return None
        try:
            payload = unseal_payload(blob)
        except CorruptPayloadError:
            # The tier verifies checksums itself, so this only catches a
            # checksum-valid pickle from an incompatible code state.
            return None
        self.put_blob(key, blob)  # adopt: next read is local
        return payload

    def _evict_for(self, incoming: int) -> bool:
        """Make room for ``incoming`` bytes under the quota.

        Evicts least-recently-used entries (oldest mtime first; reads
        refresh mtime). Returns ``False`` when the payload can never fit
        — larger than the whole quota — in which case the write is
        skipped.

        The cache's size is a running total: one listing seeds it and
        each put adds to it, so a campaign of puts that fit lists the
        directory once. It is listed again before any eviction, and
        whenever another writer has put since this one's last put
        (:meth:`_spill_moved`), so a decision to evict, or not to, counts
        every writer's bytes.
        """
        if self.quota_bytes is None:
            return True
        if incoming > self.quota_bytes:
            self.quota_skips += 1
            return False
        if (self._quota_total is not None
                and self._quota_total + incoming <= self.quota_bytes
                and not self._spill_moved()):
            return True
        entries = []
        total = 0
        for entry in self.directory.rglob("*.pkl"):
            try:
                stat = entry.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, entry))
            total += stat.st_size
        for mtime, size, entry in sorted(entries, key=lambda e: e[:2]):
            if total + incoming <= self.quota_bytes:
                break
            try:
                entry.unlink()
            except FileNotFoundError:
                total -= size  # a concurrent run beat us to it
                continue
            except OSError:
                continue
            self.evictions += 1
            total -= size
        self._quota_total = total
        return True

    def _spill_moved(self) -> bool:
        """Whether the spill directory changed since this writer stamped
        it (:meth:`_stamp_spill`): every put stages a file there, so a
        changed directory means another writer may have put."""
        try:
            return os.stat(self._spill_path()).st_mtime_ns \
                != self._spill_stamp
        except OSError:
            return True

    def _stamp_spill(self) -> None:
        """After a put, set the spill directory's mtime to this instant
        and remember the stored value. The kernel stamps a directory
        change with a clock tick, never with this nanosecond, so another
        writer's later put shows as a different mtime even within one
        tick. A put racing this one's own can still go unseen until the
        next listing, which any eviction forces."""
        spill = self._spill_path()
        now = time.time_ns()
        try:
            os.utime(spill, ns=(now, now))
            self._spill_stamp = os.stat(spill).st_mtime_ns
        except OSError:
            self._spill_stamp = None

    def _spill_path(self) -> str:
        """:attr:`spill_dir` as a string."""
        return f"{self._version_root()}{os.sep}{_SPILL_DIR}"

    def _note_put_failure(self, exc: Exception) -> None:
        """Count a persist failure and warn once (shared by the payload
        and blob write paths so local and remote degradation report
        through one set of counters)."""
        self.put_errors += 1
        if self.first_put_error is None:
            self.first_put_error = f"{type(exc).__name__}: {exc}"
        if not self._warned_put:
            self._warned_put = True
            warnings.warn(
                f"result cache degraded — could not persist a payload "
                f"({exc}); continuing uncached", RuntimeWarning,
                stacklevel=3)

    def get_blob(self, key: str) -> Optional[bytes]:
        """The raw sealed blob for ``key``, checksum-verified, or
        ``None`` on a miss. Corrupt entries are dropped and reported as
        misses, exactly like :meth:`get` — but the payload is never
        unpickled, so blob movers (the cache server) stay agnostic of
        payload types. Does not consult the remote tier."""
        if not self.enabled:
            return None
        path = self._entry(key)
        blob = _read_file(path)
        if blob is None:
            return None
        try:
            verify_sealed(blob)
        except CorruptPayloadError:
            self._drop_corrupt(path)
            return None
        try:
            os.utime(path)  # LRU clock for quota eviction
        except OSError:
            pass
        return blob

    def put_blob(self, key: str, blob: bytes) -> bool:
        """Store an already-sealed blob under ``key`` atomically.

        The write half of :meth:`put` without the sealing: quota
        eviction, temp-file + rename, and the same never-raise
        degradation counters. The blob is *not* re-verified here —
        callers hold either a blob they just sealed or one
        :func:`verify_sealed` already passed. No-op when disabled.
        """
        if not self.enabled:
            return False
        path = self._entry(key)
        writer = (f"{_WORKER_TOKEN_PREFIX}{self.worker_token}"
                  if self.worker_token is not None else os.getpid())
        tmp = f"{self._spill_path()}{os.sep}.{key}.pkl.{writer}.tmp"
        try:
            if not self._evict_for(len(blob)):
                return False
            try:
                # A missing directory shows as FileNotFoundError from the
                # call that needs it: make it then, once per directory.
                try:
                    handle = open(tmp, "wb")
                except FileNotFoundError:
                    os.makedirs(os.path.dirname(tmp), exist_ok=True)
                    handle = open(tmp, "wb")
                with handle:
                    handle.write(blob)
                try:
                    os.replace(tmp, path)
                except FileNotFoundError:
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    os.replace(tmp, path)
            except BaseException:
                # The temp name is still ours only when the replace did
                # not happen. Single unlink, racing cleanly with a
                # concurrent sweep_stale() from another run: the file
                # being gone already is success, not an error.
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            if self.quota_bytes is not None:
                self._quota_total += len(blob)
                self._stamp_spill()
            return True
        except OSError as exc:
            self._note_put_failure(exc)
            return False

    def put(self, key: str, payload: Any) -> bool:
        """Store ``payload`` under ``key``; returns whether it persisted
        locally.

        Atomic (temp file + rename) and checksummed. Never raises for
        storage problems: ``ENOSPC``, permission errors, or an
        unpicklable payload degrade to an uncached-but-successful unit —
        a one-time warning is emitted and the failure is counted for the
        run report's ``cache_degraded`` section. No-op when disabled.

        With a :attr:`remote` tier configured, any payload that seals
        successfully is also offered to the shared server (write-behind,
        best-effort, after the local write) — remote refusal never
        affects the return value or raises.
        """
        if not self.enabled:
            return False
        try:
            if self.put_fault is not None:
                self.put_fault(key)
            blob = seal_payload(payload)
        except (OSError, pickle.PickleError, AttributeError,
                TypeError) as exc:
            # OSError covers injected disk faults; the rest are how
            # CPython reports an unpicklable payload (PicklingError, or
            # Attribute/TypeError for local/exotic objects).
            self._note_put_failure(exc)
            return False
        persisted = self.put_blob(key, blob)
        if self.remote is not None:
            self.remote.put_blob(key, blob)
        return persisted

    def clear(self) -> int:
        """Delete every entry for the current version — including stale
        ``.tmp`` spill files from interrupted writes; returns the count."""
        removed = 0
        if not self.version_dir.exists():
            return removed
        for pattern in ("*.pkl", ".*.tmp"):
            for entry in sorted(self.version_dir.rglob(pattern)):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def sweep_stale(self, pids: Optional[Iterable[int]] = None,
                    tokens: Optional[Iterable[str]] = None) -> int:
        """Remove leftover ``.<key>.pkl.<writer>.tmp`` spill files from
        :attr:`spill_dir`.

        A worker killed mid-:meth:`put` (before ``os.replace``) leaks its
        temp file; nothing ever reads those, so any that exist are garbage.
        The engine calls this once per invocation at startup, and again
        whenever it kills a worker pool (crash recovery, unit timeout,
        Ctrl-C). Liveness is judged by the writer identity in the name:

        - **PID spills** (``.<key>.pkl.<pid>.tmp``): removed when the PID
          is not a live process, so a concurrent run sharing the cache
          directory keeps its in-flight writes. ``pids`` names writers
          the caller *knows* are dead (the pool workers it just reaped),
          which are swept even if the PID was already reused.
        - **Worker-token spills** (``.<key>.pkl.w-<token>.tmp``, written
          by remote distributed workers): the local PID table says
          *nothing* about a remote writer's liveness, so these are
          removed **only** when their bare token appears in ``tokens`` —
          a coordinator restart can never reap a live remote worker's
          in-flight write.
        - Names that follow neither convention are garbage and swept
          unconditionally.

        Only :attr:`spill_dir` is listed, so the sweep costs the same on
        an empty cache and on one with many thousands of entries.

        Returns the number of files removed; no-op when disabled or the
        spill directory does not exist yet.
        """
        if not self.enabled:
            return 0
        spill = os.fspath(self.spill_dir)
        try:
            names = sorted(os.listdir(spill))
        except OSError:
            return 0
        known_dead = frozenset(pids or ())
        dead_tokens = frozenset(tokens or ())
        removed = 0
        for name in names:
            if not (name.startswith(".") and name.endswith(".tmp")):
                continue
            token = _writer_token(name)
            if token is not None and token.startswith(_WORKER_TOKEN_PREFIX):
                if token[len(_WORKER_TOKEN_PREFIX):] not in dead_tokens:
                    continue  # remote worker: presumed alive unless named
            else:
                pid = _writer_pid(name)
                if (pid is not None and pid not in known_dead
                        and _pid_alive(pid)):
                    continue
            try:
                os.unlink(f"{spill}{os.sep}{name}")
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        if self.quota_bytes is not None:
            state += f", quota={self.quota_bytes}B"
        return f"ResultCache({self.directory}, {state})"


_SIZE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}


def parse_size(text: str) -> int:
    """Parse a byte size like ``512M``, ``2G``, ``1048576`` (binary
    units; an optional trailing ``B`` is tolerated).

    Raises :class:`ValueError` naming ``text`` for anything that is not
    a finite size of at least one byte (``inf``, ``nan``, ``1e400``,
    ``0.4``)."""
    raw = text.strip().lower()
    if raw.endswith("b"):
        raw = raw[:-1]
    factor = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"unparseable size {text!r} "
                         f"(use e.g. 512M, 2G, 1048576)") from None
    size = value * factor
    if not isfinite(size):
        raise ValueError(f"size must be finite, got {text!r}")
    if not size >= 1:
        raise ValueError(f"size must be positive (at least one byte), "
                         f"got {text!r}")
    return int(size)


def finite_positive(text: str) -> float:
    """Argparse type for a float flag: finite and positive.

    Rejected at parse time, so argparse names the flag and exits 2: NaN
    slips past every ``<= 0`` check (and silently disables a watchdog),
    ``inf`` overflows the first conversion to integer nanoseconds, and
    zero or a negative value has no meaning for a scale, interval or
    timeout.
    """
    import argparse
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number, got {text!r}") from None
    if not isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}")
    return value


def parse_hostport(text: str,
                   default_host: str = "127.0.0.1") -> tuple[str, int]:
    """Parse ``host:port`` / ``:port`` / bare ``port`` CLI notation."""
    text = text.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = default_host, text
    elif not host:
        host = default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in address {text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in address {text!r}")
    return host, port


def _tiered_cache(directory: Union[str, Path, None], *, enabled: bool = True,
                  server: Optional[str] = None,
                  quota_bytes: Optional[int] = None,
                  worker_token: Optional[str] = None,
                  faults: Iterable[Any] = ()) -> ResultCache:
    """The cache stack a CLI's flags describe: the local
    :class:`ResultCache`, with the shared
    :class:`~repro.experiments.engine.remote_cache.RemoteCacheTier`
    attached when ``server`` (a ``HOST:PORT`` string) is given.

    Both the campaign CLI and ``repro.tools.worker`` build their cache
    here, so this is the one place that decides the remote tier needs a
    local cache: it reads through and writes behind the local one, and
    without it there is nothing to adopt a fetched blob into.
    Remote-cache chaos specs among ``faults`` are threaded into the tier.

    Raises:
        ValueError: ``server`` with a disabled local cache, or an
            unparseable ``server`` address. The message names the
            ``--cache-server`` flag both CLIs spell it with, so callers
            report it verbatim.
    """
    remote = None
    if server is not None:
        if not enabled:
            raise ValueError("--cache-server needs the result cache (the "
                             "shared tier reads through and writes behind "
                             "the local one); drop --no-cache")
        from repro.experiments.engine.remote_cache import RemoteCacheTier
        try:
            remote = RemoteCacheTier(server, faults=faults)
        except ValueError as exc:
            raise ValueError(f"--cache-server: {exc}") from None
    return ResultCache(directory=directory, enabled=enabled,
                       quota_bytes=quota_bytes, worker_token=worker_token,
                       remote=remote)

"""Result-cache hardening: checksum footers, graceful ``ENOSPC``
degradation, LRU quota eviction, and the spill-file cleanup race.

The cache doubles as the durable payload store for ``--resume``, so the
contract under disk trouble is strict: corruption is *detected* (a
checksum miss costs a recompute, never a wrong result), a full disk
degrades a write to "computed but uncached" without failing the unit,
and a quota keeps shared cache directories bounded.
"""

from __future__ import annotations

import errno
import os
import pickle
import warnings
from pathlib import Path

import pytest

from repro.experiments.engine import FaultSpec, ResultCache, run_experiments
from repro.experiments.engine import cache as cache_module
from repro.experiments.engine.cache import _FOOTER_LEN

SCALE = 0.05
SEED = 11
FAST = {"retry_backoff_s": 0.0}

KEY = "aa" + "0" * 62  # shaped like a real sha256 cache key


def make_cache(tmp_path: Path, **kwargs) -> ResultCache:
    """A fresh enabled cache rooted inside the test's tmp dir."""
    return ResultCache(directory=tmp_path / "cache", **kwargs)


class TestChecksumFooter:
    def test_round_trip(self, tmp_path: Path):
        cache = make_cache(tmp_path)
        assert cache.put(KEY, {"x": 1}) is True
        assert cache.get(KEY) == {"x": 1}
        assert cache.corrupt_dropped == 0

    def test_truncated_entry_is_dropped_and_missed(self, tmp_path: Path):
        cache = make_cache(tmp_path)
        cache.put(KEY, list(range(1000)))
        path = cache.path_for(KEY)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        assert cache.get(KEY) is None
        assert cache.corrupt_dropped == 1
        assert not path.exists()  # recomputation gets a clean slot

    def test_bit_flip_is_detected_even_if_pickle_still_loads(
            self, tmp_path: Path):
        cache = make_cache(tmp_path)
        cache.put(KEY, b"A" * 256)
        path = cache.path_for(KEY)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0x01  # flip one payload bit, keep the footer intact
        path.write_bytes(bytes(blob))
        assert cache.get(KEY) is None
        assert cache.corrupt_dropped == 1
        assert not path.exists()

    def test_footerless_legacy_entry_is_dropped(self, tmp_path: Path):
        cache = make_cache(tmp_path)
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"pre": "footer"}))  # old format
        assert cache.get(KEY) is None
        assert cache.corrupt_dropped == 1
        assert not path.exists()

    def test_checksum_valid_but_unpicklable_is_dropped(
            self, tmp_path: Path):
        import hashlib

        from repro.experiments.engine.cache import _FOOTER_MAGIC
        cache = make_cache(tmp_path)
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True)
        garbage = b"\x00not a pickle"
        path.write_bytes(garbage + _FOOTER_MAGIC
                         + hashlib.sha256(garbage).digest())
        assert cache.get(KEY) is None
        assert cache.corrupt_dropped == 1

    def test_disabled_cache_never_touches_disk(self, tmp_path: Path):
        cache = make_cache(tmp_path, enabled=False)
        assert cache.put(KEY, 1) is False
        assert cache.get(KEY) is None
        assert not (tmp_path / "cache").exists()


class TestPutDegradation:
    """Regression for the ENOSPC failure mode: a payload that was
    *computed* must never be failed by the disk it could not be saved
    to."""

    @staticmethod
    def enospc(_key: str) -> None:
        raise OSError(errno.ENOSPC, "no space left on device")

    def test_enospc_degrades_to_uncached_not_raised(self, tmp_path: Path):
        cache = make_cache(tmp_path)
        cache.put_fault = self.enospc
        with pytest.warns(RuntimeWarning, match="cache degraded"):
            assert cache.put(KEY, {"x": 1}) is False
        assert cache.put_errors == 1
        assert "no space left" in cache.first_put_error.lower()
        assert cache.get(KEY) is None  # nothing half-written
        assert not list((tmp_path / "cache").rglob(".*.tmp"))

    def test_warns_exactly_once(self, tmp_path: Path):
        cache = make_cache(tmp_path)
        cache.put_fault = self.enospc
        with pytest.warns(RuntimeWarning):
            cache.put(KEY, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.put(KEY, 2)  # silent, still counted
        assert cache.put_errors == 2

    def test_unpicklable_payload_degrades_too(self, tmp_path: Path):
        cache = make_cache(tmp_path)
        with pytest.warns(RuntimeWarning):
            assert cache.put(KEY, lambda: None) is False
        assert cache.put_errors == 1

    def test_engine_counts_degradation_and_still_succeeds(
            self, tmp_path: Path):
        """A campaign whose every cache write hits ENOSPC (injected via
        the ``disk_full`` fault spec) finishes clean and reports the
        degradation; a rerun recomputes because nothing persisted."""
        cache = make_cache(tmp_path)
        disk_full = [FaultSpec(unit="fig1/*", mode="disk_full", times=-1)]
        with pytest.warns(RuntimeWarning, match="cache degraded"):
            results, report = run_experiments(
                ["fig1"], scale=SCALE, seed=SEED, jobs=1, cache=cache,
                faults=disk_full, **FAST)
        assert "fig1" in results and not report.failures
        assert report.cache_degraded["put_errors"] == report.executed
        assert "first_put_error" in report.cache_degraded
        assert cache.put_fault is None  # the engine restored the hook
        rerun_results, rerun = run_experiments(
            ["fig1"], scale=SCALE, seed=SEED, jobs=1, cache=cache, **FAST)
        assert rerun.cache_hits == 0 and rerun.executed == rerun.n_units
        assert rerun.cache_degraded is None

    def test_clean_run_reports_no_degradation(self, tmp_path: Path):
        cache = make_cache(tmp_path)
        _, report = run_experiments(["fig1"], scale=SCALE, seed=SEED,
                                    jobs=1, cache=cache)
        assert report.cache_degraded is None

    def test_degradation_snapshot_deltas(self, tmp_path: Path):
        cache = make_cache(tmp_path)
        cache.put_fault = self.enospc
        with pytest.warns(RuntimeWarning):
            cache.put(KEY, 1)
        snapshot = cache.degradation_snapshot()
        assert cache.degradation_since(snapshot) is None  # no new trouble
        cache.put(KEY, 2)
        section = cache.degradation_since(snapshot)
        assert section["put_errors"] == 1  # only the post-snapshot failure


class TestSpillFileCleanup:
    def test_put_leaves_no_tmp_file(self, tmp_path: Path):
        cache = make_cache(tmp_path)
        cache.put(KEY, {"x": 1})
        assert not list((tmp_path / "cache").rglob(".*.tmp"))

    def test_cleanup_tolerates_a_concurrent_sweep(self, tmp_path: Path,
                                                  monkeypatch):
        """The TOCTOU regression: ``put()``'s cleanup used to check
        ``tmp.exists()`` then ``unlink()`` — a concurrent
        ``sweep_stale()`` deleting the file between the two calls blew
        the put up. The single guarded ``unlink()`` must shrug it off."""
        cache = make_cache(tmp_path)
        real_replace = os.replace

        def replace_then_sweep(src, dst):
            real_replace(src, dst)
            # Another run's sweep fires in the window before cleanup:
            # src is already gone, and a stale same-named file appearing
            # and vanishing again must not matter either.
            assert not Path(src).exists()

        monkeypatch.setattr(os, "replace", replace_then_sweep)
        assert cache.put(KEY, {"x": 1}) is True
        assert cache.get(KEY) == {"x": 1}

    @pytest.fixture
    def unlinks(self, monkeypatch) -> list:
        """Every ``os.unlink`` call (``Path.unlink`` goes through it too),
        recorded by file name and passed through."""
        calls: list = []
        real_unlink = os.unlink

        def counting_unlink(path, *args, **kwargs):
            calls.append(os.path.basename(os.fspath(path)))
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", counting_unlink)
        return calls

    def test_a_stored_unit_costs_no_unlink(self, tmp_path: Path, unlinks):
        """After a successful ``os.replace`` the temp name no longer
        exists; unlinking it anyway was one doomed syscall and one
        swallowed ``FileNotFoundError`` per stored unit."""
        cache = make_cache(tmp_path)
        assert cache.put(KEY, {"x": 1}) is True
        assert unlinks == []

    @pytest.mark.parametrize("failing", ["open", "replace"])
    def test_a_failed_put_still_removes_its_temp(
            self, failing, tmp_path: Path, monkeypatch, unlinks):
        def full_disk(*_args, **_kwargs):
            raise OSError(errno.ENOSPC, "no space left on device")

        cache = make_cache(tmp_path)
        if failing == "open":      # shadow the builtin in that module only
            monkeypatch.setattr(cache_module, "open", full_disk,
                                raising=False)
        else:
            monkeypatch.setattr(os, "replace", full_disk)
        with pytest.warns(RuntimeWarning, match="cache degraded"):
            assert cache.put(KEY, {"x": 1}) is False
        assert cache.put_errors == 1
        assert len(unlinks) == 1 and unlinks[0].endswith(".tmp")
        assert not list((tmp_path / "cache").rglob(".*.tmp"))
        assert cache.get(KEY) is None


class TestQuota:
    PAYLOAD = b"x" * 4096

    @staticmethod
    def entry_size(payload) -> int:
        return len(pickle.dumps(payload,
                                protocol=pickle.HIGHEST_PROTOCOL)) \
            + _FOOTER_LEN

    def test_quota_must_be_positive(self, tmp_path: Path):
        with pytest.raises(ValueError, match="quota_bytes"):
            make_cache(tmp_path, quota_bytes=0)

    def test_lru_eviction_under_quota(self, tmp_path: Path):
        size = self.entry_size(self.PAYLOAD)
        cache = make_cache(tmp_path, quota_bytes=2 * size + size // 2)
        keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for index, key in enumerate(keys):
            assert cache.put(key, self.PAYLOAD) is True
            os.utime(cache.path_for(key), (100.0 + index, 100.0 + index))
        # Third put had to evict the least-recently-used first entry.
        assert cache.evictions == 1
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is not None
        assert cache.get(keys[2]) is not None

    def test_read_refreshes_lru_position(self, tmp_path: Path):
        size = self.entry_size(self.PAYLOAD)
        cache = make_cache(tmp_path, quota_bytes=2 * size + size // 2)
        keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
        cache.put(keys[0], self.PAYLOAD)
        cache.put(keys[1], self.PAYLOAD)
        os.utime(cache.path_for(keys[0]), (100.0, 100.0))
        os.utime(cache.path_for(keys[1]), (200.0, 200.0))
        assert cache.get(keys[0]) is not None  # refreshes keys[0]'s mtime
        cache.put(keys[2], self.PAYLOAD)       # must evict keys[1] now
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None

    def test_oversized_payload_is_skipped_not_thrashed(
            self, tmp_path: Path):
        small = self.entry_size(self.PAYLOAD)
        cache = make_cache(tmp_path, quota_bytes=small + small // 2)
        cache.put(KEY, self.PAYLOAD)
        big_key = "bb" + "0" * 62
        assert cache.put(big_key, self.PAYLOAD * 10) is False
        assert cache.quota_skips == 1
        assert cache.evictions == 0  # the resident entry was not purged
        assert cache.get(KEY) is not None


class ListEveryPut(ResultCache):
    """The quota accounting before the running total: list and stat
    every entry before each write."""

    def _evict_for(self, incoming: int) -> bool:
        self._quota_total = None
        return super()._evict_for(incoming)


def stored_bytes(directory: Path) -> int:
    return sum(entry.stat().st_size for entry in directory.rglob("*.pkl"))


def stored_names(directory: Path) -> list[str]:
    return sorted(entry.name for entry in directory.rglob("*.pkl"))


class TestQuotaAccounting:
    """A quota keeps a running byte total instead of listing the cache
    on every put (which made a campaign's puts O(n**2)); it lists again
    before any eviction and after another writer's put."""

    PAYLOAD = TestQuota.PAYLOAD

    def test_a_campaign_that_fits_lists_the_cache_once(
            self, tmp_path: Path, monkeypatch):
        listings = []
        rglob = Path.rglob

        def counting_rglob(path, pattern):
            listings.append(pattern)
            return rglob(path, pattern)

        monkeypatch.setattr(Path, "rglob", counting_rglob)
        cache = make_cache(tmp_path, quota_bytes=1 << 30)
        for index in range(300):
            assert cache.put(f"{index:064x}", index) is True
        assert listings == ["*.pkl"]
        assert (cache.evictions, cache.quota_skips) == (0, 0)

    def test_evictions_match_listing_before_every_put(self, tmp_path: Path):
        size = TestQuota.entry_size(self.PAYLOAD)
        quota = 5 * size + size // 2
        caches = (make_cache(tmp_path / "total", quota_bytes=quota),
                  ListEveryPut(tmp_path / "listed", quota_bytes=quota))
        for step in range(40):
            payload = self.PAYLOAD * (1 + step % 3)     # 1-3 entries' worth
            key = f"{step:064x}"
            for cache in caches:
                assert cache.put(key, payload) is True
                os.utime(cache.path_for(key), (1000.0 + step,) * 2)
                if step % 4 == 3:
                    # A read of an older entry moves it to the LRU's tail.
                    older = cache.path_for(f"{step - 3:064x}")
                    if older.exists():
                        os.utime(older, (1000.5 + step,) * 2)
            assert caches[0].evictions == caches[1].evictions
            assert stored_names(tmp_path / "total") \
                == stored_names(tmp_path / "listed")
            assert stored_bytes(tmp_path / "total") <= quota
        assert caches[0].evictions > 10

    def test_two_writers_on_one_directory_respect_the_quota(
            self, tmp_path: Path):
        size = TestQuota.entry_size(self.PAYLOAD)
        quota = 3 * size + size // 2
        writers = (make_cache(tmp_path, quota_bytes=quota),
                   make_cache(tmp_path, quota_bytes=quota))
        for index in range(12):
            assert writers[index % 2].put(f"{index:064x}", self.PAYLOAD)
            assert stored_bytes(tmp_path) <= quota
        assert sum(w.evictions for w in writers) == 12 - 3


class TestWorkerTokenSpills:
    """Remote-worker spill files and the coordinator-restart sweep.

    The latent bug this pins down: ``sweep_stale(pids=...)`` judged
    *every* spill file by the local PID table, but a distributed
    worker's PID belongs to another machine — a coordinator restart
    could reap a live remote worker's in-flight write. Remote workers
    therefore stamp a ``w-<token>`` identity instead of a PID, and
    token spills are swept **only** when their token is explicitly
    named dead.
    """

    def test_put_stamps_the_worker_token_not_the_pid(self, tmp_path,
                                                     monkeypatch):
        cache = make_cache(tmp_path, worker_token="nodeA-17")
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(Path(src).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        assert cache.put(KEY, {"x": 1}) is True
        assert seen and seen[0].endswith(".w-nodeA-17.tmp")
        assert str(os.getpid()) not in seen[0]

    def test_live_remote_spill_survives_every_unnamed_sweep(self, tmp_path):
        """Neither a bare sweep nor one armed with known-dead *local*
        PIDs may touch a remote worker's file — its liveness is simply
        unknowable from here."""
        cache = make_cache(tmp_path)
        spill = cache.spill_dir / f".{KEY}.pkl.w-nodeB-3.tmp"
        spill.parent.mkdir(parents=True, exist_ok=True)
        spill.write_bytes(b"partial")
        assert cache.sweep_stale() == 0
        assert cache.sweep_stale(pids=[os.getpid(), 999_999_999]) == 0
        assert spill.exists()

    def test_named_dead_token_is_swept(self, tmp_path):
        cache = make_cache(tmp_path)
        dead = cache.spill_dir / f".{KEY}.pkl.w-spawn0-42.tmp"
        live = cache.spill_dir / f".{KEY}.pkl.w-spawn1-42.tmp"
        dead.parent.mkdir(parents=True, exist_ok=True)
        dead.write_bytes(b"partial")
        live.write_bytes(b"partial")
        assert cache.sweep_stale(tokens=["spawn0-42"]) == 1
        assert not dead.exists() and live.exists()

    def test_pid_and_garbage_sweeps_are_unchanged(self, tmp_path):
        """Adding the token convention must not weaken the old rules:
        dead-PID spills and nonconforming names still go."""
        cache = make_cache(tmp_path)
        base = cache.spill_dir
        base.mkdir(parents=True, exist_ok=True)
        dead_pid = base / f".{KEY}.pkl.999999999.tmp"
        garbage = base / ".what-even-is-this.tmp"
        mine = base / f".{KEY}.pkl.{os.getpid()}.tmp"
        remote = base / f".{KEY}.pkl.w-nodeC-1.tmp"
        for f in (dead_pid, garbage, mine, remote):
            f.write_bytes(b"partial")
        assert cache.sweep_stale() == 2
        assert mine.exists()  # this process is demonstrably alive
        assert remote.exists()  # a token nobody named dead

    def test_worker_token_is_validated(self, tmp_path):
        for bad in ("has.dots", "a/b", "", "-leading", "sp ace"):
            with pytest.raises(ValueError, match="worker_token"):
                make_cache(tmp_path, worker_token=bad)
        make_cache(tmp_path, worker_token="ok-token_1")

    def test_unknown_token_survives_a_named_sweep(self, tmp_path):
        """Naming some tokens dead says nothing about the others: a
        spill whose token is not on the list must be left untouched."""
        cache = make_cache(tmp_path)
        unknown = cache.spill_dir / f".{KEY}.pkl.w-mystery-9.tmp"
        unknown.parent.mkdir(parents=True, exist_ok=True)
        unknown.write_bytes(b"partial")
        assert cache.sweep_stale(tokens=["someone-else"]) == 0
        assert unknown.exists()


class TestSanitizeWorkerToken:
    """``sanitize_worker_token`` must map *any* worker id onto the
    ``_WORKER_TOKEN_RE`` grammar (the spill-file name contract)."""

    def _accepts(self, token: str) -> bool:
        from repro.experiments.engine.cache import _WORKER_TOKEN_RE
        return bool(_WORKER_TOKEN_RE.match(token))

    @pytest.mark.parametrize("worker_id", [
        "", ".", "-", "_", "...", "---", ".hidden", "-leading",
        "host.domain.example-123", "sp ace/slash\\back", "ünïcode",
        "a" * 500,
    ])
    def test_output_always_satisfies_the_token_grammar(self, worker_id):
        from repro.tools.worker import sanitize_worker_token
        token = sanitize_worker_token(worker_id)
        assert self._accepts(token), (worker_id, token)
        # And it must round-trip into a real cache without raising.
        ResultCache(enabled=False, worker_token=token)

    def test_empty_and_separator_only_ids_fall_back(self):
        from repro.tools.worker import sanitize_worker_token
        assert sanitize_worker_token("") == "worker"
        assert sanitize_worker_token("...") == "worker"
        assert sanitize_worker_token("-_-_") == "worker"

    def test_leading_dot_and_dash_are_stripped_not_kept(self):
        from repro.tools.worker import sanitize_worker_token
        assert sanitize_worker_token(".hidden-host-1") == "hidden-host-1"
        assert sanitize_worker_token("--node-2") == "node-2"

    def test_over_long_ids_are_truncated(self):
        from repro.tools.worker import (MAX_WORKER_TOKEN_LEN,
                                        sanitize_worker_token)
        token = sanitize_worker_token("x" * 1000)
        assert len(token) == MAX_WORKER_TOKEN_LEN
        assert self._accepts(token)

    def test_hostname_dots_become_dashes(self):
        from repro.tools.worker import sanitize_worker_token
        assert sanitize_worker_token("db.internal-4242") \
            == "db-internal-4242"


class TestGetUtimeHardening:
    """A failed LRU mtime refresh must never fail a read (satellite:
    read-only cache dirs, concurrently-evicted entries)."""

    def test_read_only_cache_dir_still_serves_hits(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.put(KEY, {"v": 1})
        entry_dir = cache.path_for(KEY).parent
        os.chmod(entry_dir, 0o500)  # utime on the entry now fails EACCES
        try:
            if os.access(entry_dir / f"{KEY}.pkl", os.W_OK):
                pytest.skip("running privileged; chmod cannot revoke")
            assert cache.get(KEY) == {"v": 1}
        finally:
            os.chmod(entry_dir, 0o700)

    def test_utime_oserror_is_swallowed(self, tmp_path, monkeypatch):
        """Belt and braces for the root-CI case: any OSError out of
        os.utime — not just EACCES — reads through."""
        cache = make_cache(tmp_path)
        assert cache.put(KEY, {"v": 2})

        def broken_utime(*args, **kwargs):
            raise OSError(errno.EACCES, "refresh refused")

        monkeypatch.setattr(os, "utime", broken_utime)
        assert cache.get(KEY) == {"v": 2}
        assert cache.get_blob(KEY) is not None


class TestSpillDirectory:
    """Writers stage in ``v<version>/.spill/`` and nowhere else, so the
    startup sweep lists that one directory whatever the cache holds."""

    def test_put_stages_in_the_spill_dir_and_renames_onto_the_entry(
            self, tmp_path, monkeypatch):
        cache = make_cache(tmp_path)
        moves = []
        real_replace = os.replace

        def spy(src, dst):
            moves.append((Path(src), Path(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        assert cache.put(KEY, {"x": 1}) is True
        # Two tries on a fresh cache: the first finds no shard directory.
        [(src, dst)] = set(moves)
        assert src.parent == cache.spill_dir
        assert src.name == f".{KEY}.pkl.{os.getpid()}.tmp"
        assert dst == cache.path_for(KEY)
        assert os.listdir(cache.spill_dir) == []

    def test_sweep_never_lists_the_entries(self, tmp_path, monkeypatch):
        """On a 2,000-entry cache the sweep lists the spill directory
        and no shard directory: an ``rglob`` over the cache lists all of
        them, and startup would grow with the cache."""
        cache = make_cache(tmp_path)
        blob = cache_module.seal_payload({"x": 1})
        for i in range(2_000):
            assert cache.put_blob(f"{i:064x}"[::-1], blob)
        assert len(list(cache.version_dir.glob("*/*.pkl"))) == 2_000
        spill = cache.spill_dir / f".{KEY}.pkl.999999999.tmp"
        spill.write_bytes(b"partial")
        listed = []
        real_listdir, real_scandir = os.listdir, os.scandir

        def listdir(path="."):
            listed.append(Path(path))
            return real_listdir(path)

        def scandir(path="."):
            listed.append(Path(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "listdir", listdir)
        monkeypatch.setattr(os, "scandir", scandir)
        assert cache.sweep_stale() == 1
        assert listed == [cache.spill_dir]
        assert not spill.exists()

    def test_a_sealed_entry_placed_by_hand_is_a_hit(self, tmp_path):
        """Entries are files at ``path_for(key)`` in the sealed format
        and nothing more: no index, no in-memory state, so a cache
        filled by another build (or copied in) is served as is."""
        payload = {"rows": [[1, "x", 2.5]]}
        blob = cache_module.seal_payload(payload)
        cache = make_cache(tmp_path)
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        assert cache.get(KEY) == payload
        assert make_cache(tmp_path).get_blob(KEY) == blob

    def test_directories_removed_under_a_live_cache_are_made_again(
            self, tmp_path):
        """Shard and spill directories are made when a write finds them
        missing, so deleting the whole tree between two writes of one
        instance costs nothing but the remake."""
        import shutil
        cache = make_cache(tmp_path)
        assert cache.put(KEY, {"x": 1})
        shutil.rmtree(cache.directory)
        assert cache.put(KEY, {"x": 2})
        assert cache.get(KEY) == {"x": 2}
        assert cache.put_errors == 0

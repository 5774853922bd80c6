"""Tests for the content-addressed result cache."""

import os
from pathlib import Path

import pytest

from repro.analysis.figures import FigureTable
from repro.exp.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    canonicalize,
    code_fingerprint,
    stable_key,
)
from repro.sim.config import DefenseKind, SystemConfig


class TestStableKey:
    def test_deterministic(self):
        payload = {"experiment": "fig4", "params": {"n_bits": 4}}
        assert stable_key(payload) == stable_key(payload)

    def test_dict_order_irrelevant(self):
        assert (stable_key({"a": 1, "b": 2})
                == stable_key({"b": 2, "a": 1}))

    def test_tuple_and_list_canonicalize_identically(self):
        assert stable_key({"xs": (1, 2)}) == stable_key({"xs": [1, 2]})

    def test_value_changes_change_the_key(self):
        assert stable_key({"a": 1}) != stable_key({"a": 2})
        assert stable_key({"a": 1}) != stable_key({"b": 1})

    def test_canonicalize_handles_enums_and_configs(self):
        assert canonicalize(DefenseKind.PRAC) == "prac"
        assert canonicalize(SystemConfig()) == canonicalize(
            SystemConfig().to_dict())
        assert canonicalize({1: "x"}) == {"1": "x"}
        assert canonicalize({3, 1, 2}) == [1, 2, 3]

    def test_code_fingerprint_is_stable_hex(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_key({"k": 1})
        assert cache.get(key) == (False, None)
        cache.put(key, {"answer": 42})
        hit, value = cache.get(key)
        assert hit and value == {"answer": 42}
        assert key in cache

    def test_round_trips_figure_tables(self, tmp_path):
        cache = ResultCache(tmp_path)
        table = FigureTable("t", ["a", "b"])
        table.add_row(1, 2.5)
        table.add_note("n")
        cache.put("0" * 64, table)
        _, loaded = cache.get("0" * 64)
        assert loaded.rows == table.rows
        assert loaded.notes == table.notes
        assert loaded.to_text() == table.to_text()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_key({"k": 2})
        path = cache.put(key, [1, 2, 3])
        path.write_bytes(b"not a pickle")
        assert cache.get(key) == (False, None)
        assert key not in cache  # corrupt file was removed

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        for i in range(3):
            cache.put(stable_key({"i": i}), i)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envcache"))
        cache = ResultCache()
        assert cache.directory == tmp_path / "envcache"

    def test_explicit_dir_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envcache"))
        cache = ResultCache(tmp_path / "explicit")
        assert cache.directory == tmp_path / "explicit"

    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_key({"k": 3})
        path = cache.put(key, None)
        assert path.parent.name == key[:2]


def _orphan_tmp(cache: ResultCache, key: str) -> Path:
    """Plant the debris of a put() that died between write and rename."""
    tmp = cache._path(key).with_name(f"{key}.pkl.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_bytes(b"half-written")
    return tmp


class TestClearRace:
    def test_clear_survives_an_entry_vanishing_mid_iteration(
            self, tmp_path, monkeypatch):
        """Regression: an unguarded ``path.unlink()`` crashed clear()
        with OSError when a concurrent prune/clear removed an entry
        first — and the survivor count must not include it."""
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(stable_key({"i": i}), i)
        victim = sorted(cache.directory.glob("*/*.pkl"))[0]
        real_unlink = Path.unlink

        def racing_unlink(self, *args, **kwargs):
            if self == victim:
                real_unlink(self)  # the concurrent remover won
                raise FileNotFoundError(str(self))
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        assert cache.clear() == 2  # the vanished entry is not counted
        assert len(cache) == 0


class TestTmpOrphans:
    def test_stats_reports_orphans(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(stable_key({"k": 1}), [1, 2, 3])
        _orphan_tmp(cache, "ab" + "0" * 62)
        stats = cache.stats()
        assert stats["entries"] == 1  # orphans are not entries
        assert stats["tmp_files"] == 1
        assert stats["tmp_bytes"] > 0

    def test_clear_sweeps_orphans(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(stable_key({"k": 1}), 1)
        tmp = _orphan_tmp(cache, "cd" + "0" * 62)
        assert cache.clear() == 2  # the entry and the orphan
        assert not tmp.exists()
        assert cache.stats()["tmp_files"] == 0

    def test_prune_sweeps_only_old_orphans(self, tmp_path):
        import time

        cache = ResultCache(tmp_path)
        old = _orphan_tmp(cache, "ab" + "0" * 62)
        stamp = time.time() - 7200
        os.utime(old, (stamp, stamp))
        fresh = _orphan_tmp(cache, "cd" + "0" * 62)
        removed, freed = cache.prune(3600)
        assert removed == 1 and freed > 0
        assert not old.exists() and fresh.exists()

    def test_failed_put_cleans_its_tmp_file(self, tmp_path,
                                            monkeypatch):
        cache = ResultCache(tmp_path)

        def doomed_replace(self, target):
            raise OSError("disk full")

        monkeypatch.setattr(Path, "replace", doomed_replace)
        key = stable_key({"k": 9})
        with pytest.raises(OSError, match="disk full"):
            cache.put(key, {"big": "value"})
        monkeypatch.undo()
        assert key not in cache
        assert cache.stats()["tmp_files"] == 0


class TestConcurrentPut:
    def test_two_writers_of_one_key_both_succeed(self, tmp_path,
                                                 monkeypatch):
        """Writer A pauses between its write and its rename while
        writer B (another thread here; another process in the wild)
        completes a put of the same key.  Both puts return, and the
        entry reads back whole."""
        import threading

        key = stable_key({"k": "shared"})
        writer_a = ResultCache(tmp_path)
        writer_b = ResultCache(tmp_path)
        errors = []

        def put_b():
            try:
                writer_b.put(key, "from B")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        real_replace = Path.replace
        paused = []

        def replace_after_b(self, target):
            if not paused:
                paused.append(self)
                other = threading.Thread(target=put_b)
                other.start()
                other.join()
            return real_replace(self, target)

        monkeypatch.setattr(Path, "replace", replace_after_b)
        writer_a.put(key, "from A")
        monkeypatch.undo()
        assert errors == []
        hit, value = ResultCache(tmp_path).get(key)
        assert hit and value == "from A"  # the last rename wins
        assert writer_a.stats()["tmp_files"] == 0

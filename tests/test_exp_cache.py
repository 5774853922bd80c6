"""Tests for the content-addressed result cache."""

import dataclasses
import enum
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.figures import FigureTable
from repro.cpu.probe import LatencySample
from repro.exp.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    canonical_checksum,
    canonicalize,
    code_fingerprint,
    stable_key,
)
from repro.sim.config import DefenseKind, SystemConfig
from repro.sim.stats import BlockInterval, BlockKind


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


# ----------------------------------------------------------------------
# The canonical form against the asdict-based reference
# ----------------------------------------------------------------------
def reference_canonicalize(obj):
    """``canonicalize`` as it was before the one-pass dataclass walk,
    copied verbatim but for its name (it deep-copies through
    ``dataclasses.asdict`` and walks the copy)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return reference_canonicalize(obj.value)
    if hasattr(obj, "to_dict"):
        return reference_canonicalize(obj.to_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return reference_canonicalize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): reference_canonicalize(v) for k, v in sorted(
            obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [reference_canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(reference_canonicalize(v) for v in obj)
    if isinstance(obj, bytes):
        return obj.hex()
    # numpy arrays / scalars (duck-typed so numpy stays off the import
    # path): canonicalize as nested lists.
    if hasattr(obj, "tolist"):
        return reference_canonicalize(obj.tolist())
    # Callables / exotic objects: fall back to their qualified name so
    # keys stay deterministic (no memory addresses).
    name = getattr(obj, "__qualname__", None)
    if name is not None:
        return f"{getattr(obj, '__module__', '?')}.{name}"
    return repr(type(obj))


def reference_canonical_checksum(value) -> str:
    """``canonical_checksum`` before the change, verbatim but for its
    name and the reference ``canonicalize`` it calls."""
    blob = json.dumps(reference_canonicalize(value),
                      sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Pair:
    left: object
    right: object = None


@dataclass
class Disagrees:
    """``canonicalize`` uses this ``to_dict`` at the top level and in
    plain containers; nested in a dataclass, ``asdict`` walks the
    fields instead."""

    inner: object

    def to_dict(self) -> dict:
        return {"from": "to_dict"}


@dataclass(frozen=True)
class Frozen:
    # Declared out of name order: the canonical form sorts them.
    x: int
    tag: str = ""


class Color(enum.Enum):
    RED = "red"
    MIXED = ("m", 2)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def _plain_function():
    return None


_CALLABLES = (len, math.sqrt, _plain_function, lambda: None, Frozen,
              Pair.__init__, Frozen(1, "a").__repr__, "text".upper)

_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=4), st.binary(max_size=4),
    st.sampled_from(Color), st.sampled_from(Level),
    st.sampled_from(BlockKind),
    st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=4).map(np.array),
    st.lists(st.floats(allow_nan=False), min_size=2, max_size=4).map(
        lambda xs: np.array(xs[:2 * (len(xs) // 2)]).reshape(-1, 2)),
    st.floats().map(np.float64), st.integers(-99, 99).map(np.int32),
    st.sampled_from(_CALLABLES),
    st.builds(Frozen, st.integers(), st.text(max_size=3)),
    st.frozensets(st.builds(Frozen, st.integers(0, 3)), max_size=2),
    st.sets(st.one_of(st.integers(), st.text(max_size=2)), max_size=3),
)

_KEYS = st.one_of(
    st.text(max_size=3), st.integers(-3, 3), st.sampled_from(Color),
    st.sampled_from(Level), st.tuples(st.integers(0, 2), st.text(max_size=1)),
    st.builds(LatencySample, st.integers(0, 2), st.integers(0, 2),
              st.integers(0, 2)))


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEYS, children, max_size=3),
        st.builds(Pair, children, children),
        st.builds(Disagrees, children),
        st.builds(LatencySample, children, children, children),
        st.builds(BlockInterval, st.sampled_from(BlockKind), children,
                  children, st.integers(0, 3),
                  st.none() | st.frozensets(st.integers(0, 31), max_size=3)),
    )


_VALUES = st.recursive(_LEAVES, _extend, max_leaves=24)


def _outcome(fn, value):
    """What ``fn(value)`` gives: its JSON text in insertion order (so
    key order counts), or the type of the exception it raises."""
    try:
        return json.dumps(fn(value))
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc)


class TestCanonicalFormMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_VALUES, st.builds(Pair, _VALUES, _VALUES),
                     st.builds(Disagrees, _VALUES)))
    @example(Pair(Disagrees(Frozen(1, "a")), {2: Level.HIGH, 1: b"\x01"}))
    @example(Pair([Frozen(3)], {(1, "a"): Color.MIXED, "1": 1, 1: 2}))
    def test_canonicalize_and_checksum(self, value):
        expected = _outcome(reference_canonicalize, value)
        assert _outcome(canonicalize, value) == expected
        if isinstance(expected, str):
            assert (canonical_checksum(value)
                    == reference_canonical_checksum(value))

    def test_fig3_quick_value(self):
        """The result ``serve-mixed`` serves on every cached hit."""
        from repro.exp.registry import get_experiment
        from repro.exp.runner import run_experiment

        quick = get_experiment("fig3").quick
        value = run_experiment("fig3", quick, use_cache=False).value
        assert (json.dumps(canonicalize(value))
                == json.dumps(reference_canonicalize(value)))
        assert (canonical_checksum(value)
                == reference_canonical_checksum(value))

    def test_dataclass_dict_key_inside_a_dataclass(self):
        """``asdict`` turns such a key into a dict, which cannot be a
        key, so the reference raises; the walk keys it by ``str(key)``
        as a dict outside a dataclass is keyed."""
        value = Pair({Frozen(1): "v"})
        with pytest.raises(TypeError):
            reference_canonicalize(value)
        key = str(Frozen(1))
        assert canonicalize(value) == {"left": {key: "v"}, "right": None}
        assert canonicalize({Frozen(1): "v"}) == {key: "v"}


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

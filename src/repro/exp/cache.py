"""Content-addressed on-disk result cache for experiment runs.

A cache entry is keyed by a stable SHA-256 over the experiment name,
its (canonicalized) parameters, and a fingerprint of the ``repro``
source tree — so editing any simulator/driver code automatically
invalidates stale results, while re-running an unchanged report is
near-instant.

Values are stored with :mod:`pickle` under
``<cache-dir>/<key[:2]>/<key>.pkl``.  The default directory is
``.repro-cache/`` in the current working directory, overridable with
the ``REPRO_CACHE_DIR`` environment variable or an explicit path.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import threading
import time
from pathlib import Path

from repro.obs.metrics import REGISTRY as _METRICS

_HITS = _METRICS.counter(
    "repro_cache_hits_total", "Result-cache lookups served from disk")
_MISSES = _METRICS.counter(
    "repro_cache_misses_total",
    "Result-cache lookups that missed (or hit a corrupt entry)")
_PUTS = _METRICS.counter(
    "repro_cache_puts_total", "Result-cache entries written")
_PUT_BYTES = _METRICS.counter(
    "repro_cache_put_bytes_total",
    "Pickled bytes written into the result cache")
_ORPHANS = _METRICS.counter(
    "repro_cache_tmp_orphans_swept_total",
    "Orphaned .pkl.tmp files removed by prune/clear")

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


# ----------------------------------------------------------------------
# Stable hashing
# ----------------------------------------------------------------------
def canonicalize(obj):
    """Reduce ``obj`` to JSON-encodable primitives, deterministically.

    Handles the values experiment parameters are made of: primitives,
    (nested) lists/tuples/sets, dicts, enums, dataclasses, and any
    object exposing ``to_dict()`` (e.g. :class:`~repro.sim.config.
    SystemConfig`).  Tuples and lists canonicalize identically.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return canonicalize(obj.value)
    if hasattr(obj, "to_dict"):
        return canonicalize(obj.to_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return canonicalize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(
            obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonicalize(v) for v in obj)
    if isinstance(obj, bytes):
        return obj.hex()
    # numpy arrays / scalars (duck-typed so numpy stays off the import
    # path): canonicalize as nested lists.
    if hasattr(obj, "tolist"):
        return canonicalize(obj.tolist())
    # Callables / exotic objects: fall back to their qualified name so
    # keys stay deterministic (no memory addresses).
    name = getattr(obj, "__qualname__", None)
    if name is not None:
        return f"{getattr(obj, '__module__', '?')}.{name}"
    return repr(type(obj))


def stable_key(payload) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``payload``."""
    canonical = json.dumps(canonicalize(payload), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def canonical_checksum(value) -> str:
    """Checksum of a result's canonical (JSON-safe) form.

    This is the byte-identity contract of the serve subsystem: the
    server's response ``checksum``, the test suite's server-vs-direct
    comparisons, and the CI smoke jobs all hash
    ``json.dumps(canonicalize(value), sort_keys=True)`` -- the exact
    encoding ``repro run --out`` persists under ``"data"`` -- so a
    cached HTTP answer can be checked byte-for-byte against a direct
    ``repro run`` of the same spec.
    """
    blob = json.dumps(canonicalize(value), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


_code_fingerprint: str | None = None


def code_fingerprint() -> str:
    """Hash of every ``*.py`` file in the installed ``repro`` package.

    Computed once per process; cache keys embed it so results are
    invalidated whenever the simulator or a driver changes.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class ResultCache:
    """Pickle-backed content-addressed store of experiment results."""

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.directory = Path(directory)
        #: Process-local lookup counters (this instance's lifetime);
        #: surfaced by :meth:`stats` so a long-lived holder (e.g. the
        #: serve subsystem) reports live hit rates.
        self.hit_count = 0
        self.miss_count = 0
        self.put_count = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> tuple[bool, object]:
        """Return ``(hit, value)``; a corrupt entry counts as a miss."""
        path = self._path(key)
        if not path.is_file():
            self.miss_count += 1
            _MISSES.inc()
            return False, None
        try:
            value = pickle.loads(path.read_bytes())
        except Exception:  # corrupt/truncated entry: treat as miss
            try:
                path.unlink()
            except OSError:
                pass
            self.miss_count += 1
            _MISSES.inc()
            return False, None
        self.hit_count += 1
        _HITS.inc()
        return True, value

    def put(self, key: str, value: object) -> Path:
        """Store ``value`` under ``key`` (atomic rename within the dir).

        Each writer stages its bytes in its own ``*.pkl.tmp`` file, so
        two processes or threads putting one key never share, truncate
        or steal each other's staging file; the last rename wins.
        """
        self.put_count += 1
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{key}.{os.getpid()}-{threading.get_ident()}.pkl.tmp")
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            tmp.write_bytes(payload)
            tmp.replace(path)
        except BaseException:
            # A failed write must not leave a half-written .tmp behind
            # (a hard process kill still can: prune()/clear() sweep
            # those orphans, and stats() reports them).
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        _PUTS.inc()
        _PUT_BYTES.inc(len(payload))
        return path

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.pkl"))

    def entries(self):
        """Yield ``(path, stat_result)`` for every live entry (entries
        racing with a concurrent prune are skipped, not errors)."""
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob("*/*.pkl")):
            try:
                yield path, path.stat()
            except OSError:
                continue

    def _tmp_files(self):
        """Yield ``(path, stat_result)`` for orphaned ``*.pkl.tmp``
        files — the debris of a :meth:`put` that died between write and
        rename.  They are invisible to :meth:`entries` (the live-entry
        glob), so the maintenance paths sweep them explicitly."""
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob("*/*.pkl.tmp")):
            try:
                yield path, path.stat()
            except OSError:
                continue

    def stats(self, *, now: float | None = None) -> dict:
        """Aggregate cache statistics (counts, bytes, entry ages)."""
        if now is None:
            now = time.time()
        count = 0
        total_bytes = 0
        oldest: float | None = None
        newest: float | None = None
        for _, stat in self.entries():
            count += 1
            total_bytes += stat.st_size
            oldest = stat.st_mtime if oldest is None else min(
                oldest, stat.st_mtime)
            newest = stat.st_mtime if newest is None else max(
                newest, stat.st_mtime)
        tmp_files = 0
        tmp_bytes = 0
        for _, stat in self._tmp_files():
            tmp_files += 1
            tmp_bytes += stat.st_size
        return {
            "directory": str(self.directory),
            "entries": count,
            "total_bytes": total_bytes,
            "oldest_age_s": None if oldest is None else max(0.0,
                                                            now - oldest),
            "newest_age_s": None if newest is None else max(0.0,
                                                            now - newest),
            "tmp_files": tmp_files,
            "tmp_bytes": tmp_bytes,
            "hit_count": self.hit_count,
            "miss_count": self.miss_count,
            "put_count": self.put_count,
        }

    def prune(self, older_than_s: float, *,
              now: float | None = None) -> tuple[int, int]:
        """Delete entries last written more than ``older_than_s`` seconds
        ago; returns ``(entries_removed, bytes_freed)``.  Orphaned
        ``*.pkl.tmp`` files past the same age are swept too (and
        counted), and empty shard subdirectories are removed
        afterwards."""
        if now is None:
            now = time.time()
        removed = 0
        freed = 0
        orphans = 0
        candidates = list(self.entries()) + list(self._tmp_files())
        for path, stat in candidates:
            if now - stat.st_mtime <= older_than_s:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += stat.st_size
            if path.name.endswith(".pkl.tmp"):
                orphans += 1
        if orphans:
            _ORPHANS.inc(orphans)
        self._remove_empty_shards()
        return removed, freed

    def clear(self) -> int:
        """Delete every entry (and every orphaned ``*.pkl.tmp``);
        returns the number removed.  An entry that vanishes
        mid-iteration (a concurrent prune/clear) is skipped, not a
        crash — and not counted as removed by *this* call."""
        removed = 0
        orphans = 0
        if self.directory.is_dir():
            doomed = list(self.directory.glob("*/*.pkl"))
            doomed.extend(self.directory.glob("*/*.pkl.tmp"))
            for path in doomed:
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                if path.name.endswith(".pkl.tmp"):
                    orphans += 1
        if orphans:
            _ORPHANS.inc(orphans)
        self._remove_empty_shards()
        return removed

    def _remove_empty_shards(self) -> None:
        if not self.directory.is_dir():
            return
        for sub in self.directory.iterdir():
            if sub.is_dir():
                try:
                    sub.rmdir()  # only succeeds when empty
                except OSError:
                    pass

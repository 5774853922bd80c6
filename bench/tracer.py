"""Benchmark-local tracing: span wrappers plus a stack sampler.

Nothing here edits ``src/``.  :class:`Tracer` wraps public entry points
by replacing class attributes before any system is built and records,
per span name, the call count, inclusive time and self time (a span's
duration minus the time its child spans cover).  Coarse spans also go
to a Chrome trace written when the run ends.

Time inside ``Simulator.run`` reaches the controller, defenses and
agents through engine callbacks, not through public calls, so spans
cannot split it.  :class:`StackSampler` does: a thread reads
``sys._current_frames()`` every few milliseconds and charges each
sample to the module of the innermost frame under ``src/repro/``
(stdlib and numpy time lands on its repro caller).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Stdlib functions that mean "this thread is waiting, not working"
#: when they are the innermost frame of a sample.
IDLE_FUNCTIONS = frozenset({
    "select", "poll", "wait", "get", "accept", "readinto", "recv",
    "recv_into", "_wait_for_tstate_lock", "sleep", "read",
})


def layer_of(path: str, repro_root: str) -> str | None:
    """Layer of a source file: ``sim.<module>`` inside ``repro/sim``,
    the subpackage name elsewhere, the module name for top-level
    modules; None outside the repro package."""
    if not path.startswith(repro_root):
        return None
    parts = path[len(repro_root):].lstrip(os.sep).split(os.sep)
    if parts[0] == "sim" and len(parts) > 1:
        return "sim." + parts[1].removesuffix(".py")
    return parts[0].removesuffix(".py")


class Tracer:
    """Span wrappers around public entry points (thread-safe)."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [count, incl_s, self_s]
        self.chrome: list[dict] = []
        self._patched: list[tuple[type, str, object, bool]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, coarse: bool = False):
        """Context manager recording one span (used for calls made from
        the benchmark's own code)."""
        return _Span(self, name, coarse)

    def wrap(self, owner: type, attr: str, name: str, *,
             coarse: bool = False, outermost: bool = False,
             on_result=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``outermost`` records only calls not nested inside a span of
        the same name (ensemble models fit their base learners through
        the same method).  ``on_result(value)`` sees each return value.
        """
        had_own = attr in owner.__dict__
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if outermost and any(s.name == name for s in tracer._stack()):
                return original(*args, **kwargs)
            with _Span(tracer, name, coarse):
                value = original(*args, **kwargs)
            if on_result is not None:
                on_result(value)
            return value

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, had_own))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def get(self, name: str) -> tuple[int, float, float]:
        count, incl, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return count, incl, self_s

    def write_chrome(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": self.chrome,
                       "displayTimeUnit": "ms"}, handle)


class _Span:
    __slots__ = ("tracer", "name", "coarse", "start", "child_s")

    def __init__(self, tracer: Tracer, name: str, coarse: bool) -> None:
        self.tracer = tracer
        self.name = name
        self.coarse = coarse

    def __enter__(self) -> "_Span":
        self.child_s = 0.0
        self.tracer._stack().append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        stack = tracer._stack()
        stack.pop()
        duration = end - self.start
        if stack:
            stack[-1].child_s += duration
        with tracer._lock:
            row = tracer.stats.setdefault(self.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - self.child_s
            if self.coarse:
                tracer.chrome.append({
                    "name": self.name, "ph": "X", "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "ts": (self.start - tracer._t0) * 1e6,
                    "dur": duration * 1e6})


class StackSampler:
    """Per-layer self time of selected threads by periodic sampling.

    ``select(thread)`` picks the threads whose time is charged.  Every
    tick files each selected thread under one bucket: a layer, ``idle``
    (innermost frame is a stdlib wait), or ``unattributed`` (no repro
    frame on the stack).  All ticks weigh the same (the mean interval),
    so one tick delayed by a stalled host cannot dominate a short run.
    """

    def __init__(self, repro_root: str, select, interval_s: float = 0.002
                 ) -> None:
        self.repro_root = os.path.realpath(repro_root)
        self.select = select
        self.interval_s = interval_s
        self.counts: dict[str, int] = {}
        self.samples = 0
        self.elapsed_s = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._layer_cache: dict[str, str | None] = {}

    def _layer(self, filename: str) -> str | None:
        layer = self._layer_cache.get(filename, "")
        if layer == "":
            layer = layer_of(os.path.realpath(filename), self.repro_root)
            self._layer_cache[filename] = layer
        return layer

    def _bucket(self, frame) -> str:
        top = frame
        while frame is not None:
            layer = self._layer(frame.f_code.co_filename)
            if layer is not None:
                if top is not frame and top.f_code.co_name in IDLE_FUNCTIONS:
                    return "idle"
                return layer
            frame = frame.f_back
        return "unattributed"

    def _run(self) -> None:
        me = threading.get_ident()
        start = time.perf_counter()
        while not self._stop.wait(self.interval_s):
            frames = sys._current_frames()
            for thread in threading.enumerate():
                ident = thread.ident
                if ident == me or ident not in frames:
                    continue
                if not self.select(thread):
                    continue
                bucket = self._bucket(frames[ident])
                self.counts[bucket] = self.counts.get(bucket, 0) + 1
            self.samples += 1
        self.elapsed_s = time.perf_counter() - start

    def __enter__(self) -> "StackSampler":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="bench-sampler")
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    @property
    def seconds(self) -> dict[str, float]:
        """Sampled seconds per bucket (each tick weighs the mean
        interval; threads are summed)."""
        tick = self.elapsed_s / self.samples if self.samples else 0.0
        return {k: n * tick for k, n in self.counts.items()}

    def busy_s(self) -> float:
        """Sampled time of the selected threads, idle excluded."""
        return sum(v for k, v in self.seconds.items() if k != "idle")

    def coverage(self) -> float:
        """Share of busy samples charged to a repro layer."""
        busy = sum(n for k, n in self.counts.items() if k != "idle")
        if not busy:
            return 0.0
        return 1.0 - self.counts.get("unattributed", 0) / busy

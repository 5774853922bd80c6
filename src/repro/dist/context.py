"""Per-run execution context threaded under ``map_trials``.

``workers`` travels through driver signatures (it predates this
subsystem), but backend selection, the per-trial result cache, and the
progress callback would have to be added to every sweep helper and
driver to reach :func:`repro.exp.runner.map_trials` the same way.
Instead the CLI (and tests) install them ambiently::

    with execution(backend="shards", trial_cache=cache, progress=cb):
        run_experiment("fig4", {...}, workers=4)

Every ``map_trials`` call inside the block picks them up unless given
explicitly.  Contexts nest; inner values override outer ones field by
field.

The stack is **thread-local**: the serve subsystem runs jobs on a
background runner thread with its own ambient backend/cache/progress,
and neither that thread's context nor the main thread's may leak into
the other.  Each thread starts from a fresh default context (contexts
are deliberately not inherited across ``Thread.start()``).

:func:`gc_paused` is the other half of a run's setup: the CLI and the
serve job runner both simulate inside it.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ExecutionContext:
    """Ambient sweep-execution settings (all optional)."""

    #: Backend name for ``map_trials`` (None -> env var / auto).
    backend: str | None = None
    #: :class:`~repro.exp.cache.ResultCache` streaming per-trial results
    #: (partial sweeps resume from it instead of restarting).
    trial_cache: object | None = None
    #: ``progress(done, total, cache_hits)`` called as trials land.
    progress: Callable[[int, int, int], None] | None = None


_local = threading.local()


def _stack() -> list[ExecutionContext]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = [ExecutionContext()]
    return stack


def current_execution() -> ExecutionContext:
    """The innermost execution context active on this thread."""
    return _stack()[-1]


@contextmanager
def execution(backend: str | None = None, trial_cache=None,
              progress=None):
    """Install an execution context for the duration of the block."""
    stack = _stack()
    outer = stack[-1]
    ctx = ExecutionContext(
        backend=backend if backend is not None else outer.backend,
        trial_cache=(trial_cache if trial_cache is not None
                     else outer.trial_cache),
        progress=progress if progress is not None else outer.progress)
    stack.append(ctx)
    try:
        yield ctx
    finally:
        stack.pop()


@contextmanager
def gc_paused():
    """Run simulations with the cyclic GC paused.

    The event engine allocates hundreds of thousands of short-lived
    tuples per simulated trial; generation-0 collections cost several
    percent of wall time and never find garbage mid-trial (the object
    graphs live until the trial ends).  Reference counting still frees
    everything acyclic immediately; one collection at the end picks up
    the per-trial cycles (agents <-> system <-> simulator).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()

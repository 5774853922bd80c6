"""Process-pool backend: the pre-subsystem ``--workers N`` path.

One :class:`~concurrent.futures.ProcessPoolExecutor` per sweep, sized
``min(workers, n_points)``.  Futures are submitted per point (instead
of ``pool.map``) so results stream back to the caller as they land —
that is what feeds the per-trial result cache and the progress line.

Failure semantics match the historical ``map_trials`` exactly:

* pool *machinery* failure (``OSError`` at construction, a
  ``BrokenExecutor`` while running) raises
  :class:`~repro.dist.base.BackendUnavailable` so the caller falls
  back to serial;
* a *trial* exception propagates unchanged, deterministically: when
  several trials fail, the lowest point index wins (the error the
  serial sweep would have hit first).
"""

from __future__ import annotations

import os
import pickle
from typing import Sequence

from repro.dist.base import Backend, BackendUnavailable, IN_WORKER_ENV
from repro.dist.serial import call_point


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after
            if after[k] != before[k]}


def _call_point_pinned(fn, point, seed, ff: str | None):
    """Worker-side trial call with the coordinator's fast-forward
    forced mode re-applied, plus the trial's jump totals and engine
    event counts (what a shards reply frame carries as ``ff_totals``
    and ``"m"``).

    On fork platforms the child inherits the forced state anyway, but
    spawn/forkserver children do not — pinning explicitly keeps
    ``diffcheck --backend pool`` meaningful everywhere, exactly like
    the shards task frames.
    """
    # Same invariant as the shards daemons: a shipped trial that calls
    # map_trials itself resolves to serial, never a nested fleet.
    # (Pool children are reused, so setting it once per task is cheap.)
    os.environ[IN_WORKER_ENV] = "1"
    from repro.sim import engine, fastforward

    ff_before = fastforward.totals()
    ev_before = engine.global_counters()
    with fastforward.forced(ff):
        value = call_point(fn, point, seed)
    return (value, _delta(ff_before, fastforward.totals()),
            _delta(ev_before, engine.global_counters()))


class PoolBackend(Backend):
    name = "pool"

    def run(self, fn, points: Sequence, seeds: Sequence, *,
            workers: int | None = None, on_result=None) -> list:
        # Deferred import: the pool machinery is only paid for when a
        # parallel sweep is actually requested (keeps CLI startup lean).
        from concurrent.futures import (
            BrokenExecutor,
            ProcessPoolExecutor,
            as_completed,
        )

        from repro.sim import engine, fastforward

        n = len(points)
        if n == 0:
            return []
        # Lambdas / nested functions cannot cross the pickle boundary;
        # fall back to serial (documented contract) instead of letting
        # every future die with a PicklingError.  Module-level
        # ``__main__`` functions still pass (fork children share it).
        try:
            pickle.dumps(fn)
        except Exception as exc:
            raise BackendUnavailable(
                f"trial function {fn!r} is not picklable ({exc})"
            ) from exc
        max_workers = min(workers or (os.cpu_count() or 1), n)
        try:
            pool = ProcessPoolExecutor(max_workers=max(1, max_workers))
        except OSError as exc:
            raise BackendUnavailable(exc) from exc

        ff = fastforward.forced_mode()
        results: list = [None] * n
        errors: dict[int, BaseException] = {}
        try:
            with pool:
                futures = {
                    pool.submit(_call_point_pinned, fn, point, seed,
                                ff): i
                    for i, (point, seed) in enumerate(zip(points, seeds))}
                for future in as_completed(futures):
                    i = futures[future]
                    exc = future.exception()
                    if isinstance(exc, BrokenExecutor):
                        raise exc
                    if exc is not None:
                        errors[i] = exc
                        continue
                    results[i], ff_delta, ev_delta = future.result()
                    if ff_delta:
                        fastforward.absorb_totals(ff_delta)
                    if ev_delta:
                        engine.absorb_counters(ev_delta)
                    # Stream even when another point already failed:
                    # completed work belongs in the trial cache either
                    # way (resume-after-fix skips it).
                    if on_result is not None:
                        on_result(i, results[i])
        except BrokenExecutor as exc:
            raise BackendUnavailable(exc) from exc
        if errors:
            raise errors[min(errors)]
        return results

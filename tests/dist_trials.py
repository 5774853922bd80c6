"""Module-level trial functions for the distributed-backend tests.

These live in an importable module (not a ``test_*`` file, so pytest
does not collect it) because the shards backend addresses trial
functions as ``module:qualname`` and resolves them inside worker
processes — the workers inherit this process's ``sys.path``, which
under pytest includes this directory.
"""

from __future__ import annotations

import os
import time


def square(point):
    return point * point


def seeded(point, seed):
    return (point, seed)


def tuple_result(point):
    """Forces the pickle leg of the wire protocol (tuples are not
    JSON-round-trip exact)."""
    return (point, point + 1)


def boom(point):
    raise ValueError(f"boom {point}")


def boom_odd(point):
    if point % 2:
        raise ValueError(f"boom {point}")
    return point * point


def unshippable_result(point):
    """A result that is neither JSON-exact nor picklable — must come
    back as a trial error, not kill the worker."""
    return lambda: point


def in_worker_flag(point):
    """Whether the executing process is marked as a sweep worker."""
    import os

    from repro.dist.base import IN_WORKER_ENV

    return os.environ.get(IN_WORKER_ENV) == "1"


def ff_enabled(point):
    """What the *worker* resolves the fast-forward switch to."""
    from repro.sim import fastforward

    return fastforward.resolve_enabled()


def elision_trial(point):
    """A tiny probe run with fast-forward forced on; returns how many
    wakes its simulator elided (the engine-counter shipping path needs
    a trial with a nonzero, known elided count)."""
    from repro.cpu.probe import LatencyProbe
    from repro.sim import fastforward
    from repro.sim.config import SystemConfig
    from repro.system import MemorySystem

    with fastforward.forced("on"):
        system = MemorySystem(SystemConfig())
    probe = LatencyProbe(system, [system.mapper.encode(row=5)],
                         max_samples=200)
    probe.start()
    while not probe.done:
        system.sim.run(until=system.sim.now + 1_000_000)
    return system.sim.events_elided


def always_crash(point):
    """Hard-kill the hosting worker, every time."""
    os._exit(13)


def crash_once(point):
    """Kill the hosting worker the first time this point runs.

    ``point["marker"]`` is a path: absent -> create it and die without
    cleanup (a hard crash, not an exception); present -> behave like
    :func:`square` on ``point["v"]``.
    """
    marker = point.get("marker")
    if marker and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("crashed")
        os._exit(13)
    return point["v"] * point["v"]


def sleepy(point):
    """Sleep briefly then echo — keeps a sweep observably in flight
    for the drain/orphan shutdown tests."""
    time.sleep(point.get("s", 0.2))
    return point.get("v", 0)


def hang_once(point):
    """Sleep far past any test timeout the first time this point runs
    (the coordinator must kill + requeue); instant on the retry."""
    marker = point.get("marker")
    if marker and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("hanging")
        time.sleep(120)
    return point["v"] + 1


def report_pid_and_hang_once(point):
    """Write the hosting worker's pid to ``point["marker"]`` and hang
    the first time this point runs — the fleet tests SIGKILL that pid
    from outside, mid-trial; instant on the retry."""
    marker = point.get("marker")
    if marker and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write(str(os.getpid()))
        time.sleep(120)
    return point["v"] + 1
